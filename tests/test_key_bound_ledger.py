"""A ledger of the seed-free key bound on two-party plans.

x is uniform on C(x) bits and the transcript carries fp_rows linear bits
of it, so H(Z|T) <= max(0, C(x) - sum(fp_rows)) whenever the fingerprint
hash has full rank: a plan with key_len + sum(fp_rows) > C(x) promises key
bits that its fingerprints have spent.  The ledger takes the linear-algebra
certificate of H(Z|T) (``entropy_checks.key_entropy_certificate``) at the
exact audit's public labels 0-3 for every config of the grid that plans a
key, and checks that the bound, which needs no seed, names exactly the
configs whose certificate falls short of key_len on every label.

That every label certifies key_len is a strict xfail where it fails today:
on the configs that break the bound (ROADMAP item 24: size the key to
C(x) - fp_rows), and on light identical:n=8, whose square Toeplitz key
hash is rank-deficient on three of the four labels (items 20 and 23).  The
sizing fix drops those markers.
"""

from fractions import Fraction

import pytest

from entropy_checks import key_entropy_certificate
from skalab.protocols import SessionConfig, session_plan
from skalab.sources import parse_model_spec

MODELS = ("identical:n=8", "identical:n=64", "hamming:n=7,t=1", "hamming:n=31,t=3", "hamming:n=63,t=2", "line-point:n=8", "line-point:n=32")
EPSILONS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 256))
LABELS = range(4)


def _planned():
    for spec in MODELS:
        for eps in EPSILONS:
            for protocol in ("light", "two_phase"):
                config = SessionConfig(parse_model_spec(spec), protocol, eps, 1)
                try:
                    yield config, session_plan(config)
                except ValueError:  # the margins leave no key
                    pass


def breaks_bound(config, plan) -> bool:
    return plan.key_len + sum(plan.fp_rows) > config.model.profile().c({1})


def _id(config) -> str:
    return f"{config.protocol}-{config.model.spec_string()}-eps={config.eps}"


PLANNED = list(_planned())


def _xfail_marks(config, plan):
    if breaks_bound(config, plan):
        return [pytest.mark.xfail(strict=True, reason="the plan breaks the seed-free bound (ROADMAP item 24)")]
    if config.protocol == "light" and config.model.spec_string() == "identical:n=8":
        return [pytest.mark.xfail(strict=True, reason="rank-deficient square Toeplitz key hash (ROADMAP items 20 and 23)")]
    return []


def test_grid_shape():
    assert len(PLANNED) == 38
    assert sum(breaks_bound(*planned) for planned in PLANNED) == 32
    assert {(c.protocol, c.model.spec_string()) for c, plan in PLANNED if not breaks_bound(c, plan)} == {
        ("light", "identical:n=8"),
        ("light", "identical:n=64"),
    }


@pytest.mark.parametrize("config, plan", PLANNED, ids=[_id(c) for c, _plan in PLANNED])
def test_seed_free_bound_names_the_short_keys(config, plan):
    certificates = [key_entropy_certificate(config, label) for label in LABELS]
    assert breaks_bound(config, plan) == all(c < plan.key_len for c in certificates), certificates


@pytest.mark.parametrize(
    "config, plan",
    [pytest.param(c, plan, marks=_xfail_marks(c, plan), id=_id(c)) for c, plan in PLANNED],
)
def test_certificate_reaches_key_len_on_every_label(config, plan):
    assert [key_entropy_certificate(config, label) for label in LABELS] == [plan.key_len] * len(LABELS)
