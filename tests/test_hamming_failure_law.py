"""The light protocol's agreement on a Hamming model, per public seed, is
the exact law ``model_checks.hamming_failure_probability`` of its
fingerprint hash: the exact audit's count of failing instances matches it
at every label."""

from fractions import Fraction

import pytest

from model_checks import hamming_failure_probability
from skalab.audit import exact_small_n_audit, fixed_seeds
from skalab.protocols import SessionConfig, toeplitz_hashes
from skalab.sources import parse_model_spec

CASES = [("hamming:n=7,t=1", Fraction(1, 2)), ("hamming:n=9,t=2", Fraction(1, 4)), ("hamming:n=8,t=3", Fraction(1, 4))]

# eps bounds the mean of the failure probability over the public seeds, not
# each seed's: label 3 fails 4/7 of the n=7 instances at eps = 1/2, and
# 5/14 of the n=8, t=3 instances at eps = 1/4.
ABOVE_EPS = {("hamming:n=7,t=1", 3): Fraction(4, 7), ("hamming:n=8,t=3", 3): Fraction(5, 14)}


@pytest.mark.parametrize("label", range(4))
@pytest.mark.parametrize("spec, eps", CASES, ids=[spec for spec, _eps in CASES])
def test_exact_audit_failures_follow_the_syndrome_law(spec, eps, label):
    config = SessionConfig(parse_model_spec(spec), "light", eps, 5)
    plan, seeds = fixed_seeds(config, label)
    (h,), _chain = toeplitz_hashes(plan.hash_layout, tuple(r.payload for r in seeds))
    law = hamming_failure_probability(h, config.model.t)
    result = exact_small_n_audit(config, label)
    agreed = round(result.agreement_rate * result.instances)  # exact: agreed / instances, well inside a double
    assert Fraction(result.instances - agreed, result.instances) == law
    assert law == ABOVE_EPS.get((spec, label), law)
    assert (law > eps) == ((spec, label) in ABOVE_EPS)
