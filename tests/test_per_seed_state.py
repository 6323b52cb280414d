"""Everything derived from a session's public seeds goes with its driver.

A session's hashes, and what is computed from them (a hash's products,
graph bases and fingerprint cosets), are pure functions of the seeds, so
they are kept on the hashes that a `protocols.SessionDriver` holds, never
in a module's cache: once the driver is dropped, nothing of its seeds
stays alive.  The only functools caches in skalab are keyed by seed-free
values, each listed in ALLOWED with its reason.
"""

import functools
import gc
import importlib
import pkgutil
import sys
import weakref
from fractions import Fraction

import pytest

import skalab
from skalab.protocols import Margins, SessionConfig, SessionDriver, draw_seeds, session_plan, session_streams
from skalab.sources import parse_model_spec, sample

# Every functools cache in skalab, one reason each.  None may be keyed by
# anything a public seed determines.
ALLOWED = {
    "protocols._plan": "a session's sizing and layout, keyed by (model, protocol, eps, margins) and no seed",
    "gf2.irreducible_poly": "the field polynomial of a degree",
    "gf2.spread_reducer": "the reduction modulo a degree's field polynomial",
}


def _functools_caches():
    """Qualified names of the functools caches bound in skalab's modules
    and their classes, each under the name its module binds it to; a
    cache imported under its own name from another module is that
    module's."""
    found = set()
    for info in pkgutil.iter_modules(skalab.__path__):
        module = importlib.import_module(f"skalab.{info.name}")
        holders = [(info.name, vars(module))]
        holders += [
            (f"{info.name}.{name}", vars(v))
            for name, v in vars(module).items()
            if isinstance(v, type) and v.__module__ == module.__name__
        ]
        for prefix, names in holders:
            for name, value in names.items():
                cached = callable(getattr(value, "cache_info", None)) or isinstance(value, functools.cached_property)
                origin = sys.modules.get(getattr(value, "__module__", None))
                if cached and (origin is module or getattr(origin, name, None) is not value):
                    found.add(f"{prefix}.{name}")
    return found


def test_functools_caches_are_allowed():
    extra = sorted(_functools_caches() - set(ALLOWED))
    assert not extra, f"functools caches not in ALLOWED: {extra}"


def test_allowlist_is_not_stale():
    stale = sorted(set(ALLOWED) - _functools_caches())
    assert not stale, f"allowed but gone: {stale}"


OMNI_MARGINS = Margins(k_slack=16, phase1=4, deficiency=2, extractor_eps=Fraction(1, 4))


def _session_refs(config):
    """Weak references to the hashes and fingerprints of one session's
    driver, taken after its run; the driver is dropped on return."""
    plan = session_plan(config)
    input_stream, public_stream = session_streams(config, 0)
    inputs = sample(config.model, input_stream).inputs
    driver = SessionDriver(plan, draw_seeds(plan, public_stream))
    assert driver.run(inputs).agreed
    fps = [driver.fingerprint(slot, inputs[slot])[0] for slot in range(len(driver.fp_hashes))]
    return [weakref.ref(obj) for obj in (*driver.fp_hashes, *driver.chain, *fps)]


@pytest.mark.parametrize(
    "config",
    [
        SessionConfig(parse_model_spec("line-point:n=16"), "light", Fraction(1, 256), 11),
        SessionConfig(parse_model_spec("hamming:n=31,t=3"), "light", Fraction(1, 256), 11),
        SessionConfig(parse_model_spec("triple:n=30"), "omniscience", Fraction(1, 16384), 13, OMNI_MARGINS),
    ],
    ids=["light-line-point", "light-hamming", "omniscience"],
)
def test_per_seed_state_dies_with_the_driver(config):
    refs = _session_refs(config)
    gc.collect()
    alive = [ref() for ref in refs if ref() is not None]
    assert not alive, f"{len(alive)} of {len(refs)} hashes and fingerprints outlive their driver"
