"""The light protocol's agreement on the line-point model, per public
seed, is the exact law ``model_checks.line_point_failure_probability`` of
its fingerprint hash: the exact audit's count of failing instances matches
it at every label."""

from fractions import Fraction

import pytest

from model_checks import line_point_failure_probability
from skalab.audit import exact_small_n_audit, fixed_seeds
from skalab.protocols import SessionConfig, SessionDriver
from skalab.sources import parse_model_spec

# eps bounds the mean of the failure probability over the public seeds, not
# each seed's, so no case asserts a bound: at n = 4, eps = 1/16, label 2
# one seed fails 9/16 of its sessions.


@pytest.mark.parametrize("label", range(4))
@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 4), Fraction(1, 16)], ids=str)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_audit_failures_follow_the_graph_kernel_law(n, eps, label):
    config = SessionConfig(parse_model_spec(f"line-point:n={n}"), "light", eps, 1)
    h = SessionDriver(*fixed_seeds(config, label)).fp_hashes[0]
    result = exact_small_n_audit(config, label)
    agreed = round(result.agreement_rate * result.instances)  # exact: agreed / instances, well inside a double
    assert Fraction(result.instances - agreed, result.instances) == line_point_failure_probability(h, n)
