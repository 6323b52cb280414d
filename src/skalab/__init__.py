"""skalab: a secret-key-agreement protocol laboratory.

Simulates hash-based information reconciliation, Toeplitz privacy
amplification, and multi-party omniscience over a public broadcast channel
with a recording eavesdropper, next to the exact rate-region optimization
and entropy audits that certify the sessions' accounting.
"""

from .channel import Transcript, TranscriptRecord
from .entropy import JointDistribution, LogExpr, transcript_inequality_audit
from .gf2 import (
    BitVec,
    Gf2Matrix,
    irreducible_poly,
    matvec,
)
from .profiles import (
    ComplexityProfile,
    cond,
    is_polymatroid,
    mutual,
    parse_profile,
)
from .protocols import (
    Margins,
    SessionConfig,
    SessionOutcome,
    SessionPlan,
    run_session,
    session_plan,
)
from .rateregion import RateRegion, RateTuple, co_formula3, co_lp, sw_constraints
from .reconcile import (
    DecodeResult,
    Fingerprint,
    decode,
    multi_decode,
)
from .rng import SeedStream
from .sources import CorrelatedInstance, Model, parse_model_spec, sample

__version__ = "0.1.0"
