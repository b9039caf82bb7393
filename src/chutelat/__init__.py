"""Reduced pipe dreams, chute-move lattices, and machine checks of their
structure theory."""

from .chute import ChuteMove, apply, check_increment_correspondence, find_moves, inverse_apply
from .errors import Incomparable, TheoremViolation
from .perm import Permutation
from .pipedream import PipeDream, is_reduced, phi, theta, trace, transpose
from .poset import (
    ChutePoset,
    Interval,
    PolygonType,
    brute_force_enumerate,
    cached_poset,
    chute_path,
    classify_polygon,
    enumerate_poset,
    leq_via_lehmer,
    seed_dream,
    theta_inverse,
    to_dot,
)
from .schubert import IntPolynomial, schubert_from_pipedreams, schubert_oracle
from .tableaux import (
    InversionsTableau,
    LehmerTableau,
    StairTableau,
    increment,
    lehmer_form,
    lehmer_form_inverse,
    lehmer_leq,
    validate_inversions_tableau,
)
from .verify import VerificationReport, run_checks

__version__ = "0.1.0"

__all__ = [
    "ChuteMove",
    "ChutePoset",
    "Incomparable",
    "IntPolynomial",
    "Interval",
    "InversionsTableau",
    "LehmerTableau",
    "Permutation",
    "PipeDream",
    "PolygonType",
    "StairTableau",
    "TheoremViolation",
    "VerificationReport",
    "apply",
    "brute_force_enumerate",
    "cached_poset",
    "check_increment_correspondence",
    "chute_path",
    "classify_polygon",
    "enumerate_poset",
    "find_moves",
    "increment",
    "inverse_apply",
    "is_reduced",
    "lehmer_form",
    "lehmer_form_inverse",
    "lehmer_leq",
    "leq_via_lehmer",
    "phi",
    "run_checks",
    "schubert_from_pipedreams",
    "schubert_oracle",
    "seed_dream",
    "theta",
    "theta_inverse",
    "to_dot",
    "trace",
    "transpose",
    "validate_inversions_tableau",
    "__version__",
]
