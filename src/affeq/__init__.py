"""Affine equivalence of bar-and-joint frameworks with prescribed lengths.

Decide whether two edge-length prescriptions on one graph admit frameworks
related by an invertible affine map, certify candidate solutions through a
polynomial feasibility system over squared distances, and reconstruct the
frameworks and the map from a passing assignment.
"""

from .cmdet import (
    EmbeddabilityReport,
    QuadraticSlice,
    Side,
    SquaredDistanceMatrix,
    cmd,
    menger_check,
    quadratic_slice,
    side_classify,
    simplex_volume_sq,
)
from .embedding import Configuration, ConditioningWarning, distances_of, embed
from .errors import (
    AffeqError,
    EmbeddabilityError,
    InputError,
    InstanceFormatError,
    InternalInconsistencyError,
    NoBaseSimplexError,
    PreconditionError,
    RatioSignError,
    ReconstructionError,
)
from .instance_io import (
    InstanceDocument,
    load_document,
    parse_document,
    render_document,
)
from .reconstruct import (
    AffineMap,
    Problem1Report,
    affine_from_simplex,
    certificate_alpha,
    reconstruct,
    verify_problem1,
)
from .smtexport import export_smt
from .solver import (
    NO,
    UNKNOWN,
    YES,
    Certificate,
    InfeasibilityWitness,
    SearchBudget,
    Verdict,
    line_oracle,
    numeric_search,
    random_instance,
    solve,
)
from .system import (
    Assignment,
    ConditionEntry,
    ConditionReport,
    Instance,
    Tolerances,
    check_assignment,
    estimate_alpha,
    find_base_simplex,
)

__version__ = "0.1.0"

__all__ = [
    "AffeqError",
    "AffineMap",
    "Assignment",
    "Certificate",
    "ConditionEntry",
    "ConditionReport",
    "ConditioningWarning",
    "Configuration",
    "EmbeddabilityError",
    "EmbeddabilityReport",
    "InfeasibilityWitness",
    "InputError",
    "Instance",
    "InstanceDocument",
    "InstanceFormatError",
    "InternalInconsistencyError",
    "NO",
    "NoBaseSimplexError",
    "PreconditionError",
    "Problem1Report",
    "QuadraticSlice",
    "RatioSignError",
    "ReconstructionError",
    "SearchBudget",
    "Side",
    "SquaredDistanceMatrix",
    "Tolerances",
    "UNKNOWN",
    "Verdict",
    "YES",
    "affine_from_simplex",
    "certificate_alpha",
    "check_assignment",
    "cmd",
    "distances_of",
    "embed",
    "estimate_alpha",
    "export_smt",
    "find_base_simplex",
    "line_oracle",
    "load_document",
    "menger_check",
    "numeric_search",
    "parse_document",
    "quadratic_slice",
    "random_instance",
    "reconstruct",
    "render_document",
    "side_classify",
    "simplex_volume_sq",
    "solve",
    "verify_problem1",
]
