"""Fuzzy cognitive map engines over three number families.

Crisp maps iterate real activations through a logistic function. Interval
maps carry [lo, hi] uncertainty through endpoint arithmetic. General grey
maps reduce multi-interval uncertainty to kernel/greyness pairs and evolve
the two components separately. The package adds trajectory classification
(fixed point / limit cycle / chaotic), sufficient convergence criteria for
each family, a built-in seven-node benchmark corpus, and a CLI.
"""

from ._family import Ggn, GreyUnion, Ign, ggn_from_union
from .cogmap import (
    FAMILIES,
    Model,
    Trajectory,
    fcm_step,
    simulate,
)
from .convergence import (
    AT_LEAST_ONE,
    INCONCLUSIVE,
    UNIQUE,
    Corollary3Result,
    FggcmReport,
    Verdict,
    check_fcm,
    check_fgcm,
    check_fggcm,
    corollary3_check,
    frobenius_norm,
    grey_condition_matrix,
    w_star,
)
from .corpus import VARIANTS, build, export_variant, inject_greyness
from .dynamics import (
    Classification,
    classify,
    state_distance,
)
from .errors import (
    DegenerateRowError,
    DimensionError,
    GreycogError,
    InsufficientDataError,
    InvalidParameterError,
    MalformedInputError,
    MixedSignWeightError,
    ValidationError,
)
from ._modelio import load_model, model_to_doc, parse_model, save_doc

__version__ = "0.1.0"

__all__ = [
    "AT_LEAST_ONE",
    "Classification",
    "Corollary3Result",
    "DegenerateRowError",
    "DimensionError",
    "FAMILIES",
    "FggcmReport",
    "Ggn",
    "GreyUnion",
    "GreycogError",
    "INCONCLUSIVE",
    "Ign",
    "InsufficientDataError",
    "InvalidParameterError",
    "MalformedInputError",
    "MixedSignWeightError",
    "Model",
    "Trajectory",
    "UNIQUE",
    "VARIANTS",
    "ValidationError",
    "Verdict",
    "build",
    "check_fcm",
    "check_fgcm",
    "check_fggcm",
    "classify",
    "corollary3_check",
    "export_variant",
    "fcm_step",
    "frobenius_norm",
    "ggn_from_union",
    "grey_condition_matrix",
    "inject_greyness",
    "load_model",
    "model_to_doc",
    "parse_model",
    "save_doc",
    "simulate",
    "state_distance",
    "w_star",
]
