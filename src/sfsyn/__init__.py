"""Syntactic complexity toolkit for suffix-free regular languages."""

from .transform import (
    Transformation,
    format_transformation,
    zero_path,
)
from .semigroup import (
    TransitionSemigroup,
    closure,
    in_wsf,
    enumerate_bsf,
    enumerate_wsf,
    vsf_generators,
    wsf_bound,
    semiconstant_family,
    witness_letters,
)
from .dfa import (
    Dfa,
    witness,
    transition_semigroup,
    is_minimal,
    suffix_free_violation,
    format_dfa,
    parse_dfa,
    to_dot,
)
from .collisions import (
    PairStatus,
    pair_statuses,
)
from .injection import (
    verify_injective,
    strict_bound_witness,
)
from .search import (
    SearchResult,
    canonicalize,
    search_max,
)

__all__ = [
    "Transformation",
    "format_transformation",
    "zero_path",
    "TransitionSemigroup",
    "closure",
    "in_wsf",
    "enumerate_bsf",
    "enumerate_wsf",
    "vsf_generators",
    "wsf_bound",
    "semiconstant_family",
    "witness_letters",
    "Dfa",
    "witness",
    "transition_semigroup",
    "is_minimal",
    "suffix_free_violation",
    "format_dfa",
    "parse_dfa",
    "to_dot",
    "PairStatus",
    "pair_statuses",
    "verify_injective",
    "strict_bound_witness",
    "SearchResult",
    "canonicalize",
    "search_max",
]

__version__ = "0.1.0"
