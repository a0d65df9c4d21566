"""Evaluation and construction of primals for augmented block designs.

An augmented block design plants replicated controls next to unreplicated
test treatments; the control subdesign (the primal) alone fixes the
precision of every control/control, test/test and control/test
comparison. This package computes those criteria in closed form, bounds
them from below independently of the design, verifies the closed forms
against a plot-level GLS oracle, and constructs or searches for good
primals.
"""

__version__ = "0.1.0"

from . import errors
from .bounds import (
    BoundQuantities,
    EfficiencyReport,
    ThresholdClass,
    a_bounds,
    bound_quantities,
    efficiencies,
    threshold_class,
)
from .criteria import (
    CriteriaReport,
    Intrablock,
    a_criteria,
    evaluate,
    intrablock,
    mv_criteria,
)
from .design import (
    AugmentationSpec,
    BlockDesign,
    all_k_subsets,
    delete_blocks,
    dual,
    format_design,
    from_blocks,
    is_connected,
    lattice_bib,
    low_overlap_indices,
    parse_design,
    read_design,
    repeat_blocks,
    write_design,
)
from .matrix import SymMatrix, invert, mp_inverse_centered
from .oracle import (
    AugmentedModel,
    ClassMinima,
    VerificationReport,
    build_model,
    class_counts,
    class_minima,
    enumerate_class,
    gls_variance,
    verify_design,
)
from .search import SearchConfig, SearchResult, exchange_search

__all__ = [
    "AugmentationSpec",
    "AugmentedModel",
    "BlockDesign",
    "BoundQuantities",
    "ClassMinima",
    "CriteriaReport",
    "EfficiencyReport",
    "Intrablock",
    "SearchConfig",
    "SearchResult",
    "SymMatrix",
    "ThresholdClass",
    "VerificationReport",
    "a_bounds",
    "a_criteria",
    "all_k_subsets",
    "bound_quantities",
    "build_model",
    "class_counts",
    "class_minima",
    "delete_blocks",
    "dual",
    "efficiencies",
    "enumerate_class",
    "errors",
    "evaluate",
    "exchange_search",
    "format_design",
    "from_blocks",
    "gls_variance",
    "intrablock",
    "invert",
    "is_connected",
    "lattice_bib",
    "low_overlap_indices",
    "mp_inverse_centered",
    "mv_criteria",
    "parse_design",
    "read_design",
    "repeat_blocks",
    "threshold_class",
    "verify_design",
    "write_design",
]
