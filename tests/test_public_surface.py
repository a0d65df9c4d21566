"""The names other code binds: the package's `__all__`, and every target of
the benchmark's span tracer, which rebinds functions by name and fails
when one is gone."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import augdes

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

PUBLIC = {
    "AugmentationSpec", "AugmentedModel", "BlockDesign", "BoundQuantities", "ClassMinima",
    "CriteriaReport", "EfficiencyReport", "Intrablock", "SearchConfig", "SearchResult",
    "SymMatrix", "ThresholdClass", "VerificationReport", "a_bounds", "a_criteria",
    "all_k_subsets", "bound_quantities", "build_model", "class_counts", "class_minima",
    "delete_blocks", "dual", "efficiencies", "enumerate_class", "errors", "evaluate",
    "exchange_search", "format_design", "from_blocks", "gls_variance", "intrablock", "invert",
    "is_connected", "lattice_bib", "low_overlap_indices", "mp_inverse_centered", "mv_criteria",
    "parse_design", "read_design", "repeat_blocks", "threshold_class", "verify_design",
    "write_design",
}


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _tracer_targets(), ids=lambda t: f"{t[0]}.{t[1]}")
def test_tracer_target_resolves(target):
    module_name, attr = target[:2]
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_all_is_pinned():
    assert sorted(augdes.__all__) == sorted(PUBLIC)
    for name in augdes.__all__:
        assert getattr(augdes, name) is not None
