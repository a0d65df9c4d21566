"""Exhaustive check of the design-independent lower bounds on classes of
10^5-10^6 designs. Deselected by default; run with `pytest -m slow`."""

import math

import pytest

from augdes.bounds import a_bounds
from augdes.design import AugmentationSpec
from augdes.oracle import CRITERION_NAMES, class_minima

pytestmark = pytest.mark.slow


SPECS = {
    "1": lambda b: AugmentationSpec.common(1),
    "3": lambda b: AugmentationSpec.common(3),
    "per_block": lambda b: AugmentationSpec.per_block(tuple(1 + j % 3 for j in range(b))),
}


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("cls", [(6, 4, 3), (7, 4, 3), (5, 5, 3)], ids=lambda c: "-".join(map(str, c)))
def test_bounds_hold_on_every_connected_design(cls, spec):
    b, v, k = cls
    aug = SPECS[spec](b)
    result = class_minima(b, v, k, aug)
    assert result.n_designs == math.comb(math.comb(v + k - 1, k) + b - 1, b)
    assert result.n_connected > 0
    # the MV-criteria are bounded by the A-bounds at one test per block
    bounds = a_bounds(b, v, k, aug) + a_bounds(b, v, k, AugmentationSpec.common(1))
    ratios = {}
    for name, bound in zip(CRITERION_NAMES, bounds):
        assert result.minima[name] >= bound - 1e-9, name
        ratios[name] = bound / result.minima[name]
    tightest = max(ratios, key=ratios.get)
    print(f"({b},{v},{k}) s={aug.describe()}: {result.n_connected} of {result.n_designs} connected, "
          f"tightest bound/minimum {ratios[tightest]:.6f} ({tightest})")
