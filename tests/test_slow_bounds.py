"""Exhaustive check of the design-independent lower bounds on classes of
10^5-10^6 designs. Deselected by default; run with `pytest -m slow`."""

import functools
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


# float.hex minima and argmin blocks at s=1, captured from the per-design
# exact confirm (one evaluate(d, aug) per admitted design)
PINNED_S1 = {
    (6, 4, 3): {
        "a_cc": ("0x1.04e04e04e04e3p-1", ((1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 2, 4), (1, 3, 4), (2, 3, 4))),
        "a_tt": ("0x1.5bdcacb9ba8aap+1", ((1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 2, 4), (1, 3, 4), (2, 3, 4))),
        "a_ct": ("0x1.8be2be2be2be4p+0", ((1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 2, 4), (1, 3, 4), (2, 3, 4))),
        "mv_cc": ("0x1.3333333333334p-1", ((1, 1, 2), (1, 1, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (2, 3, 4))),
        "mv_tt": ("0x1.5dddddddddddep+1", ((1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 2, 4), (1, 3, 4), (1, 3, 4))),
        "mv_ct": ("0x1.b60b60b60b60cp+0", ((1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 2, 4), (1, 3, 4), (2, 3, 4))),
    },
    (7, 4, 3): {
        "a_cc": ("0x1.bb13b13b13b13p-2", ((1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 2, 4), (1, 3, 4), (1, 3, 4), (2, 3, 4))),
        "a_tt": ("0x1.5ab9ab9ab9ab9p+1", ((1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 2, 4), (1, 3, 4), (1, 3, 4), (2, 3, 4))),
        "a_ct": ("0x1.8393393393393p+0", ((1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 2, 4), (1, 3, 4), (1, 3, 4), (2, 3, 4))),
        "mv_cc": ("0x1.d89d89d89d89fp-2", ((1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 2, 4), (1, 3, 4), (1, 3, 4), (2, 3, 4))),
        "mv_tt": ("0x1.5be5be5be5be6p+1", ((1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 2, 4), (1, 3, 4), (1, 3, 4), (2, 3, 4))),
        "mv_ct": ("0x1.a276276276277p+0", ((1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 2, 4), (1, 3, 4), (1, 3, 4), (2, 3, 4))),
    },
    (5, 5, 3): {
        "a_cc": ("0x1.a2e8ba2e8ba2cp-1", ((1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5))),
        "a_tt": ("0x1.6820202020201p+1", ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (3, 4, 5))),
        "a_ct": ("0x1.b8a15b8a15b89p+0", ((1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5))),
        "mv_cc": ("0x1.bed61bed61bedp-1", ((1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5))),
        "mv_tt": ("0x1.6fb586fb586fbp+1", ((1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5))),
        "mv_ct": ("0x1.e72cfe72cfe72p+0", ((1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5))),
    },
}


@functools.cache
def minima(cls, spec):
    return class_minima(*cls, SPECS[spec](cls[0]))


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("cls", [(6, 4, 3), (7, 4, 3), (5, 5, 3)], ids=lambda c: "-".join(map(str, c)))
def test_bounds_hold_on_every_connected_design(cls, spec):
    b, v, k = cls
    aug = SPECS[spec](b)
    result = minima(cls, spec)
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


@pytest.mark.parametrize("cls", PINNED_S1, ids=lambda c: "-".join(map(str, c)))
def test_minima_and_argmins_pinned_bit_for_bit(cls):
    result = minima(cls, "1")
    got = {name: (result.minima[name].hex(), result.argmin[name].blocks) for name in CRITERION_NAMES}
    assert got == PINNED_S1[cls]
