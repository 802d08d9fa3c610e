"""The in-repo incomplete beta, checked against scipy as its oracle.

``errors.probability._beta_sf`` computes the Beta survival function
``1 - I_x(a, b)`` in pure ``math``, so no figure imports scipy.  Its
values are not bit-identical to ``scipy.special.betaincc``.  These
tests bound the difference, over generous shapes and on the shapes the
figures use, and pin the exact edges and the monotonicity that the
error curves rely on.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaincc

from repro.errors.probability import _beta_sf

#: The four ``(a, b)`` shapes that ``run all`` and ``ablation all`` evaluate.
WORKLOAD_SHAPES = [(2.0, 6.7), (5.5, 4.0), (6.2, 4.2), (6.3, 7.0)]
#: Skewed, flat and peaked shapes at the edges of the property range.
EXTREME_SHAPES = [(0.5, 0.5), (0.5, 50.0), (50.0, 0.5), (40.0, 45.0), (50.0, 50.0)]
#: Shapes outside the property range: small ones, where the Stirling
#: correction takes its direct step, and large ones, where one power
#: leaves the double range and the logarithms are combined first.
FAR_SHAPES = [(0.1, 3.0), (3.0, 0.1), (0.01, 0.01), (1000.0, 1000.0), (300.0, 2000.0)]
GRID = np.linspace(0.0, 1.0, 10_001)
#: Largest distance, in units in the last place, from ``betaincc`` on
#: the workload shapes.  The implementation measures at most 12 ulp on
#: a 20 001-point grid.
MAX_ULP = 64
#: Largest relative distance from the oracle over the property range,
#: and over :data:`FAR_SHAPES`.
MAX_REL = 1e-13
MAX_REL_FAR = 1e-12


def _oracle(x: float, a: float, b: float) -> float:
    """``betaincc``, except on the arcsine law ``a = b = 1/2``.

    There scipy 1.17 takes a special branch that loses up to ~2e-11
    relative near ``x = 0`` (``betaincc(0.5, 0.5, 4e-22)`` returns 1.0;
    the tail is ``1 - 1.27e-11``).  The closed form
    ``(2/pi) acos(sqrt(x))`` is accurate to a few ulp and stands in for it.
    """
    if a == b == 0.5:
        if x < 0.5:
            return 1.0 - math.asin(math.sqrt(x)) / (math.pi / 2)
        return math.asin(math.sqrt(1.0 - x)) / (math.pi / 2)
    return float(betaincc(a, b, x))


@settings(max_examples=400, deadline=None)
@given(
    a=st.floats(0.5, 50.0),
    b=st.floats(0.5, 50.0),
    x=st.floats(0.0, 1.0),
)
def test_relative_error_against_scipy(a, b, x):
    expected = _oracle(x, a, b)
    if expected < 1e-280:
        return
    got = float(_beta_sf(x, a, b))
    assert abs(got - expected) <= MAX_REL * expected, (got, expected)


@pytest.mark.parametrize("a, b", WORKLOAD_SHAPES)
def test_workload_shapes_within_ulp_bound(a, b):
    got = _beta_sf(GRID, a, b)
    expected = betaincc(a, b, GRID)
    ulps = np.abs(got - expected) / np.spacing(expected)
    assert ulps.max() <= MAX_ULP


@pytest.mark.parametrize("a, b", FAR_SHAPES)
def test_far_shapes_within_looser_bound(a, b):
    got = _beta_sf(GRID, a, b)
    expected = betaincc(a, b, GRID)
    keep = expected >= 1e-280
    assert np.all(np.abs(got - expected)[keep] <= MAX_REL_FAR * expected[keep])


@pytest.mark.parametrize("a, b", WORKLOAD_SHAPES + EXTREME_SHAPES)
def test_edges_are_exact(a, b):
    assert float(_beta_sf(0.0, a, b)) == 1.0
    assert float(_beta_sf(1.0, a, b)) == 0.0
    edges = _beta_sf(np.array([0.0, 1.0]), a, b)
    assert edges.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("a, b", WORKLOAD_SHAPES + EXTREME_SHAPES + FAR_SHAPES)
def test_monotone_nonincreasing(a, b):
    mean = a / (a + b)
    # The whole support, and the mean, where the evaluation switches
    # between ``I_x(a, b)`` and ``I_{1-x}(b, a)``.
    for grid in (GRID, np.linspace(mean - 1e-3, mean + 1e-3, 2_001)):
        values = _beta_sf(grid, a, b)
        assert np.all(np.diff(values) <= 0.0)
        assert np.all((values >= 0.0) & (values <= 1.0))
