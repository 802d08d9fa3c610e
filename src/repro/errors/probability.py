"""Error-probability functions ``err(r)``.

The paper's system model (Section 4.1) abstracts each thread's timing
behaviour into a single function: the probability that an instruction
suffers a timing error when the core runs at timing-speculation ratio
``r`` (clock period = ``r`` x nominal).  ``err`` is non-increasing in
``r``: a longer clock period can only reduce errors.

Three concrete families are provided:

* :class:`BetaTailErrorFunction` -- survival function of a Beta-shaped
  sensitised-delay distribution; the parametric form used by the
  calibrated SPLASH-2 workload profiles.  The tail is a regularized
  incomplete beta computed here in pure ``math`` (:func:`_beta_tail`),
  so no error curve imports scipy.
* :class:`TabulatedErrorFunction` -- monotone piecewise-linear
  interpolation of ``(r, p)`` samples; produced by the online sampling
  estimator and by circuit-level characterisation.
* :class:`EmpiricalErrorFunction` -- exact empirical tail of a raw
  sensitised-delay sample array from the logic simulator.

All are plain callables ``err(r) -> p`` that also accept numpy arrays.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "ErrorFunction",
    "BetaTailErrorFunction",
    "TabulatedErrorFunction",
    "EmpiricalErrorFunction",
    "ZeroErrorFunction",
    "check_monotone_nonincreasing",
    "clear_curve_cache",
]


#: ``B_2k / (2k (2k - 1))`` for k = 1..10: the coefficients of Stirling's
#: series for ``ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2)`` in
#: odd powers of ``1/z``.  At ``z >= 8`` the first omitted term is below
#: 2e-18.
_STIRLING = (
    1 / 12,
    -1 / 360,
    1 / 1260,
    -1 / 1680,
    1 / 1188,
    -691 / 360360,
    1 / 156,
    -3617 / 122400,
    43867 / 244188,
    -174611 / 125400,
)
_EPS = sys.float_info.epsilon
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
#: Veltkamp's splitter ``2**27 + 1`` (exact products, :func:`_ratio`).
_SPLITTER = 134217729.0
#: Stand-in for an exact zero in Lentz's method.
_TINY = 1e-300
#: The continued fraction converges in O(sqrt(max(a, b))) steps.
_MAX_TERMS = 100_000


def _stirling_error(z: float) -> float:
    """``ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2)`` for ``z > 0``.

    Stirling's series is summed at ``z >= 8``.  Below that the
    recurrence ``e(z) = e(z + 1) + (z + 1/2) ln(1 + 1/z) - 1`` moves
    ``z`` up.  Each step is summed as ``t^2/3 + t^4/5 + ...`` with
    ``t = 1 / (2z + 1)``, which is the same quantity with nothing left
    to cancel.  That keeps the absolute error at a few ulp of ``e``.
    """
    shift = 0.0
    while z < 8.0:
        if z < 0.5:  # t > 1/2 would converge slowly; this step cannot cancel
            shift += (z + 0.5) * math.log1p(1.0 / z) - 1.0
        else:
            t2 = (2.0 * z + 1.0) ** -2
            power, k = t2, 3.0
            step = t2 / 3.0
            while power > _EPS * step:
                power *= t2
                k += 2.0
                step += power / k
            shift += step
        z += 1.0
    w = 1.0 / (z * z)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * w + c
    return series / z + shift


def _beta_scale(a: float, b: float) -> tuple:
    """``(K, x0, y0)`` with ``x0 = a/(a+b)``, ``y0 = 1 - x0`` and
    ``K = x0^a y0^b / B(a, b)``.

    Stirling's formula, written with :func:`_stirling_error` so that it
    is exact, gives ``K = sqrt(ab / (2 pi (a+b))) exp(-e(a) - e(b) +
    e(a+b))``: the large ``ln Gamma`` terms cancel analytically, not in
    floating point.  ``y0`` is exactly ``1 - x0``: ``x0^a y0^b`` is
    stationary there, so the rounding of ``x0`` cancels to first order
    from the prefix of :func:`_beta_tail`.
    """
    c = a + b
    if a >= b:
        x0 = a / c
        y0 = 1.0 - x0
    else:
        y0 = b / c
        x0 = 1.0 - y0
    corr = _stirling_error(a) + _stirling_error(b) - _stirling_error(c)
    return _INV_SQRT_2PI * math.sqrt(a * b / c) * math.exp(-corr), x0, y0


def _ratio(n: float, d: float) -> tuple:
    """``r = fl(n / d)`` and ``delta`` with ``n / d = r (1 + delta)``.

    ``delta`` is exact to first order: Dekker's product gives
    ``r * d`` without rounding.  A power ``r^a`` would otherwise carry
    ``a`` times the rounding of ``r``.
    """
    r = n / d
    prod = r * d
    c = _SPLITTER * r
    rh = c - (c - r)
    rl = r - rh
    c = _SPLITTER * d
    dh = c - (c - d)
    dl = d - dh
    err = ((rh * dh - prod) + rh * dl + rl * dh) + rl * dl
    return r, ((n - prod) - err) / n


def _power_pair(rx: float, a: float, ry: float, b: float) -> float:
    """``rx^a ry^b``, a product at most 1 by construction.

    ``pow`` is accurate to an ulp, however large the exponent.  For
    shapes above a few hundred one factor can leave the normal range
    while the product has not; then the logarithms are combined
    first, at a relative cost of ~``|ln(rx^a ry^b)|`` ulp.
    """
    try:
        fx, fy = math.pow(rx, a), math.pow(ry, b)
    except OverflowError:
        fx = fy = 0.0
    if min(fx, fy) >= sys.float_info.min:
        return fx * fy
    return math.exp(a * math.log(rx) + b * math.log(ry))


def _ibeta_divisor(u: float, v: float, p: float, q: float) -> float:
    """``d`` with ``I_u(p, q) = u^p v^q / (B(p, q) d)``, ``v = 1 - u``.

    For ``u`` at or below the mean ``p / (p + q)``, where both forms
    converge.  Small ``u`` sums the power series ``I = u^p v^q / (p
    B) * sum_n (p+q)_n / (p+1)_n u^n``: every term is positive, the
    ratio of consecutive terms starts at most 1/2, and ``fsum`` adds
    them without rounding.  Otherwise Lentz's method evaluates the
    even part of the classical continued fraction (the form DiDonato
    and Morris's ``bfrac`` uses) until it converges.
    """
    pq = p + q
    if pq * u <= 0.5 * (p + 1.0):
        term = 1.0
        terms = [term]
        n = 0.0
        while term > 0.5 * _EPS:
            term *= (pq + n) * u / (p + 1.0 + n)
            terms.append(term)
            n += 1.0
        return p / math.fsum(terms)
    shift = p * v - q * u + 1.0
    b0 = p * shift / (p + 1.0)
    f = c = b0
    d = 0.0
    for m in range(1, _MAX_TERMS):
        den = p + 2.0 * m - 1.0
        an = (p + m - 1.0) * (pq + m - 1.0) * m * (q - m) * u * u / (den * den)
        bn = m + m * (q - m) * u / den + (p + m) * (shift + m * (2.0 - u)) / (den + 2.0)
        d = 1.0 / (bn + an * d or _TINY)
        c = bn + an / c or _TINY
        f *= c * d
        if abs(c * d - 1.0) <= _EPS:
            return f
    raise ArithmeticError(f"incomplete beta: no convergence at {u!r}, {p!r}, {q!r}")


def _beta_tail(x: float, a: float, b: float, scale: tuple) -> float:
    """``1 - I_x(a, b)`` for one ``x``; ``scale`` is ``_beta_scale(a, b)``.

    The prefix ``x^a y^b / B(a, b)`` is ``K (x/x0)^a (y/y0)^b``
    (DiDonato & Morris, ACM TOMS 18, 1992, Algorithm 708, ``brcomp``):
    ``K`` comes from :func:`_beta_scale`, the product of the powers
    is at most 1, and :func:`_ratio` and the exact residual of ``y =
    1 - x`` correct both powers to first order.  Above the mean the
    tail is the small side and equals ``I_y(b, a)``, computed
    directly.  At or below the mean ``1 - I_x(a, b)`` is at least
    ~0.3 for ``a >= 1/2``, so the subtraction costs at most a few ulp.
    """
    if x <= 0.0:
        return 1.0
    if x >= 1.0:
        return 0.0
    k, x0, y0 = scale
    y = 1.0 - x
    rx, dx = _ratio(x, x0)
    ry, dy = _ratio(y, y0)
    dy += ((1.0 - y) - x) / y  # 1 - x == y + ((1 - y) - x), exactly
    prefix = k * _power_pair(rx, a, ry, b) * (1.0 + a * dx + b * dy)
    # (a + b) (x0 - x), from the side that does not cancel
    lam = (a + b) * y - b if a > b else a - (a + b) * x
    if lam < 0.0:
        return prefix / _ibeta_divisor(y, x, b, a)
    return 1.0 - prefix / _ibeta_divisor(x, y, a, b)


def _beta_sf(x, a, b):
    """Survival function of Beta(a, b), evaluated elementwise.

    A scalar, pure-``math`` regularized incomplete beta
    (:func:`_beta_tail`), so that evaluating an error curve imports no
    scipy.  ``run all`` and ``ablation all`` evaluate 320 distinct
    points over four shapes, so a loop over the array costs a few
    milliseconds where the ``scipy.special`` import took ~0.3 s.
    Values agree with ``scipy.special.betaincc`` to a tested bound
    (``tests/errors/test_beta_tail_accuracy.py``), not bit for bit.
    """
    a, b = float(a), float(b)
    scale = _beta_scale(a, b)
    grid = np.asarray(x, dtype=float)
    out = [_beta_tail(v, a, b, scale) for v in grid.ravel().tolist()]
    return np.asarray(out, dtype=float).reshape(grid.shape)


@lru_cache(maxsize=4096)
def _beta_curve_cached(
    err: "BetaTailErrorFunction", ratios: tuple
) -> np.ndarray:
    return np.asarray(err(np.asarray(ratios, dtype=float)), dtype=float)


def clear_curve_cache() -> None:
    """Drop memoised Beta-tail curves (cold-timing harnesses)."""
    _beta_curve_cached.cache_clear()


class ErrorFunction:
    """Base class: a non-increasing map from TSR ``r`` to probability."""

    def __call__(self, r):
        raise NotImplementedError

    def curve(self, ratios: Sequence[float]) -> np.ndarray:
        """Vector of probabilities over a ratio grid.

        Evaluated as one array call (every in-repo family is
        elementwise, so this is bit-identical to the historical scalar
        loop); callables that only support scalars fall back to the
        loop transparently.
        """
        grid = np.asarray(ratios, dtype=float)
        try:
            out = np.asarray(self(grid), dtype=float)
        except Exception:
            out = None
        if out is None or out.shape != grid.shape:
            return np.asarray([float(self(float(r))) for r in grid])
        return out


@dataclass(frozen=True)
class ZeroErrorFunction(ErrorFunction):
    """A thread that never errs (e.g. r = 1 operation by definition)."""

    def __call__(self, r):
        return np.zeros_like(np.asarray(r, dtype=float)) if np.ndim(r) else 0.0


@dataclass(frozen=True)
class BetaTailErrorFunction(ErrorFunction):
    """``err(r) = scale_p * P[D > r]`` for Beta-distributed delay D.

    The normalised sensitised delay is modelled as
    ``D ~ lo + (hi - lo) * Beta(a, b)``: delays live in ``[lo, hi]``
    with ``hi <= 1`` (the STA critical path bounds every sensitised
    path).  ``scale_p`` accounts for the fraction of instructions that
    exercise the stage at all (an instruction that doesn't toggle the
    stage cannot err in it).

    Attributes
    ----------
    a, b:
        Beta shape parameters; larger ``b/a`` pushes mass toward
        ``lo`` (short typical paths, rare long ones).
    lo, hi:
        Support of the normalised delay distribution.
    scale_p:
        Activity factor in ``(0, 1]``.
    """

    a: float
    b: float
    lo: float = 0.0
    hi: float = 1.0
    scale_p: float = 1.0

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("Beta shape parameters must be positive")
        if not (0.0 <= self.lo < self.hi <= 1.0 + 1e-12):
            raise ValueError(f"invalid support [{self.lo}, {self.hi}]")
        if not (0.0 < self.scale_p <= 1.0):
            raise ValueError("scale_p must be in (0, 1]")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        x = (r - self.lo) / (self.hi - self.lo)
        p = self.scale_p * _beta_sf(np.clip(x, 0.0, 1.0), self.a, self.b)
        p = np.where(r >= self.hi, 0.0, p)
        p = np.where(r <= self.lo, self.scale_p, p)
        return float(p) if p.ndim == 0 else p

    def curve(self, ratios: Sequence[float]) -> np.ndarray:
        """Memoised grid evaluation.

        The parameters are frozen, so ``(self, grid)`` fully
        determines the curve; every barrier interval of a benchmark
        stage shares its threads' error functions, and the solvers
        query the same TSR grid over and over -- caching here turns
        the per-problem Beta tail into a dictionary lookup.
        """
        key = tuple(float(r) for r in ratios)
        return _beta_curve_cached(self, key).copy()

    def sample_delays(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw sensitised-delay samples consistent with this tail.

        A delay is drawn from the Beta body with probability
        ``scale_p``; otherwise the instruction does not exercise the
        stage and its delay is ``lo`` (can never err above ``lo``).
        """
        body = self.lo + (self.hi - self.lo) * rng.beta(self.a, self.b, size=n)
        active = rng.random(n) < self.scale_p
        return np.where(active, body, self.lo)


class TabulatedErrorFunction(ErrorFunction):
    """Monotone piecewise-linear interpolation of ``(r, p)`` points.

    Non-increasing monotonicity is *enforced* at construction (points
    violating it raise unless ``project=True``, in which case they are
    isotonically projected -- the behaviour the online estimator
    relies on).  Queries outside the tabulated range clamp to the end
    values.
    """

    def __init__(
        self,
        ratios: Sequence[float],
        probs: Sequence[float],
        project: bool = False,
    ):
        r = np.asarray(ratios, dtype=float)
        p = np.asarray(probs, dtype=float)
        if r.ndim != 1 or r.shape != p.shape or len(r) < 2:
            raise ValueError("need matching 1-D arrays of >= 2 points")
        order = np.argsort(r)
        r, p = r[order], p[order]
        if np.any(np.diff(r) <= 0):
            raise ValueError("ratios must be distinct")
        if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        p = np.clip(p, 0.0, 1.0)
        if np.any(np.diff(p) > 1e-12):
            if not project:
                raise ValueError(
                    "error probabilities must be non-increasing in r "
                    "(pass project=True to isotonically project)"
                )
            from .fitting import isotonic_nonincreasing

            p = isotonic_nonincreasing(p)
        self._r = r
        self._p = p

    @property
    def ratios(self) -> np.ndarray:
        return self._r.copy()

    @property
    def probs(self) -> np.ndarray:
        return self._p.copy()

    def __call__(self, r):
        out = np.interp(np.asarray(r, dtype=float), self._r, self._p)
        return float(out) if out.ndim == 0 else out


class EmpiricalErrorFunction(ErrorFunction):
    """Exact tail of a raw sensitised-delay sample array.

    ``err(r)`` is the fraction of samples strictly above ``r`` --
    automatically non-increasing, no fitting involved.  This is the
    function the cross-layer characterisation produces.
    """

    def __init__(self, normalized_delays: Sequence[float]):
        d = np.sort(np.asarray(normalized_delays, dtype=float))
        if d.ndim != 1 or len(d) == 0:
            raise ValueError("need a non-empty 1-D delay sample array")
        if d[0] < -1e-12:
            raise ValueError("normalised delays must be non-negative")
        self._sorted = d

    @property
    def n_samples(self) -> int:
        return len(self._sorted)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        idx = np.searchsorted(self._sorted, r, side="right")
        out = 1.0 - idx / len(self._sorted)
        return float(out) if out.ndim == 0 else out


def check_monotone_nonincreasing(
    err: ErrorFunction, ratios: Sequence[float], tol: float = 1e-9
) -> bool:
    """True iff ``err`` is non-increasing over the given grid."""
    values = err.curve(ratios)
    order = np.argsort(np.asarray(ratios, dtype=float))
    values = values[order]
    return bool(np.all(np.diff(values) <= tol))
