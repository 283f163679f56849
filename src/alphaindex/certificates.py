"""The polynomial layer: the SK cubic, the sign polynomials f and g, the
scaling identities between the cubic and its sign certificates, and
real-root extraction.

All polynomial coefficients are stored as exact integers (per power of m,
as integer polynomials in alpha) and evaluated by Horner in floating
point, so transcription rounding cannot creep in.  ``eval_f`` and
``eval_g`` are the published quintic/cubic sign polynomials.  The f
identity ``-8(m-3)^3 p(x0) = f`` ties f to the cubic.  The printed g does
not satisfy its identity ``4 p(x1) = g`` (an erratum: the left side is
cubic in alpha with a double root at alpha = 1, g is quartic); the exact
expansion ``4 p(x1) = -(1-a)^2 h(a, m) / 2`` is kept as its own table,
``eval_g_derived``.  The identity checks evaluate both routes
independently and report the relative error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

IDENTITY_RTOL = 1e-9
ROOT_WIDTH = 1e-13
# The f/g grid: odd m in 9..99, alpha 0.50..0.99 step 0.01 (50 points).
GRID_M = (9, 99)
GRID_ALPHA = ("0.50", "0.99", "0.01")
MAX_ALPHA_POINTS = 100_000

# f(alpha, m): coefficients of m^5 .. m^0, each an integer polynomial in
# alpha with coefficients listed by ascending power of alpha.
_F_COEFFS = (
    (0, 4, -12, 10),            # m^5: 2(5a^3 - 6a^2 + 2a)
    (8, -120, 312, -246),       # m^4: -2(123a^3 - 156a^2 + 60a - 4)
    (-80, 1016, -2600, 2068),   # m^3: 4(517a^3 - 650a^2 + 254a - 20)
    (64, -2656, 8032, -7132),   # m^2: -4(1783a^3 - 2008a^2 + 664a - 16)
    (272, 2404, -10028, 10754), # m^1: 2(5377a^3 - 5014a^2 + 1202a + 136)
    (-392, -456, 4104, -5902),  # m^0: -2(2951a^3 - 2052a^2 + 228a + 196)
)

# g(alpha, m): coefficients of m^3 .. m^0.
_G_COEFFS = (
    (1, 0, -9, 6, 2),           # m^3: 2a^4 + 6a^3 - 9a^2 + 1
    (0, 1, -34, 9, 8),          # m^2: 8a^4 + 9a^3 - 34a^2 + a
    (-28, -40, 270, -308, -70), # m^1: -2(35a^4 + 154a^3 - 135a^2 + 20a + 14)
    (64, 84, -548, 316, -300),  # m^0: -4(75a^4 - 79a^3 + 137a^2 - 21a - 16)
)

# (1-a)^2 h(alpha, m): coefficients of m^3 .. m^0, where
# h = (2a-1)m^3 - (23a-12)m^2 + (82a-44)m - (96a-56) comes from expanding
# 4 p(x1) exactly: 4 p(x1) = -(1-a)^2 h / 2.
_G_DERIVED_COEFFS = (
    (-1, 4, -5, 2),             # m^3: (1-a)^2 (2a - 1)
    (12, -47, 58, -23),         # m^2: -(1-a)^2 (23a - 12)
    (-44, 170, -208, 82),       # m^1: (1-a)^2 (82a - 44)
    (56, -208, 248, -96),       # m^0: -(1-a)^2 (96a - 56)
)


def _poly(coeffs: Sequence[int], x: float) -> float:
    value = 0.0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _table(table: Sequence[Sequence[int]], alpha: float, m: float) -> float:
    value = 0.0
    for coeffs in table:
        value = value * m + _poly(coeffs, alpha)
    return value


def eval_f(alpha: float, m: float) -> float:
    """Quintic-in-m sign polynomial; positive for m >= 9, alpha in [1/2, 1)."""
    return _table(_F_COEFFS, alpha, m)


def eval_g(alpha: float, m: float) -> float:
    """Cubic-in-m sign polynomial as printed; negative for m >= 9, alpha in
    [1/2, 1).  It is a valid sign certificate but not 4 p(x1): that
    identity fails (see ``eval_g_derived``)."""
    return _table(_G_COEFFS, alpha, m)


def eval_g_derived(alpha: float, m: float) -> float:
    """-(1-alpha)^2 h(alpha, m) / 2, the exact expansion of 4 p(x1)."""
    return -0.5 * _table(_G_DERIVED_COEFFS, alpha, m)


def f_at_m9_factored(alpha: float) -> float:
    """Endpoint form f(alpha, 9) = -64(43a^3 - 117a^2 + 69a - 22)."""
    return -64.0 * _poly((-22, 69, -117, 43), alpha)


@dataclass(frozen=True)
class Cubic:
    """Monic cubic x^3 + c2 x^2 + c1 x + c0."""

    c2: float
    c1: float
    c0: float

    def evaluate(self, x: float) -> float:
        return ((x + self.c2) * x + self.c1) * x + self.c0


def sk_cubic(m: int, alpha: float) -> Cubic:
    """Characteristic cubic of the subdivided-K_{2,(m-1)/2} quotient.

    rho_alpha of that graph is the largest root.  The half-integer
    coefficients are assembled from doubled integers so the only rounding
    is the final division by two.
    """
    if m % 2 == 0:
        raise ValueError(f"the SK cubic is defined for odd sizes, got m = {m}")
    if m < 5:
        raise ValueError(f"the SK cubic needs m >= 5, got m = {m}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    c2 = -((m + 5) * alpha / 2.0 + 1.0)
    c1 = (m + 5) * alpha * alpha / 2.0 + 5.0 * (m - 1) * alpha / 2.0 + 2.0 - m
    c0 = -2.0 * m * alpha * alpha - (m - 5) * alpha + (m - 3.0)
    return Cubic(c2, c1, c0)


def largest_real_root(cubic: Cubic) -> float:
    """Maximal real root by bisection of the one bracket that holds it.

    Every real root lies in [-bound, bound] (Cauchy).  Right of the larger
    critical point c_hi the cubic increases, so f(c_hi) < 0 puts the
    largest root in [c_hi, bound], and f(c_hi) = 0 makes c_hi a double
    root and the answer.  f(c_hi) > 0 leaves no root right of the smaller
    critical point c_lo (the middle piece decreases to f(c_hi)), so the
    only one lies in [-bound, c_lo].  With no critical point the cubic is
    increasing on [-bound, bound].  The bracket is bisected to width
    1e-13; bisection is authoritative and no Newton polish is applied.
    """
    bound = 1.0 + max(abs(cubic.c2), abs(cubic.c1), abs(cubic.c0))
    lo, hi = -bound, bound
    disc = cubic.c2 * cubic.c2 - 3.0 * cubic.c1
    if disc > 0.0:
        r = disc**0.5
        c_hi = (-cubic.c2 + r) / 3.0
        f_hi = cubic.evaluate(c_hi)
        if f_hi == 0.0:
            return c_hi
        if f_hi < 0.0:
            lo = c_hi
        else:
            hi = (-cubic.c2 - r) / 3.0
    while hi - lo > ROOT_WIDTH * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        fmid = cubic.evaluate(mid)
        if fmid == 0.0:
            return mid
        if fmid > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def f_identity_lhs(alpha: float, m: int) -> float:
    """-8(m-3)^3 * p(x0) at x0 = (m-3)/2*alpha + 2(1-alpha)(m-1)/(m-3)."""
    if m == 3:
        raise ValueError("the f identity evaluation point divides by m - 3")
    x0 = (m - 3) * alpha / 2.0 + 2.0 * (1.0 - alpha) * (m - 1) / (m - 3)
    return -8.0 * (m - 3) ** 3 * sk_cubic(m, alpha).evaluate(x0)


def g_identity_lhs(alpha: float, m: int) -> float:
    """4 * p(x1) at x1 = 2*alpha + (1-alpha)(m-2)/2."""
    x1 = 2.0 * alpha + (1.0 - alpha) * (m - 2) / 2.0
    return 4.0 * sk_cubic(m, alpha).evaluate(x1)


def _relative_error(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def identity_check_f(alpha: float, m: int) -> float:
    """Relative error |lhs - f(alpha, m)| / max(1, |f(alpha, m)|)."""
    return _relative_error(f_identity_lhs(alpha, m), eval_f(alpha, m))


def identity_check_g(alpha: float, m: int) -> float:
    """Relative error |lhs - g(alpha, m)| / max(1, |g(alpha, m)|) for the
    printed g; large, since the printed identity is false."""
    return _relative_error(g_identity_lhs(alpha, m), eval_g(alpha, m))


def identity_check_g_derived(alpha: float, m: int) -> float:
    """Relative error of 4 p(x1) against -(1-alpha)^2 h(alpha, m) / 2."""
    return _relative_error(g_identity_lhs(alpha, m), eval_g_derived(alpha, m))


def grid_points(
    evaluate: Callable[[float, int], float],
    m_values: Sequence[int],
    alphas: Sequence[str],
) -> list[tuple[int, str, float]]:
    """``(m, alpha, evaluate(alpha, m))`` at every grid point, m outer, with
    alpha the decimal string it was given as.

    An empty grid checks nothing, so it must not read as a pass, and a value
    that is not finite (NaN compares false) is past what floats can check,
    as is an m past the largest float, which is refused before any point.
    """
    if not m_values or not alphas:
        raise ValueError(f"empty grid: {len(m_values)} m values and {len(alphas)} alphas")
    for m in m_values:
        if abs(m) > sys.float_info.max:
            raise ValueError(f"grid value m={m} is past float range")
    points = [(m, s, evaluate(float(s), m)) for m in m_values for s in alphas]
    for m, s, value in points:
        if not math.isfinite(value):
            raise ValueError(f"grid point m={m}, alpha={s} evaluates to {value}, past float range")
    return points


def sign_grid(
    polynomial: str,
    m_values: Sequence[int],
    alphas: Sequence[str],
) -> tuple[float, list[tuple[int, str, float]]]:
    """Evaluate f (must be > 0) or g (must be < 0) on a grid, m outer.

    The grid must sit inside the claimed region m >= 9, alpha in [1/2, 1).
    Returns the least |value| and the ``(m, alpha, value)`` points of the
    wrong sign, in grid order, with alpha the decimal string it was given as.
    """
    if polynomial not in ("f", "g"):
        raise ValueError(f"unknown sign polynomial {polynomial!r}")
    # An empty grid is refused before the region checks, so that a grid both
    # empty and out of region is reported as empty.
    points = grid_points(eval_f if polynomial == "f" else eval_g, m_values, alphas)
    for m in m_values:
        if m < 9:
            raise ValueError(f"sign grid needs m >= 9, got {m}")
    for s in alphas:
        if not 0.5 <= float(s) < 1.0:
            raise ValueError(f"sign grid needs alpha in [1/2, 1), got {s}")
    want_positive = polynomial == "f"
    min_abs = min(abs(value) for _, _, value in points)
    return min_abs, [p for p in points if (p[2] > 0.0) != want_positive or p[2] == 0.0]


def identity_grid(
    check: Callable[[float, int], float],
    m_values: Sequence[int],
    alphas: Sequence[str],
) -> tuple[float, list[tuple[int, str, float]]]:
    """Run an identity check over a grid, m outer and alpha inner.

    Returns the worst relative error and the ``(m, alpha, error)`` points
    whose error exceeds ``IDENTITY_RTOL``, in grid order.
    """
    points = grid_points(check, m_values, alphas)
    worst = max(0.0, *(err for _, _, err in points))
    return worst, [p for p in points if p[2] > IDENTITY_RTOL]


def odd_range(start: int, stop: int) -> list[int]:
    """Odd integers in [start, stop], for grid construction."""
    first = start if start % 2 == 1 else start + 1
    return list(range(first, stop + 1, 2))


def alpha_grid(start: str, stop: str, step: str) -> list[str]:
    """Decimal-string alpha grid; strings keep report output reproducible."""
    from decimal import Decimal, InvalidOperation, Overflow

    try:
        lo, hi, delta = Decimal(start), Decimal(stop), Decimal(step)
        finite = all(d.is_finite() for d in (lo, hi, delta))
    except InvalidOperation:
        finite = False
    if not finite:
        raise ValueError(
            f"alpha grid needs finite decimals, got {start!r}, {stop!r}, step {step!r}"
        )
    if delta <= 0:
        raise ValueError(f"alpha grid step must be positive, got {step!r}")
    try:
        if (hi - lo) / delta >= MAX_ALPHA_POINTS:
            raise ValueError(
                f"alpha grid {start}..{stop} step {step} has more than {MAX_ALPHA_POINTS} points"
            )
        out = []
        value = lo
        while value <= hi:
            out.append(str(value))
            value += delta
    except Overflow:
        raise ValueError(
            f"alpha grid {start}..{stop} step {step} overflows decimal arithmetic"
        ) from None
    return out
