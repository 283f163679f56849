import math
import random

import numpy as np
import pytest

from alphaindex.certificates import (
    MAX_ALPHA_POINTS,
    Cubic,
    alpha_grid,
    eval_f,
    eval_g,
    eval_g_derived,
    f_at_m9_factored,
    f_identity_lhs,
    g_identity_lhs,
    grid_points,
    identity_check_f,
    identity_check_g,
    identity_check_g_derived,
    identity_grid,
    largest_real_root,
    odd_range,
    sign_grid,
    sk_cubic,
)
from alphaindex.spectral import alpha_index
from alphaindex.families import subdivided_k2


def test_sk_cubic_m9_half():
    c = sk_cubic(9, 0.5)
    assert (c.c2, c.c1, c.c0) == (-4.5, 4.75, -0.5)


def test_sk_cubic_alpha_one_degenerates_to_degrees():
    # At alpha = 1 the matrix is the degree diagonal; the quotient cubic
    # factors as (x-2)^2 (x-4) and its largest root is the SK max degree.
    c = sk_cubic(9, 1.0)
    assert (c.c2, c.c1, c.c0) == (-8.0, 20.0, -16.0)
    assert abs(largest_real_root(c) - 4.0) < 1e-12


def test_sk_cubic_even_size_rejected():
    with pytest.raises(ValueError):
        sk_cubic(8, 0.5)
    with pytest.raises(ValueError):
        sk_cubic(3, 0.5)
    with pytest.raises(ValueError):
        sk_cubic(9, 1.5)


def test_largest_root_factored_products():
    # (x-1)(x-3)(x-4): f(c_hi) < 0, the root lies right of c_hi.
    assert abs(largest_real_root(Cubic(-8.0, 19.0, -12.0)) - 4.0) < 1e-12
    assert abs(largest_real_root(Cubic(0.0, 0.0, 0.0))) < 1e-12
    # Even-multiplicity largest root: (x-1)(x-3)^2, f(c_hi) == 0 at c_hi = 3.
    assert abs(largest_real_root(Cubic(-7.0, 15.0, -9.0)) - 3.0) < 1e-12


def test_largest_root_without_critical_point():
    # x^3 + x - 2 = (x-1)(x^2+x+2) is increasing everywhere.
    assert abs(largest_real_root(Cubic(0.0, 1.0, -2.0)) - 1.0) < 1e-12


def test_largest_root_left_of_both_critical_points():
    # (x+2)(x^2+1) = x^3 + 2x^2 + x + 2: f(c_hi) > 0, the one real root is left of c_lo.
    assert abs(largest_real_root(Cubic(2.0, 1.0, 2.0)) - (-2.0)) < 1e-12


def test_largest_root_matches_numpy_roots():
    # Independent oracle: companion-matrix roots of seeded monic cubics
    # whose real roots are at least 0.5 apart (or single, with a complex pair).
    rng = random.Random(1717)
    for _ in range(300):
        if rng.random() < 0.5:
            roots = sorted(rng.uniform(-20.0, 20.0) for _ in range(3))
            if min(b - a for a, b in zip(roots, roots[1:])) < 0.5:
                continue
            coeffs = np.poly(roots)
        else:
            re, im = rng.uniform(-20.0, 20.0), rng.uniform(0.5, 10.0)
            coeffs = np.polymul([1.0, -rng.uniform(-20.0, 20.0)], [1.0, -2.0 * re, re * re + im * im])
        cubic = Cubic(*map(float, coeffs[1:]))
        expected = max(r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-9)
        assert abs(largest_real_root(cubic) - expected) <= 1e-9 * max(1.0, abs(expected))


def test_largest_root_matches_eigensolver():
    for m in (9, 11, 13):
        g = subdivided_k2((m - 1) // 2)
        for a in (0.5, 0.75, 0.9):
            root = largest_real_root(sk_cubic(m, a))
            assert abs(root - alpha_index(g, a).rho) <= 1e-9


def test_f_anchor_half_nine():
    assert abs(eval_f(0.5, 9) - 728.0) <= 1e-9 * 728.0
    assert eval_f(0.5, 9) == 728.0


def test_g_anchor_half_nine():
    assert abs(eval_g(0.5, 9) - (-1010.375)) <= 1e-9 * 1010.375
    assert eval_g(0.5, 9) == -1010.375


def test_f_alpha_zero_polynomial():
    for m in (5, 9, 13, 20):
        expected = 8 * m**4 - 80 * m**3 + 64 * m**2 + 272 * m - 392
        assert eval_f(0.0, m) == float(expected)


def test_f_endpoint_factored_matches():
    for a in (0.0, 0.25, 0.5, 0.7, 0.9, 1.0):
        assert abs(eval_f(a, 9) - f_at_m9_factored(a)) <= 1e-9 * max(1.0, abs(eval_f(a, 9)))


def test_identity_f_anchor():
    assert abs(f_identity_lhs(0.5, 9) - 728.0) < 1e-9
    assert identity_check_f(0.5, 9) <= 1e-9
    assert identity_check_f(0.75, 11) <= 1e-9
    assert identity_check_f(0.5, 13) <= 1e-9


def test_identity_f_grid():
    worst = max(
        identity_check_f(float(a), m)
        for m in odd_range(9, 99)
        for a in alpha_grid("0.50", "0.99", "0.01")
    )
    assert worst <= 1e-9


def test_identity_f_rejects_m3():
    with pytest.raises(ValueError):
        f_identity_lhs(0.5, 3)


def test_g_identity_lhs_value():
    # 4 p(11/4) at (alpha, m) = (1/2, 9) is exactly -43/16.
    assert g_identity_lhs(0.5, 9) == -2.6875


def test_identity_check_g_reports_relative_error():
    err = identity_check_g(0.5, 9)
    expected = abs(-2.6875 - (-1010.375)) / 1010.375
    assert abs(err - expected) < 1e-12


def _h(a, m):
    return (2 * a - 1) * m**3 - (23 * a - 12) * m**2 + (82 * a - 44) * m - (96 * a - 56)


def test_g_derived_matches_factored_h():
    assert eval_g_derived(0.5, 9) == -2.6875
    for a in (0.0, 0.3, 0.5, 0.77, 0.99, 1.0):
        for m in (5, 9, 21, 99):
            expected = -((1 - a) ** 2) * _h(a, m) / 2
            assert abs(eval_g_derived(a, m) - expected) <= 1e-9 * max(1.0, abs(expected))


def test_printed_g_cannot_be_4_p_x1():
    # 4 p(x1) vanishes at alpha = 1; the printed g is -16(m+3)(m+8) there.
    for m in (9, 11, 51):
        assert g_identity_lhs(1.0, m) == 0.0
        assert eval_g_derived(1.0, m) == 0.0
        assert eval_g(1.0, m) == -16.0 * (m + 3) * (m + 8)


@pytest.mark.parametrize("row", range(4))
@pytest.mark.parametrize("col", range(4))
def test_identity_g_derived_detects_coefficient_change(monkeypatch, row, col):
    from alphaindex import certificates as ct

    table = [list(r) for r in ct._G_DERIVED_COEFFS]
    table[row][col] += 1
    monkeypatch.setattr(ct, "_G_DERIVED_COEFFS", tuple(tuple(r) for r in table))
    assert identity_check_g_derived(0.5, 9) > 1e-9


def test_g_bound_value_negative_on_grid():
    worst = max(
        g_identity_lhs(float(a), m)
        for m in odd_range(9, 99)
        for a in alpha_grid("0.50", "0.99", "0.01")
    )
    assert worst < 0.0


def test_sign_grid_f():
    assert sign_grid("f", odd_range(9, 99), alpha_grid("0.50", "0.99", "0.01")) == (728.0, [])


def test_sign_grid_g():
    assert sign_grid("g", odd_range(9, 99), alpha_grid("0.50", "0.99", "0.01")) == (1010.375, [])


def test_sign_grid_reports_wrong_signs_in_grid_order(monkeypatch):
    from alphaindex import certificates as ct

    monkeypatch.setattr(ct, "eval_f", lambda alpha, m: m - 10.0)
    assert sign_grid("f", [9, 11], ["0.5", "0.75"]) == (
        1.0, [(9, "0.5", -1.0), (9, "0.75", -1.0)],
    )


def test_sign_grid_validates_region():
    with pytest.raises(ValueError):
        sign_grid("f", [7, 9], ["0.5"])
    with pytest.raises(ValueError):
        sign_grid("f", [9], ["0.4"])
    with pytest.raises(ValueError):
        sign_grid("h", [9], ["0.5"])


def test_empty_grids_are_rejected():
    for ms, alphas in (([], ["0.5"]), ([9], [])):
        with pytest.raises(ValueError, match="empty grid"):
            sign_grid("f", ms, alphas)
        with pytest.raises(ValueError, match="empty grid"):
            identity_grid(identity_check_f, ms, alphas)


def test_grid_points_walk_m_outer_and_keep_alpha_strings():
    seen = []

    def evaluate(alpha, m):
        seen.append((m, alpha))
        return m + alpha

    points = grid_points(evaluate, [9, 11], ["0.50", "0.75"])
    assert points == [(9, "0.50", 9.5), (9, "0.75", 9.75), (11, "0.50", 11.5), (11, "0.75", 11.75)]
    assert seen == [(9, 0.5), (9, 0.75), (11, 0.5), (11, 0.75)]


def test_grid_points_refuse_an_empty_grid():
    for ms, alphas, counts in (
        ([], ["0.5"], "0 m values and 1 alphas"),
        ([9], [], "1 m values and 0 alphas"),
    ):
        with pytest.raises(ValueError, match=f"empty grid: {counts}"):
            grid_points(eval_f, ms, alphas)


def test_grid_points_refuse_a_value_that_is_not_finite():
    # NaN compares false with every bound, so it would pass any check.
    huge = 10 ** 70 + 1
    with pytest.raises(ValueError, match=f"grid point m={huge}, alpha=0.5 evaluates to inf"):
        sign_grid("f", [9, huge], ["0.5", "0.75"])
    with pytest.raises(ValueError, match=f"grid point m={huge}, alpha=0.5 evaluates to nan"):
        identity_grid(identity_check_f, [9, huge], ["0.5", "0.75"])
    with pytest.raises(ValueError, match="m=11, alpha=0.75 evaluates to -inf, past float range"):
        grid_points(lambda alpha, m: -math.inf if (m, alpha) >= (11, 0.75) else 0.0,
                    [9, 11, 13], ["0.5", "0.75"])


def test_grid_points_refuse_an_m_past_the_largest_float_before_any_point():
    # float(10^400 + 1) overflows, so no point of such a grid can be
    # evaluated; the m is named and nothing is evaluated first.
    past = 10 ** 400 + 1
    evaluated = []
    with pytest.raises(ValueError, match=f"^grid value m={past} is past float range$"):
        grid_points(lambda alpha, m: evaluated.append(m) or 0.0, [9, past, 11], ["0.5"])
    assert evaluated == []
    for check in (lambda ms: sign_grid("f", ms, ["0.5"]),
                  lambda ms: identity_grid(identity_check_f, ms, ["0.5"])):
        with pytest.raises(ValueError, match=f"grid value m={past} is past"):
            check([9, past])


def test_identity_grid_reports_worst_and_failures_in_grid_order():
    worst, failures = identity_grid(identity_check_f, [9, 11], ["0.5", "0.75"])
    assert failures == [] and worst == max(
        identity_check_f(a, m) for m in (9, 11) for a in (0.5, 0.75)
    )
    worst, failures = identity_grid(identity_check_g, [9, 11], ["0.5", "0.75"])
    assert [(m, a) for m, a, _ in failures] == [(9, "0.5"), (9, "0.75"), (11, "0.5"), (11, "0.75")]
    assert failures[0][2] == identity_check_g(0.5, 9)
    assert worst == max(err for _, _, err in failures)


def test_f_increasing_in_m():
    for a in (0.5, 0.75, 0.99):
        values = [eval_f(a, m) for m in odd_range(9, 99)]
        assert all(b > x for x, b in zip(values, values[1:]))


def test_grid_helpers():
    assert odd_range(9, 15) == [9, 11, 13, 15]
    assert odd_range(8, 15) == [9, 11, 13, 15]
    grid = alpha_grid("0.50", "0.99", "0.01")
    assert len(grid) == 50 and grid[0] == "0.50" and grid[-1] == "0.99"
    assert alpha_grid("0.9", "0.5", "0.01") == []


@pytest.mark.parametrize("start,stop,step", [
    ("0.50", "0.99", "0"),
    ("0.50", "0.99", "-0.01"),
    ("0.50", "0.99", "abc"),
    ("0.50", "Infinity", "0.01"),
    ("NaN", "0.99", "0.01"),
])
def test_alpha_grid_rejects_bad_bounds_and_steps(start, stop, step):
    with pytest.raises(ValueError):
        alpha_grid(start, stop, step)


def test_alpha_grid_refuses_more_than_the_point_cap():
    assert len(alpha_grid("0", "0.99999", "0.00001")) == MAX_ALPHA_POINTS
    with pytest.raises(ValueError, match="more than 100000 points"):
        alpha_grid("0", "1", "0.00001")
    with pytest.raises(ValueError, match="more than"):
        alpha_grid("0.50", "0.99", "1e-9")


def test_cubic_evaluate():
    c = Cubic(-4.5, 4.75, -0.5)
    assert c.evaluate(0.0) == -0.5
    assert abs(c.evaluate(2.75) - (-0.671875)) < 1e-15
