import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pdrwm import _compiled
from pdrwm import (
    NumericError,
    ParameterError,
    SupportError,
    chord_overlap_integral,
    crosses_level_boundary,
    disc_rejection_area_bound,
    disc_rejection_lower_bound,
    exact_rejection_disc,
    hemisphere_overlap_check,
    hemisphere_sweep,
    overlap_area,
)

# Exact rejection at the level-3 center, frozen from the chord quadrature
# and verified by hand: overlaps 0.654107 and 0.221744 give
# 1 - 0.875851/pi.
EXACT_R03 = 0.7212016926123119


def plain_chord_overlap_integral(c1, c2, semi_width, semi_height, w, y_lo, y_hi):
    """The chord quadrature in its plain form, builtin ``max``/``min`` in
    the integrand; the module's integrand must reproduce its bits."""
    lo = max(y_lo, c2 - semi_height)
    hi = min(y_hi, c2 + semi_height)
    if hi <= lo:
        return 0.0

    def chord(y):
        u = (y - c2) / semi_height
        s = semi_width * math.sqrt(max(0.0, 1.0 - u * u))
        return max(0.0, min(c1 + s, w) - max(c1 - s, -w))

    points = []
    for t in (w - c1, w + c1):
        if 0.0 < t < semi_width:
            r = semi_height * math.sqrt(1.0 - (t / semi_width) ** 2)
            for y in (c2 - r, c2 + r):
                if lo < y < hi:
                    points.append(y)
    val, _ = quad(
        chord, lo, hi, points=sorted(points), limit=200, epsabs=1e-12, epsrel=1e-10
    )
    return float(val)


def mc_overlap(center, level, n=2_000_000, seed=1, semi_width=1.0):
    """Monte Carlo overlap of an ellipse with a level rectangle: uniform
    shape samples classified against the rectangle, times shape area."""
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.random(n))
    th = 2.0 * math.pi * rng.random(n)
    xs = center[0] + semi_width * r * np.cos(th)
    ys = center[1] + r * np.sin(th)
    w = 3.0 ** (1 - level)
    inside = (ys >= level) & (ys < level + 1) & (np.abs(xs) <= w)
    frac = inside.mean()
    area = math.pi * semi_width
    se = area * math.sqrt(frac * (1 - frac) / n)
    return frac * area, se


class TestChordIntegral:
    def test_full_disc_in_wide_window(self):
        area = chord_overlap_integral(0.0, 0.0, 1.0, 1.0, 50.0, -1.0, 1.0)
        assert area == pytest.approx(math.pi, abs=1e-10)

    def test_half_disc(self):
        area = chord_overlap_integral(0.0, 0.0, 1.0, 1.0, 50.0, 0.0, 1.0)
        assert area == pytest.approx(math.pi / 2.0, abs=1e-10)

    def test_ellipse_scaling(self):
        area = chord_overlap_integral(0.0, 0.0, 0.25, 1.0, 50.0, -1.0, 1.0)
        assert area == pytest.approx(math.pi / 4.0, abs=1e-10)

    def test_narrow_window_clips(self):
        # a unit disc clipped to |x| <= 1/3: area is 2 * (w sqrt(1-w^2)
        # + asin w) at w = 1/3
        w = 1.0 / 3.0
        expected = 2.0 * (w * math.sqrt(1 - w * w) + math.asin(w))
        area = chord_overlap_integral(0.0, 0.0, 1.0, 1.0, w, -1.0, 1.0)
        assert area == pytest.approx(expected, abs=1e-10)

    def test_empty_vertical_range(self):
        assert chord_overlap_integral(0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 3.0) == 0.0

    @settings(max_examples=200)
    @given(
        c1=st.one_of(st.floats(-2.5, 2.5), st.sampled_from([0.0, -0.0, 1.0, -1.0])),
        c2=st.floats(-2.0, 2.0),
        semi_width=st.one_of(st.floats(0.01, 2.0), st.just(1.0)),
        semi_height=st.floats(0.05, 2.0),
        window=st.one_of(
            st.floats(0.01, 2.0), st.sampled_from([1.0 / 3.0, 50.0, math.inf])
        ),
        y_lo=st.floats(-3.0, 2.0),
        span=st.floats(0.0, 4.0),
    )
    def test_bits_match_plain_integrand(
        self, c1, c2, semi_width, semi_height, window, y_lo, span
    ):
        # windows narrower than the chord clip it on both sides, centres
        # beyond the window leave zero-length chords
        args = (c1, c2, semi_width, semi_height, window, y_lo, y_lo + span)
        assert chord_overlap_integral(*args) == plain_chord_overlap_integral(*args)

    def test_bits_match_on_clipping_cases(self):
        cases = [
            (0.0, 0.0, 1.0, 1.0, 1.0 / 3.0, -1.0, 1.0),  # clipped both sides
            (0.9, 0.3, 1.0, 1.0, 1.0 / 3.0, -0.5, 1.5),  # right edge only
            (-0.9, 0.3, 1.0, 1.0, 1.0 / 3.0, -0.5, 1.5),  # left edge only
            (3.0, 0.0, 1.0, 1.0, 1.0, -1.0, 1.0),  # no chord inside
            (0.2, 2.7, 1.0, 1.0, 1.0 / 9.0, 3.0, 4.0),  # a staircase level
        ]
        for args in cases:
            assert chord_overlap_integral(*args) == plain_chord_overlap_integral(*args)
        assert chord_overlap_integral(*cases[3]) == 0.0

    def test_infinite_window_means_no_clipping(self):
        area = chord_overlap_integral(0.3, 0.0, 1.0, 1.0, math.inf, -1.0, 1.0)
        assert area == pytest.approx(math.pi, abs=1e-10)

    @pytest.mark.parametrize(
        "args",
        [
            (0, 0.5, math.nan, 1, 1, 0, 1),
            (math.nan, 0.5, 1.0, 1.0, 1.0, 0.0, 1.0),
            (0.0, math.inf, 1.0, 1.0, 1.0, 0.0, 1.0),
            (0.0, 0.5, 1.0, math.inf, 1.0, 0.0, 1.0),
            (0.0, 0.5, 1.0, 1.0, math.nan, 0.0, 1.0),
            (0.0, 0.5, 1.0, 1.0, 1.0, -math.inf, 1.0),
            (0.0, 0.5, 1.0, 1.0, 1.0, 0.0, math.nan),
        ],
    )
    def test_non_finite_input_refused(self, args):
        with pytest.raises(ParameterError):
            chord_overlap_integral(*args)

    def test_zero_window_holds_no_area(self):
        # staircase levels from 680 up have half-width exactly 0.0
        assert chord_overlap_integral(0.0, 0.5, 1.0, 1.0, 0.0, 0.0, 1.0) == 0.0
        assert chord_overlap_integral(0.0, 0.5, 1.0, 1.0, -0.0, 0.0, 1.0) == 0.0
        with pytest.raises(ParameterError, match="negative"):
            chord_overlap_integral(0.0, 0.5, 1.0, 1.0, -1e-300, 0.0, 1.0)


class TestOverlapArea:
    @pytest.mark.parametrize(
        "center,level",
        [((0.0, 2.5), 2), ((0.2, 2.7), 2), ((0.2, 2.7), 3), ((0.0, 3.0), 2)],
    )
    def test_against_monte_carlo(self, center, level):
        exact = overlap_area(center, level)
        mc, se = mc_overlap(center, level)
        assert abs(exact - mc) < 4 * se + 1e-6

    def test_bounded_by_rectangle_area(self):
        # the disc through two levels never exceeds either full area
        for p in (3, 4, 5):
            a_below = overlap_area((0.0, float(p)), p - 1)
            a_own = overlap_area((0.0, float(p)), p)
            assert a_below <= 2.0 * 3.0 ** (2 - p) + 1e-12
            assert a_own <= 2.0 * 3.0 ** (1 - p) + 1e-12

    def test_off_support_levels_empty(self):
        assert overlap_area((0.0, 6.0), 3) == 0.0

    def test_level_rectangle_is_level_and_half_width(self):
        # level 4 spans heights [4, 5): the disc at (0, 4) meets it in
        # its upper half, and the disc at (0, 6) touches it at one point
        w = 1.0 / 27.0
        upper_half = chord_overlap_integral(0.0, 4.0, 1.0, 1.0, w, 4.0, 5.0)
        assert overlap_area((0.0, 4.0), 4) == upper_half
        assert overlap_area((0.0, 6.0), 4) == 0.0

    def test_levels_start_at_one(self):
        with pytest.raises(ParameterError, match="levels start at 1"):
            overlap_area((0.0, 0.5), 0)


class TestExactRejection:
    def test_frozen_center_value(self):
        assert exact_rejection_disc((0.0, 3.0)) == pytest.approx(
            EXACT_R03, abs=1e-10
        )

    def test_monte_carlo_cross_check(self):
        # independent route: uniform disc proposals accepted with the
        # level density ratio
        for x, seed in (((0.0, 3.0), 3), ((0.1, 3.4), 4)):
            exact = exact_rejection_disc(x)
            rng = np.random.default_rng(seed)
            n = 1_000_000
            r = np.sqrt(rng.random(n))
            th = 2.0 * math.pi * rng.random(n)
            ys1 = x[0] + r * np.cos(th)
            ys2 = x[1] + r * np.sin(th)
            k = math.floor(x[1])
            lev = np.floor(ys2)
            w = 3.0 ** (1 - lev)
            inside = (ys2 >= 1.0) & (np.abs(ys1) <= w)
            alpha = np.where(inside, np.minimum(1.0, 3.0 ** (k - lev)), 0.0)
            r_hat = 1.0 - alpha.mean()
            se = alpha.std() / math.sqrt(n)
            assert abs(exact - r_hat) < 4 * se + 1e-6

    def test_increases_with_level(self):
        vals = [exact_rejection_disc((0.0, float(p))) for p in range(3, 9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.995  # approaching certain rejection

    def test_dominates_area_bound(self):
        for p in range(3, 9):
            assert exact_rejection_disc((0.0, float(p))) >= disc_rejection_area_bound(p)

    def test_certain_where_widths_vanish(self):
        # from level 680 up the half-width is exactly 0.0: the strips the
        # disc reaches hold no area, so every proposal is rejected
        for x2 in (679.5, 680.0, 700.5):
            assert exact_rejection_disc((0.0, x2)) == 1.0

    def test_off_support_rejected(self):
        with pytest.raises(SupportError):
            exact_rejection_disc((0.0, 0.5))
        with pytest.raises(SupportError):
            exact_rejection_disc((2.0, 3.0))

    @pytest.mark.parametrize(
        "x", [(math.nan, 3.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 3.0)]
    )
    def test_non_finite_point_refused(self, x):
        with pytest.raises(ParameterError):
            exact_rejection_disc(x)


class TestBounds:
    def test_pinned_values(self):
        assert disc_rejection_lower_bound(3) == pytest.approx(
            1.0 - (4.0 / 9.0) / math.pi, abs=1e-15
        )
        assert disc_rejection_lower_bound(3) == pytest.approx(0.8585289394738709)
        assert disc_rejection_area_bound(3) == pytest.approx(0.7170578789477416)

    def test_relation(self):
        # the reference constant assumes half the overlap the full areas
        # allow, so it always sits above the provable area bound
        for p in range(3, 10):
            lb = disc_rejection_lower_bound(p)
            ab = disc_rejection_area_bound(p)
            assert lb > ab
            assert 1.0 - lb == pytest.approx(0.5 * (1.0 - ab), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            disc_rejection_lower_bound(2)
        with pytest.raises(ParameterError):
            disc_rejection_area_bound(2)


class TestHemispheres:
    def test_axis_point_lower_is_exact_half_ellipse(self):
        # on-axis at mid-level the downward hemisphere is never clipped
        res = hemisphere_overlap_check((0.0, 2.5))
        w = 1.0 / 3.0
        assert res.lower == pytest.approx(math.pi * w / 2.0, abs=1e-10)
        assert res.upper < res.lower
        assert res.passes

    def test_upper_matches_monte_carlo(self):
        rng = np.random.default_rng(12)
        n = 2_000_000
        w = 1.0 / 3.0
        r = np.sqrt(rng.random(n))
        th = 2.0 * math.pi * rng.random(n)
        xs = w * r * np.cos(th)
        ys = 2.5 + r * np.sin(th)
        lev = np.floor(ys)
        inside = (ys >= 1.0) & (np.abs(xs) <= 3.0 ** (1 - lev))
        up = inside & (ys > 2.5)
        mc = up.mean() * math.pi * w
        se = math.pi * w * math.sqrt(up.mean() * (1 - up.mean()) / n)
        res = hemisphere_overlap_check((0.0, 2.5))
        assert abs(res.upper - mc) < 4 * se + 1e-6

    def test_integer_height_gives_equality(self):
        # frac = 0: the ellipse never enters the level above, and both
        # hemispheres are unclipped half-ellipses
        res = hemisphere_overlap_check((0.0, 3.0))
        assert res.lower == pytest.approx(res.upper, abs=1e-10)
        assert not res.passes
        assert not crosses_level_boundary((0.0, 3.0))

    def test_strictness_without_crossing(self):
        # crossing is sufficient, not necessary: clipping inside the own
        # level can already break the tie for off-axis starts
        x = (0.32, 2.02)
        assert not crosses_level_boundary(x)
        res = hemisphere_overlap_check(x)
        assert res.passes

    def test_level_one_refused(self):
        with pytest.raises(ParameterError):
            hemisphere_overlap_check((0.0, 1.5))

    @pytest.mark.parametrize("x", [(0.0, -1000.5), (0.0, -3.5), (0.0, 0.5)])
    def test_crossing_below_the_staircase_refused(self, x):
        with pytest.raises(SupportError, match="below the staircase"):
            crosses_level_boundary(x)

    def test_subnormal_semi_width_raises_named_error(self):
        # the error the ellipse proposal raises at the same starts
        for x2 in (646.0, 660.5, 679.5, 700.5):
            with pytest.raises(NumericError, match=repr(x2)):
                hemisphere_overlap_check((0.0, x2))
        # one level lower the semi-width is still a normal float
        res = hemisphere_overlap_check((0.0, 645.5))
        assert 0.0 < res.upper < res.lower < 1e-300

    def test_off_support_refused(self):
        with pytest.raises(SupportError):
            hemisphere_overlap_check((1.0, 2.5))

    @pytest.mark.parametrize(
        "x", [(math.nan, 2.5), (0.0, math.nan), (0.0, math.inf), (math.inf, 2.5)]
    )
    def test_non_finite_point_refused(self, x):
        with pytest.raises(ParameterError):
            hemisphere_overlap_check(x)
        with pytest.raises(ParameterError):
            crosses_level_boundary(x)

    @given(
        k=st.integers(2, 12),
        frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        xf=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_mirror_images_agree_exactly(self, k, frac, xf):
        x1 = xf * 3.0 ** (1 - k)
        assert hemisphere_overlap_check((x1, k + frac)) == hemisphere_overlap_check(
            (-x1, k + frac)
        )


class TestSweep:
    def test_default_sweep_all_pass(self):
        rows = hemisphere_sweep()
        assert len(rows) == 275
        assert all(r.passes for r in rows)
        margins = [r.lower_overlap - r.upper_overlap for r in rows]
        assert min(margins) > 1e-9

    def test_rows_carry_positions(self):
        rows = hemisphere_sweep(levels=[2], height_fracs=[0.5], x1_fracs=[0.0, 0.4])
        assert len(rows) == 2
        assert rows[0].k == 2 and rows[0].x2 == pytest.approx(2.5)
        assert rows[1].x1 == pytest.approx(0.4 / 3.0)

    def test_non_crossing_grid_rejected(self):
        with pytest.raises(ParameterError):
            hemisphere_sweep(levels=[2], height_fracs=[0.01], x1_fracs=[0.9])

    @pytest.mark.parametrize("level", [650, 700])
    def test_underflowing_level_raises_the_ellipse_error(self, level):
        # the semi-width is subnormal at level 650 and 0.0 at level 700;
        # both levels raise the ellipse's own error, not "does not cross"
        with pytest.raises(NumericError) as err:
            hemisphere_sweep(levels=[level])
        assert str(err.value) == (
            "ellipse semi-width 3**(1 - floor(x2)) underflows at height "
            f"{level + 0.2!r}"
        )

    @pytest.mark.parametrize(
        "grid",
        [{}, {"x1_fracs": (-0.7, -0.3, 0.3, 0.55)}],
        ids=["default", "asymmetric"],
    )
    def test_rows_equal_point_by_point_checks(self, grid):
        rows = hemisphere_sweep(**grid)
        for r in rows:
            res = hemisphere_overlap_check((r.x1, r.x2))
            assert (r.lower_overlap, r.upper_overlap, r.passes) == tuple(res)
        xfs = grid.get("x1_fracs", (-0.8, -0.4, 0.0, 0.4, 0.8))
        w = 3.0 ** (1 - 2)  # the first rows are level 2
        assert [r.x1 for r in rows[: len(xfs)]] == [xf * w for xf in xfs]

    def test_mirrored_points_solved_once_per_call(self, monkeypatch):
        calls = []
        compiled_quad = _compiled.quad

        def counting_quad(*args, **kwargs):
            calls.append(1)
            return compiled_quad(*args, **kwargs)

        # chord_overlap_integral reaches QUADPACK through pdrwm._compiled
        monkeypatch.setattr(_compiled, "quad", counting_quad)
        hemisphere_sweep()
        first = len(calls)
        hemisphere_sweep()
        # a second sweep redoes all of its work: nothing outlives a call
        assert len(calls) == 2 * first
        # three distinct |x1| of five per height, against 1100 point by
        # point; a counter the sweep no longer reaches would read 0
        assert 0 < first <= 660
