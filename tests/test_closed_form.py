"""Closed-form formulas: frozen values, branch choices, cross identities.

Frozen expectations were computed from the formulas themselves at full
precision (derivations noted inline); printed literature-style values
like 3.04193 are checked at their display precision.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coalesce import (
    AboveThresholdError,
    CavitySystem,
    InvalidParameterError,
    NotBracketedError,
    bare_linewidth,
    bare_resonance,
    coalescence_threshold,
    lossless_eigenmodes,
    lossless_pair,
    mode_splitting,
    multilayer_threshold,
    pair_center,
    peak_positions,
    report,
    resonant_transmission,
    transmission,
)
from coalesce import closed_form, errors
from coalesce.closed_form import _lossless_condition
from reference_peaks import tight_peaks

TWO_PI = 2.0 * math.pi


def member_heights(zeta, zeta_m, n=1):
    """T of the kernel at both closed-form pair members, even first."""
    pair = peak_positions(zeta, zeta_m, n)
    system = CavitySystem.with_middle(zeta, zeta_m)
    return transmission(system, pair.k_even), transmission(system, pair.k_odd)


class TestBareResonance:
    def test_perfect_mirror_limit(self):
        # arccos(-1) = pi, so omega_n -> n pi
        for n in (1, 2, 5):
            assert bare_resonance(n, -1e9) == pytest.approx(n * math.pi,
                                                            abs=1e-8)

    def test_frozen_value(self):
        # pi - arctan(1/10) = 3.0419240010986313
        assert bare_resonance(1, -10.0) == pytest.approx(3.0419240010986313,
                                                         abs=1e-14)
        assert bare_resonance(1, -10.0) == pytest.approx(3.04193, abs=1e-5)

    def test_spacing_is_one_fsr(self):
        assert bare_resonance(3, -7.0) - bare_resonance(2, -7.0) == \
            pytest.approx(math.pi, abs=1e-14)

    def test_bad_index(self):
        with pytest.raises(InvalidParameterError):
            bare_resonance(0, -10.0)
        with pytest.raises(InvalidParameterError):
            bare_resonance(1.5, -10.0)


# each closed form with an integer argument: its call, and the name
# and least value its refusal gives
INDEXED = {
    "bare_resonance": (lambda n: bare_resonance(n, -10.0), "mode index", 1),
    "peak_positions": (lambda n: peak_positions(-10.0, -50.0, n),
                       "pair index", 1),
    "pair_center": (lambda n: pair_center(-10.0, -50.0, n), "pair index", 1),
    "report": (lambda n: report(-10.0, -50.0, n), "pair index", 1),
    "lossless_pair": (lambda n: lossless_pair(-50.0, 0.01, n),
                      "pair index", 1),
    "multilayer_threshold": (lambda n: multilayer_threshold(-10.0, n),
                             "layer count", 2),
}


class TestIntegerArguments:
    @pytest.mark.parametrize("value", [0, -1, 1.5, "2"], ids=repr)
    @pytest.mark.parametrize("name", sorted(INDEXED))
    def test_messages_kept(self, name, value):
        call, what, least = INDEXED[name]
        with pytest.raises(InvalidParameterError) as info:
            call(value)
        assert str(info.value) == \
            f"{what} must be an integer >= {least}, got {value}"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       10**400],
                             ids=["nan", "inf", "-inf", "10**400"])
    @pytest.mark.parametrize("name", sorted(INDEXED))
    def test_non_finite_refused(self, name, value):
        # int(n) != n raised ValueError for NaN and OverflowError for
        # inf; 10**400 passed it and overflowed later
        call, what, _ = INDEXED[name]
        with pytest.raises(InvalidParameterError) as info:
            call(value)
        assert str(info.value) == f"{what} must be finite, got {value!r}"

    @pytest.mark.parametrize("name", sorted(INDEXED))
    def test_integral_float_and_bool_are_integers(self, name):
        call, _, least = INDEXED[name]
        assert call(float(least + 1)) == call(least + 1)
        if least == 1:
            assert call(True) == call(1)

    def test_integer_check(self):
        assert errors.integer("n", 3.0, 2) == 3
        assert type(errors.integer("n", True, 1)) is int
        assert errors.integer("n", 10**300 + 1, 1) == 10**300 + 1
        with pytest.raises(InvalidParameterError,
                           match="^n must be an integer >= 2, got 1$"):
            errors.integer("n", 1, 2)


class TestBareLinewidth:
    def test_frozen_values(self):
        # 1/(2 * 10 * sqrt(101)) and 1/(2 sqrt 2)
        assert bare_linewidth(-10.0) == pytest.approx(4.975185951049945e-3,
                                                      rel=1e-13)
        assert bare_linewidth(-1.0) == pytest.approx(0.35355339059327373,
                                                     rel=1e-13)

    def test_decreasing_in_mirror_quality(self):
        values = [bare_linewidth(z) for z in (-1.0, -3.0, -10.0, -100.0)]
        assert values == sorted(values, reverse=True)
        assert bare_linewidth(-1e8) < 1e-15

    def test_no_mirror_rejected(self):
        with pytest.raises(InvalidParameterError):
            bare_linewidth(0.0)


class TestModeSplitting:
    def test_transparent_gives_bare_fsr(self):
        assert mode_splitting(0.0) == pytest.approx(math.pi, abs=1e-15)

    def test_unit_polarizability(self):
        # |atan2(-2, 0)| = pi/2
        assert mode_splitting(-1.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_frozen_value(self):
        assert mode_splitting(-196.6) == pytest.approx(0.010172852248981543,
                                                       rel=1e-13)

    @given(st.floats(-300.0, 300.0).filter(lambda z: abs(z) > 1e-6))
    @settings(derandomize=True, max_examples=400)
    def test_arctan_identity(self, zeta_m):
        assert mode_splitting(zeta_m) == pytest.approx(
            2.0 * math.atan(1.0 / abs(zeta_m)), abs=1e-12)

    def test_monotone_decreasing(self):
        values = [mode_splitting(z) for z in (-0.1, -1.0, -5.0, -100.0)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("zeta_m", [-1e200, 1.35e154, -1.7e308])
    def test_overflowing_square(self, zeta_m):
        # 2 atan(1/|zeta_m|) rounds to 2/|zeta_m| there
        assert mode_splitting(zeta_m) == 2.0 / abs(zeta_m)

    def test_continuous_at_the_square_overflow(self):
        below, above = 1.34e154, 1.35e154
        assert math.isfinite(below * below)
        assert mode_splitting(below) == pytest.approx(2.0 / below,
                                                      rel=1e-15, abs=0)
        assert mode_splitting(above) < mode_splitting(below)


class TestCoalescenceThreshold:
    def test_frozen_values(self):
        # 2 zeta sqrt(zeta^2 + 1)
        assert coalescence_threshold(-10.0) == pytest.approx(
            -200.9975124224178, rel=1e-14)
        assert coalescence_threshold(-1.0) == pytest.approx(
            -2.8284271247461903, rel=1e-14)
        assert coalescence_threshold(0.0) == 0.0

    @given(st.floats(-100.0, 100.0))
    @settings(derandomize=True, max_examples=200)
    def test_sign_and_magnitude(self, zeta):
        star = coalescence_threshold(zeta)
        assert math.copysign(1.0, star) == math.copysign(1.0, zeta) \
            or star == 0.0
        assert abs(star) >= 2.0 * abs(zeta)


class TestOverflowingMirror:
    """2|zeta| sqrt(zeta^2 + 1) overflows for |zeta| >~ 9.5e153."""

    @pytest.mark.parametrize("zeta", [-1e200, 1e200, -9.6e153, -1.7e308])
    def test_refused(self, zeta):
        with pytest.raises(InvalidParameterError, match="overflows"):
            bare_linewidth(zeta)
        with pytest.raises(InvalidParameterError, match="overflows"):
            coalescence_threshold(zeta)
        with pytest.raises(InvalidParameterError):
            report(zeta, -5.0)

    def test_strong_but_finite_mirror_still_works(self):
        assert bare_linewidth(-1e150) == pytest.approx(5e-301, rel=1e-15)
        assert coalescence_threshold(-1e150) == pytest.approx(-2e300,
                                                              rel=1e-15)
        assert report(-1e150, -5.0).zeta_m_star == coalescence_threshold(
            -1e150)

    @pytest.mark.parametrize("zeta", [-1e200, 1e200, -1.4e154, -1.7e308])
    def test_multilayer_threshold_refused(self, zeta):
        # zeta^2 overflows for |zeta| >~ 1.3e154
        with pytest.raises(InvalidParameterError, match="overflows"):
            multilayer_threshold(zeta, 2)

    def test_multilayer_threshold_of_strong_mirror(self):
        assert multilayer_threshold(-1e150, 2) == pytest.approx(1e150,
                                                                rel=1e-15)


class TestSubnormalMirror:
    """1/(2|zeta| sqrt(zeta^2 + 1)) overflows for |zeta| <~ 2.8e-309."""

    @pytest.mark.parametrize("zeta", [1e-310, -1e-310, 5e-324, 2.7e-309])
    def test_refused(self, zeta):
        with pytest.raises(InvalidParameterError, match="overflows"):
            bare_linewidth(zeta)
        with pytest.raises(InvalidParameterError):
            report(zeta, -5.0)

    def test_weak_but_normal_mirror_still_works(self):
        assert bare_linewidth(1e-300) == pytest.approx(5e299, rel=1e-15)
        assert report(1e-300, -5.0).kappa == bare_linewidth(1e-300)

    def test_threshold_stays_finite(self):
        # only the linewidth, a reciprocal, overflows
        assert coalescence_threshold(1e-310) == 2.0 * 1e-310


class TestPeakPositions:
    def test_frozen_cosines(self):
        # direct evaluation of the printed cos(eps) expression
        pair = peak_positions(-10.0, -196.6)
        assert math.cos(TWO_PI - pair.k_odd) == pytest.approx(
            0.9946282892066668, abs=1e-12)
        assert math.cos(TWO_PI - pair.k_even) == pytest.approx(
            0.994407002132227, abs=1e-12)
        assert pair.gap == pytest.approx(0.002116292190983138, rel=1e-10)

    def test_gap_matches_two_mode_form(self):
        # cross oracle: 2 sqrt(delta^2 - kappa^2)
        delta = 0.5 * mode_splitting(-196.6)
        kappa = bare_linewidth(-10.0)
        two_mode_gap = 2.0 * math.sqrt(delta ** 2 - kappa ** 2)
        assert two_mode_gap == pytest.approx(0.002115897419420383, rel=1e-12)
        assert peak_positions(-10.0, -196.6).gap == pytest.approx(
            two_mode_gap, rel=0.01)

    def test_gap_vanishes_at_threshold(self):
        pair = peak_positions(-10.0, coalescence_threshold(-10.0))
        assert pair.gap == 0.0
        assert pair.k_even == pair.k_odd

    def test_above_threshold_raises(self):
        with pytest.raises(AboveThresholdError):
            peak_positions(-10.0, -250.0)

    def test_no_mirror_rejected(self):
        with pytest.raises(InvalidParameterError):
            peak_positions(0.0, -10.0)

    @pytest.mark.parametrize("zeta, zeta_m", [(-1e50, -1e100), (1e44, 1e88),
                                              (-1e150, -5.0)])
    def test_overflowing_cosines_refused(self, zeta, zeta_m):
        # a NaN cosine must not clamp to -1, which puts both members at pi
        with pytest.raises(InvalidParameterError, match="too strong"):
            peak_positions(zeta, zeta_m)
        with pytest.raises(InvalidParameterError, match="too strong"):
            pair_center(zeta, zeta_m)

    def test_strong_pair_below_the_overflow(self):
        pair = peak_positions(-1e43, -1e86)
        assert pair.k_even == pytest.approx(TWO_PI, rel=1e-15)
        assert pair.k_odd == pytest.approx(TWO_PI, rel=1e-15)

    @given(st.floats(-200.0, 200.0))
    @settings(derandomize=True, max_examples=300)
    def test_threshold_consistency(self, zeta_m):
        # |zeta_m| <= |zeta_m_star| iff the discriminant is >= 0
        zeta = -10.0
        star = coalescence_threshold(zeta)
        disc = 4 * zeta ** 2 * (zeta ** 2 + 1) - zeta_m ** 2
        assert (abs(zeta_m) <= abs(star)) == (disc >= 0.0)

    @pytest.mark.parametrize("zeta, zeta_m", [
        (-10.0, 0.0), (-10.0, -0.01), (-1.5, -0.1), (-0.5, -0.3),
        (1.069222425988839, 0.18411893056257214)])
    def test_weak_same_sign_members_are_peaks(self, zeta, zeta_m):
        # the even member's tan(k/2) root changes sign at zeta_m =
        # 2 zeta/(1 + 4 zeta^2), not only at -2 zeta: a member put on
        # the wrong side of 2 pi reads T = 6.3e-4 at (-10, 0)
        assert min(member_heights(zeta, zeta_m)) >= 1.0 - 1e-9

    @given(st.sampled_from((-1.0, 1.0)), st.floats(-1.0, 3.0),
           st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
           st.integers(1, 3))
    @example(-1.0, 1.0, 0.0, 1)
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_both_members_are_peaks_below_threshold(self, sign, decade,
                                                    fraction, n):
        # zeta in +-[0.1, 1e3], |zeta_m| < |zeta_m_star|, zeta_m = 0 too
        zeta = sign * 10.0 ** decade
        zeta_m = fraction * coalescence_threshold(zeta)
        assert min(member_heights(zeta, zeta_m, n)) >= 1.0 - 1e-9

    def test_pair_center_midpoint(self):
        pair = peak_positions(-10.0, -196.6)
        assert pair_center(-10.0, -196.6) == pytest.approx(
            0.5 * (pair.k_even + pair.k_odd), rel=1e-15)
        assert pair_center(-10.0, -196.6) == pytest.approx(6.1784302285639345,
                                                           rel=1e-13)


class TestResonantTransmission:
    def test_centered_is_unity(self):
        assert resonant_transmission(0.0, -50.0, 6.18) == 1.0

    def test_quarter_phase(self):
        # 2 k x = pi/2 makes sin = 1: T = 1/(1 + zeta_m^2)
        k = 6.0
        x = math.pi / (4.0 * k)
        assert resonant_transmission(x, -5.0, k) == pytest.approx(1.0 / 26.0,
                                                                  rel=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            resonant_transmission(0.3, -5.0, 6.0)
        with pytest.raises(InvalidParameterError):
            resonant_transmission(0.0, -5.0, -1.0)

    def test_phase_at_the_largest_wavenumbers(self):
        # 2 k overflowed to inf before the product with x: sin(-inf)
        assert resonant_transmission(-1e-320, 0.25, 1e308) == 1.0
        # |k x| < k / 4 stays finite: 2 k x = 2 * 0.2 * 1.7e308 = 6.8e307
        s = 0.25 * math.sin(2.0 * (1.7e308 * 0.2))
        assert resonant_transmission(0.2, 0.25, 1.7e308) == 1.0 / (1.0 + s * s)

    def test_matches_full_numerics_loosely(self):
        # tracked-peak height vs the displacement formula at zeta_m = -5
        from coalesce.experiments import track_resonance
        xs = np.linspace(0.0, 0.1, 11)
        tracked = track_resonance(-10.0, -5.0, xs)
        worst = max(abs(p.T_peak
                        - resonant_transmission(float(x), -5.0, p.k_peak))
                    for x, p in zip(xs, tracked))
        assert worst <= 1e-6   # measured 9.2e-8


class TestLosslessEigenmodes:
    def test_transparent_scatterer_keeps_odd_modes(self):
        # cot(k/2) = 0 at k = pi (mod 2 pi)
        root = lossless_eigenmodes(0.0, 0.0, (2.8, 3.4))
        assert root == pytest.approx(math.pi, abs=1e-11)

    def test_strong_scatterer_approaches_even_multiple(self):
        root = lossless_eigenmodes(-1e7, 0.0, (TWO_PI - 0.3, TWO_PI - 1e-12))
        assert TWO_PI - root == pytest.approx(2e-7, rel=1e-4)

    @pytest.mark.parametrize("zeta_m", [-1.0, -5.0, -50.0, -196.6])
    def test_pair_separation_equals_splitting(self, zeta_m):
        split = mode_splitting(zeta_m)
        root = lossless_eigenmodes(zeta_m, 0.0,
                                   (TWO_PI - split - 0.4, TWO_PI - 1e-9))
        assert TWO_PI - root == pytest.approx(split, abs=1e-10)

    def test_not_bracketed(self):
        with pytest.raises(NotBracketedError):
            lossless_eigenmodes(-50.0, 0.0, (4.0, 5.0))

    @pytest.mark.parametrize("bracket", [(-1.0, 1.0), (0.0, 1.0),
                                         (-2.0, -1.0)])
    def test_bracket_of_no_wavenumbers_refused(self, bracket):
        # (-1, 1) divided by sin(0) at k = 0
        with pytest.raises(InvalidParameterError, match="bad bracket"):
            lossless_eigenmodes(-1.0, 0.0, bracket)

    @pytest.mark.parametrize("x", [0.5, -0.7, 1e308])
    def test_pair_displacement_inside_the_cavity(self, x):
        with pytest.raises(InvalidParameterError, match="must be < 1/2"):
            lossless_pair(-50.0, x)

    def test_pair_index_past_a_float_refused(self):
        # 2 n pi overflows to inf: int(inf) raised OverflowError
        with pytest.raises(InvalidParameterError, match="2\\*n\\*pi overflows"):
            lossless_pair(-50.0, 0.01, 1e308)

    def test_pole_bracket_rejected(self):
        # sign change across the cotangent pole at 2 pi is not a root
        with pytest.raises(NotBracketedError):
            lossless_eigenmodes(-50.0, 0.0, (TWO_PI - 1e-3, TWO_PI + 1e-3))

    def test_displaced_pair_brackets(self):
        lo, hi = lossless_pair(-196.6, 0.001)
        assert lo < TWO_PI < hi
        gap0 = mode_splitting(-196.6)
        assert hi - lo > gap0  # displacement widens the avoided crossing

    @pytest.mark.parametrize("zeta_m", [-5.0, 2.0, 50.0])
    def test_x0_shortcut_is_continuous(self, zeta_m):
        # the shifted member sits below 2 pi for zeta_m < 0, above it
        # for zeta_m > 0, on both sides of the x = 0 shortcut
        at_zero = lossless_pair(zeta_m, 0.0)
        for x in (1e-8, -1e-8):
            assert lossless_pair(zeta_m, x) == pytest.approx(at_zero,
                                                             abs=1e-6)

    @pytest.mark.parametrize("x", [0.0, 1e-3, 0.1])
    def test_transparent_middle_keeps_the_bare_modes(self, x):
        # zeta_m = 0: the modes stay at m pi for every x; the shifted
        # member lies a splitting of pi from 2 pi, beyond 2 pi +- 2
        assert lossless_pair(0.0, x) == pytest.approx((math.pi, TWO_PI),
                                                      abs=1e-12)

    def test_weak_middle_finds_the_far_member(self):
        # |zeta_m| < 0.642: the splitting 2 atan(1/|zeta_m|) exceeds 2
        lo, hi = lossless_pair(-0.5, 1e-3)
        assert lo == pytest.approx(TWO_PI - mode_splitting(-0.5), abs=1e-3)
        assert hi == pytest.approx(TWO_PI, abs=1e-3)


class TestMultilayerThreshold:
    def test_frozen_values(self):
        # (zeta^2 / 2^(N-2))^(1/N) for zeta = -10
        assert multilayer_threshold(-10.0, 2) == pytest.approx(10.0,
                                                               abs=1e-6)
        assert multilayer_threshold(-10.0, 3) == pytest.approx(
            3.6840314986403864, abs=1e-6)
        assert multilayer_threshold(-10.0, 4) == pytest.approx(
            2.23606797749979, abs=1e-6)

    def test_decreasing_in_layer_count(self):
        values = [multilayer_threshold(-10.0, n) for n in range(2, 8)]
        assert values == sorted(values, reverse=True)

    def test_bad_layer_count(self):
        with pytest.raises(InvalidParameterError):
            multilayer_threshold(-10.0, 1)


class TestReport:
    def test_below_threshold_fields(self):
        rep = report(-10.0, -196.6)
        assert rep.kappa == pytest.approx(4.975185951049945e-3, rel=1e-12)
        assert rep.delta == pytest.approx(0.005086426124490772, rel=1e-12)
        assert rep.zeta_m_star == pytest.approx(-200.9975124224178, rel=1e-12)
        assert rep.pair_gap == pytest.approx(abs(rep.eps_minus - rep.eps_plus),
                                             rel=1e-12)

    def test_angles_of_positive_end_mirror(self):
        # the pair sits above 2 pi there; the angles stay arccos values
        rep, mirror = report(10.0, 196.6), report(-10.0, -196.6)
        assert rep.eps_plus == pytest.approx(mirror.eps_plus, abs=1e-15)
        assert rep.eps_minus == pytest.approx(mirror.eps_minus, abs=1e-15)
        assert rep.pair_gap == mirror.pair_gap

    def test_above_threshold_fields_absent(self):
        rep = report(-10.0, -300.0)
        assert rep.eps_plus is None
        assert rep.eps_minus is None
        assert rep.pair_gap is None
        assert rep.kappa > 0

    def test_overflowing_pair_fields_absent(self):
        rep = report(-1e50, -1e100)
        assert rep.eps_plus is None and rep.eps_minus is None
        assert rep.pair_gap is None
        assert rep.kappa == pytest.approx(5e-101, rel=1e-15, abs=0)

    def test_transparent_middle_gap_is_the_bare_splitting(self):
        # zeta_m = 0: the pair is two bare resonances, pi apart
        assert report(-10.0, 0.0).pair_gap == mode_splitting(0.0)

    def test_bad_pair_index_still_refused(self):
        with pytest.raises(InvalidParameterError, match="pair index"):
            report(-10.0, -196.6, 0)


class TestOracleAgreementWithNumerics:
    @pytest.mark.parametrize("zeta_m", [-150.0, -180.0, -196.6])
    def test_pair_gap_matches_refined_peaks(self, zeta_m):
        from coalesce import find_peaks
        pair = peak_positions(-10.0, zeta_m)
        center = pair_center(-10.0, zeta_m)
        sys_m = CavitySystem.with_middle(-10.0, zeta_m)
        peaks = find_peaks(sys_m, center - 0.05, center + 0.05)
        assert len(peaks) == 2
        numeric_gap = peaks[1].k_peak - peaks[0].k_peak
        assert numeric_gap == pytest.approx(pair.gap, rel=0.05)

    @pytest.mark.parametrize("zeta", [3.0, 10.0, 30.0])
    @pytest.mark.parametrize("fraction", [0.5, 0.75, 0.95])
    def test_positive_end_mirror_pair_matches_refined_peaks(self, zeta,
                                                            fraction):
        # T_zeta(2 pi + u) = T_-zeta(2 pi - u) at x = 0: the pair sits
        # above 2 pi, the mirror image of the pair at -zeta
        zeta_m = fraction * coalescence_threshold(zeta)
        pair = peak_positions(zeta, zeta_m)
        assert TWO_PI < min(pair.k_even, pair.k_odd)
        center = pair_center(zeta, zeta_m)
        half = 8.0 * bare_linewidth(zeta) + pair.gap
        peaks = tight_peaks(CavitySystem.with_middle(zeta, zeta_m),
                            center - half, center + half)
        assert peaks == pytest.approx(
            sorted((pair.k_even, pair.k_odd)), abs=1e-14)

    @pytest.mark.parametrize("zeta, zeta_m", [
        (-30.0, 50.0), (-30.0, 5.0), (-10.0, 5.0), (30.0, -5.0),
        (-10.0, 50.0), (10.0, -50.0)])
    def test_opposite_sign_pair_matches_refined_peaks(self, zeta, zeta_m):
        # the even member crosses 2 pi at zeta_m = -2 zeta; the first four
        # lie inside that crossing, the last two beyond it
        pair = peak_positions(zeta, zeta_m)
        center = pair_center(zeta, zeta_m)
        half = 8.0 * bare_linewidth(zeta) + pair.gap
        peaks = tight_peaks(CavitySystem.with_middle(zeta, zeta_m),
                            center - half, center + half)
        assert peaks == pytest.approx(
            sorted((pair.k_even, pair.k_odd)), abs=1e-12)
        assert pair.gap == pytest.approx(abs(pair.k_even - pair.k_odd),
                                         abs=1e-15)

    @pytest.mark.parametrize("zeta", [-10.0, 10.0])
    def test_even_member_crosses_at_minus_two_zeta(self, zeta):
        # cos(eps_minus) = 1 there, so both sides meet at 2 pi
        inner = peak_positions(zeta, -2.0 * zeta * (1.0 - 1e-3)).k_even
        outer = peak_positions(zeta, -2.0 * zeta * (1.0 + 1e-3)).k_even
        assert peak_positions(zeta, -2.0 * zeta).k_even == TWO_PI
        assert (inner - TWO_PI) * (outer - TWO_PI) < 0.0
        assert abs(inner - TWO_PI) == pytest.approx(abs(outer - TWO_PI),
                                                    rel=0.01)

    @pytest.mark.parametrize("zeta", [-10.0, 10.0])
    def test_even_member_passes_pi_at_the_same_sign_crossing(self, zeta):
        # a = 0 at zeta_m = 2 zeta/(1 + 4 zeta^2): the even member's
        # tan(k/2) root passes infinity, 2 pi +- pi, and changes side;
        # T has period 2 pi in k at x = 0, so both sides are peaks
        cross = 2.0 * zeta / (1.0 + 4.0 * zeta * zeta)
        inner = peak_positions(zeta, cross * (1.0 - 1e-3)).k_even
        outer = peak_positions(zeta, cross * (1.0 + 1e-3)).k_even
        assert abs(peak_positions(zeta, cross).k_even - TWO_PI) == \
            pytest.approx(math.pi, rel=1e-8)
        assert (inner - TWO_PI) * (outer - TWO_PI) < 0.0
        assert abs(inner - TWO_PI) == pytest.approx(abs(outer - TWO_PI),
                                                    rel=1e-4)
        for zeta_m in (cross * (1.0 - 1e-3), cross, cross * (1.0 + 1e-3)):
            assert min(member_heights(zeta, zeta_m)) >= 1.0 - 1e-9

    def test_bare_resonance_matches_refined_peak(self):
        from coalesce import find_peaks
        sys10 = CavitySystem.empty(-10.0)
        peaks = find_peaks(sys10, 2.9, 3.2)
        assert len(peaks) == 1
        assert peaks[0].k_peak == pytest.approx(bare_resonance(1, -10.0),
                                                abs=1e-6)


def scipy_brentq():
    return pytest.importorskip("scipy.optimize").brentq


class TestBisect:
    """:func:`closed_form.newton` where it bisects, and the lossless roots.

    The roots are held against SciPy's ``brentq``, run to 1e-15 so that
    its own error stays far below the 1e-12 compared.
    """

    def test_same_sign_not_bracketed(self):
        # no root: every value moves the upper end down onto the lower
        with pytest.raises(NotBracketedError, match="lost its bracket"):
            closed_form.newton(lambda x: (x * x + 1.0, 2.0 * x),
                               -1.0, 0.5, 1.0, 1e-12)

    def test_step_cap_not_bracketed(self):
        # no slope, so bisection: the root at 1e-300 stays out of reach
        # of a bracket of 4 ulps in 64 values
        with pytest.raises(NotBracketedError, match="did not converge"):
            closed_form.newton(lambda x: (x - 1e-300, 0.0), 0.0, 0.5, 1.0,
                               1e-310)

    @pytest.mark.parametrize("xtol", [0.0, -1e-12, float("nan")])
    def test_bad_xtol_refused(self, xtol):
        with pytest.raises(InvalidParameterError, match="tol"):
            closed_form.newton(lambda x: (x, 1.0), -1.0, 0.5, 2.0, xtol)

    def test_endpoint_roots(self):
        # a zero at a bracket end is the root, with or without a slope
        for slope in (1.0, 0.0):
            assert closed_form.newton(lambda x: (x - 1.0, slope),
                                      1.0, 1.0, 2.0, 1e-12) == 1.0
            assert closed_form.newton(lambda x: (x - 2.0, slope),
                                      1.0, 2.0, 2.0, 1e-12) == 2.0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(root=st.floats(-10.0, 10.0), below=st.floats(1e-6, 10.0),
           above=st.floats(1e-6, 10.0),
           xtol=st.sampled_from([1e-300, 1e-12, 1e-3]),
           scale=st.sampled_from([1.0, -1.0, 1e-170]))
    def test_same_root_as_scipy_on_lines(self, root, below, above, xtol,
                                         scale):
        # the 1e-170 slope makes a product of two values underflow to 0;
        # newton compares signs and takes -f where the line falls
        def f(x):
            return scale * (x - root)

        lo, hi = root - below, root + above
        want = scipy_brentq()(f, lo, hi, xtol=1e-300)
        sign = math.copysign(1.0, scale)
        got = closed_form.newton(lambda x: (sign * f(x), abs(scale)),
                                 lo, lo, hi, xtol)
        assert got == pytest.approx(want, abs=max(xtol, 1e-14))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(zeta_m=st.floats(-500.0, -0.01),
           width=st.floats(1e-3, 0.4))
    def test_same_root_as_scipy_on_lossless_brackets(self, zeta_m, width):
        # x = 0: cot(k/2) = zeta_m < 0 has one root in (2 pi - split - width,
        # 2 pi), with the pole at 2 pi kept out of the bracket
        split = mode_splitting(zeta_m)
        lo, hi = TWO_PI - split - width, TWO_PI - 1e-9
        f = _lossless_condition(zeta_m, 0.0)
        want = scipy_brentq()(lambda k: f(k)[0], lo, hi, xtol=1e-15)
        assert lossless_eigenmodes(zeta_m, 0.0, (lo, hi)) == pytest.approx(
            want, abs=1e-12)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(zeta_m=st.floats(-400.0, -1.0), x=st.floats(1e-3, 0.2),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_same_root_as_scipy_in_lossless_pair(self, zeta_m, x, sign):
        # every root newton finds, on the pole-free bracket it was given
        brentq, ours, pairs = scipy_brentq(), closed_form.newton, []

        def both(f, lo, start, hi, tol):
            root = ours(f, lo, start, hi, tol)
            pairs.append((root, brentq(lambda k: f(k)[0], lo, hi,
                                       xtol=1e-15)))
            return root

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(closed_form, "newton", both)
            try:
                lossless_pair(zeta_m, sign * x)
            except NotBracketedError:
                pass   # the roots found before giving up are still compared
        assert pairs and all(abs(a - b) <= 1e-12 for a, b in pairs)
