"""Scanning, peak refinement, peak tracking and merge detection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalesce import (
    CavitySystem,
    EdgeTruncationError,
    InvalidParameterError,
    NotBracketedError,
    PairIdentificationError,
    bare_linewidth,
    bare_resonance,
    coalescence_threshold,
    find_merge_point,
    find_peaks,
    mode_splitting,
    peak_halfwidth,
    peak_positions,
    scan_transmission,
    track,
    transmission,
    tunneling_rate,
    pair_center,
)
from coalesce import cli, core_scatter, spectrum
from coalesce.cli import main
from coalesce.closed_form import newton
from coalesce.spectrum import _grid_maxima

TWO_PI = 2.0 * math.pi
SYS_EMPTY = CavitySystem.empty(-10.0)
SYS_PAIR = CavitySystem.with_middle(-10.0, -196.6)


def bits(values):
    """The floats of ``values`` as their exact hex spellings."""
    return [float(v).hex() for v in values]


class TestLinspace:
    CLI_GRIDS = [(table["xmin"][1], table["xmax"][1], table["xpoints"][1])
                 for table in (cli._OPTIONS["sweep-x"],
                               cli._OPTIONS["branches"])]

    @pytest.mark.parametrize("start, stop, num", [
        (-0.1, 0.1, 201),                      # fig2
        (-0.003, 0.003, 201),                  # fig3
        (0.75, 1.25, 41),                      # threshold sweep
        (1.8, 1.8 + 3.0 * math.pi, 2001),      # fig1
        *CLI_GRIDS,                            # sweep-x, branches
        (0.0, 5e-324, 3), (5e-324, 0.0, 4),    # a step that underflows
        (-0.0, 0.0, 1), (-0.0, -0.0, 1), (0.5, -0.5, 1), (1.0, 1.0, 5),
        (0.0, 1.0, 0), (0.0, 1.0, 2),
    ])
    def test_default_grids_and_edges(self, start, stop, num):
        assert bits(spectrum.linspace(start, stop, num)) == bits(
            np.linspace(start, stop, num))

    @given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300),
           st.integers(0, 500))
    @settings(derandomize=True, max_examples=500)
    def test_drawn_grids(self, start, stop, num):
        assert bits(spectrum.linspace(start, stop, num)) == bits(
            np.linspace(start, stop, num))

    def test_negative_count_refused(self):
        with pytest.raises(InvalidParameterError):
            spectrum.linspace(0.0, 1.0, -1)


class TestScanTransmission:
    def test_shape_and_range(self):
        ks, ts = scan_transmission(SYS_EMPTY, 2.0, 4.0, 101)
        assert ks.shape == ts.shape == (101,)
        assert ks[0] == 2.0 and ks[-1] == 4.0
        assert all(0.0 <= t <= 1.0 for t in ts)

    def test_perfect_limit_peaks_on_pi_lattice(self):
        # |zeta| -> inf: resonances at n pi, located within grid resolution
        sys_inf = CavitySystem.empty(-1e6)
        ks, ts = scan_transmission(sys_inf, 2.9, 9.6, 3001)
        step = ks[1] - ks[0]
        for n in (1, 2, 3):
            window = (ks > n * math.pi - 0.5) & (ks < n * math.pi + 0.5)
            k_best = ks[window][np.argmax(ts[window])]
            assert abs(k_best - n * math.pi) <= step

    def test_two_maxima_below_threshold(self):
        sys50 = CavitySystem.with_middle(-10.0, -50.0)
        peaks = find_peaks(sys50, TWO_PI - 0.5, TWO_PI + 0.1)
        assert len(peaks) == 2

    def test_one_maximum_above_threshold(self):
        sys300 = CavitySystem.with_middle(-10.0, -300.0)
        peaks = find_peaks(sys300, TWO_PI - 0.5, TWO_PI + 0.1)
        assert len(peaks) == 1
        assert peaks[0].T_peak < 1.0

    def test_bad_window_rejected(self):
        with pytest.raises(InvalidParameterError):
            scan_transmission(SYS_EMPTY, 4.0, 2.0, 10)
        with pytest.raises(InvalidParameterError):
            scan_transmission(SYS_EMPTY, -1.0, 2.0, 10)
        with pytest.raises(InvalidParameterError):
            scan_transmission(SYS_EMPTY, 1.0, 2.0, 1)

    def test_deterministic(self):
        ks_a, ts_a = scan_transmission(SYS_PAIR, 6.1, 6.3, 501)
        ks_b, ts_b = scan_transmission(SYS_PAIR, 6.1, 6.3, 501)
        assert np.array_equal(ks_a, ks_b) and np.array_equal(ts_a, ts_b)

    def test_samples_are_lists_below_the_bound(self):
        n = core_scatter.SCALAR_GRID_WORK // 2   # SYS_PAIR has two hops
        for points, kind in ((501, list), (n, list), (n + 1, np.ndarray)):
            ks, ts = spectrum.sample_transmission(SYS_PAIR, 6.1, 6.3, points)
            assert type(ks) is type(ts) is kind
            want_ks, want_ts = scan_transmission(SYS_PAIR, 6.1, 6.3, points)
            assert bits(ks) == bits(want_ks)
            np.testing.assert_allclose(ts, want_ts, rtol=1e-12, atol=0.0)
        for bad in ((4.0, 2.0, 10), (-1.0, 2.0, 10), (1.0, 2.0, 1)):
            with pytest.raises(InvalidParameterError):
                spectrum.sample_transmission(SYS_EMPTY, *bad)


class TestFindPeaks:
    def test_empty_cavity_oracle(self):
        peaks = find_peaks(SYS_EMPTY, 2.9, 3.2)
        assert len(peaks) == 1
        assert peaks[0].k_peak == pytest.approx(3.0419240010986313, abs=1e-6)
        assert peaks[0].T_peak == pytest.approx(1.0, abs=1e-6)

    def test_near_threshold_pair_gap(self):
        peaks = find_peaks(SYS_PAIR, 6.1, 6.25)
        assert len(peaks) == 2
        gap = peaks[1].k_peak - peaks[0].k_peak
        # two-mode gap 2 sqrt(delta^2 - kappa^2) = 2.1159e-3
        assert gap == pytest.approx(0.002115897419420383, rel=0.05)

    def test_single_unity_peak_at_threshold(self):
        sys_star = CavitySystem.with_middle(-10.0, coalescence_threshold(-10.0))
        peaks = find_peaks(sys_star, 6.1, 6.25)
        assert len(peaks) == 1
        assert peaks[0].T_peak == pytest.approx(1.0, abs=1e-3)

    def test_windows_without_maxima_are_empty(self):
        assert find_peaks(SYS_EMPTY, 4.0, 5.5) == []

    def test_prominence_floor_drops_round_off_ripple(self, monkeypatch):
        # at zeta = -1e4 on the merge, displaced by x = 2e-5, T is about
        # 1e-19 within 10 kappa of the pair center: the grid has maxima
        # made of round-off, whose refinement loses its bracket
        zeta = -1e4
        star = coalescence_threshold(zeta)
        system = CavitySystem.with_middle(zeta, star, 2e-5)
        center, kappa = pair_center(zeta, star), bare_linewidth(zeta)
        window = (center - 10.0 * kappa, center + 10.0 * kappa)
        ts = transmission(system, spectrum._grid_for(system, *window, 50))
        assert max(ts) < 1e-17
        assert _grid_maxima(ts, 0.0)   # how many depends on libm
        assert find_peaks(system, *window) == []
        monkeypatch.setattr(spectrum, "_PROMINENCE", 0.0)
        with pytest.raises(NotBracketedError):
            find_peaks(system, *window)

    def test_preconditions(self):
        with pytest.raises(InvalidParameterError):
            find_peaks(SYS_EMPTY, 2.9, 3.2, grid_per_kappa=5)
        with pytest.raises(InvalidParameterError):
            find_peaks(CavitySystem.empty(0.0), 2.9, 3.2)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_same_peaks_on_either_kernel_at_the_bound(self, extra,
                                                      monkeypatch):
        # an empty cavity has one hop, so a grid of bound + extra points
        # does bound + extra work: the scalar kernel at the bound, numpy
        # one point beyond it
        bound = core_scatter.SCALAR_GRID_WORK
        step = bare_linewidth(-10.0) / 50
        lo = 2.5
        hi = lo + (bound + extra - 1.5) * step
        ks = spectrum._grid_for(SYS_EMPTY, lo, hi, 50)
        assert len(ks) == bound + extra
        assert type(ks) is (list if extra == 0 else np.ndarray)
        peaks = find_peaks(SYS_EMPTY, lo, hi)
        assert len(peaks) == 2
        # the same window on the other kernel
        monkeypatch.setattr(core_scatter, "SCALAR_GRID_WORK",
                            bound - 1 + 2 * extra)
        assert type(spectrum._grid_for(SYS_EMPTY, lo, hi, 50)) is not type(ks)
        assert find_peaks(SYS_EMPTY, lo, hi) == peaks

    def test_peak_heights_capped(self):
        for peaks in (find_peaks(SYS_PAIR, 6.1, 6.25),
                      find_peaks(SYS_EMPTY, 2.9, 3.2)):
            assert all(p.T_peak <= 1.0 + 1e-12 for p in peaks)

    def test_refinement_grid_convergence(self):
        coarse = find_peaks(SYS_EMPTY, 2.9, 3.2, grid_per_kappa=50)
        fine = find_peaks(SYS_EMPTY, 2.9, 3.2, grid_per_kappa=100)
        assert abs(coarse[0].k_peak - fine[0].k_peak) < 1e-10

    def test_deterministic(self):
        assert find_peaks(SYS_PAIR, 6.1, 6.25) == find_peaks(SYS_PAIR, 6.1,
                                                             6.25)


class TestPeakHalfwidth:
    def test_empty_cavity_hwhm_matches_kappa(self):
        peaks = find_peaks(SYS_EMPTY, 2.9, 3.2)
        hwhm = peak_halfwidth(SYS_EMPTY, peaks[0])
        assert hwhm == pytest.approx(bare_linewidth(-10.0), rel=0.01)
        assert hwhm == pytest.approx(4.9752e-3, rel=0.01)

    def test_narrows_with_better_mirrors(self):
        widths = []
        for zeta in (-10.0, -30.0):
            sys_z = CavitySystem.empty(zeta)
            peaks = find_peaks(sys_z, 2.9, 3.2)
            widths.append(peak_halfwidth(sys_z, peaks[0]))
        assert widths[1] < widths[0]

    def test_merged_peak_width_is_sqrt2_broadened(self):
        # quartic profile at coalescence: FWHM = 2 sqrt(2) kappa
        sys_star = CavitySystem.with_middle(-10.0, coalescence_threshold(-10.0))
        peaks = find_peaks(sys_star, 6.1, 6.25)
        fwhm = 2.0 * peak_halfwidth(sys_star, peaks[0])
        assert fwhm == pytest.approx(2.0 * math.sqrt(2.0)
                                     * bare_linewidth(-10.0), rel=0.05)

    def test_edge_truncation(self):
        # mirrors this weak never let T fall to half its peak height
        # within half a free spectral range of the peak
        system = CavitySystem.empty(-0.3)
        peaks = find_peaks(system, 1.0, 3.0)
        assert len(peaks) == 1
        with pytest.raises(EdgeTruncationError, match="1.5708"):
            peak_halfwidth(system, peaks[0])

    def test_matches_bisection_of_half_level(self):
        # each side: the first sample below half on a kappa/100 walk out
        # of the peak, then SciPy's brentq on T - T_peak/2 to 1e-13
        brentq = pytest.importorskip("scipy.optimize").brentq
        for zeta, zm in ((-10.0, -50.0), (-10.0, coalescence_threshold(-10.0)),
                         (-40.0, -700.0)):
            system = CavitySystem.with_middle(zeta, zm)
            peak = find_peaks(system, 5.9, 6.4)[-1]
            step = bare_linewidth(zeta) / 100.0

            def excess(k):
                return transmission(system, k) - 0.5 * peak.T_peak

            sides = []
            for sign in (-1.0, 1.0):
                n = 1
                while excess(peak.k_peak + sign * n * step) > 0.0:
                    n += 1
                ends = sorted(peak.k_peak + sign * m * step for m in (n - 1, n))
                root = brentq(excess, *ends, xtol=1e-13)
                sides.append(abs(root - peak.k_peak))
            assert peak_halfwidth(system, peak) == pytest.approx(
                0.5 * sum(sides), abs=1e-10)


def double_well(x):
    # s = (x^2 - 1)^2: minima at x = -1 and 1, a maximum at x = 0
    return 4.0 * x ** 3 - 4.0 * x, 12.0 * x ** 2 - 4.0


class TestNewton:
    """:func:`closed_form.newton`, the solver of every refinement."""

    def test_converges_on_the_minimum(self):
        assert newton(double_well, -1.5, -1.2, -0.5, 1e-12) == pytest.approx(
            -1.0, abs=1e-12)

    def test_never_stops_where_the_slope_is_not_positive(self):
        # x = 0 zeroes s' but maximizes s (s'' = -4); a Newton step of 0
        # there must not count as converged
        assert newton(double_well, -1.5, 0.0, 0.5, 1e-12) == pytest.approx(
            -1.0, abs=1e-12)

    def test_root_beyond_the_bracket_is_not_followed(self):
        # the first Newton step lands on the root at 1.2, outside (0, 1)
        with pytest.raises(NotBracketedError, match="lost its bracket"):
            newton(lambda x: (x - 1.2, 1.0), 0.0, 0.99, 1.0, 1e-10)

    def test_lost_bracket_raises(self):
        # s' > 0 everywhere: the bracket collapses on the unevaluated end
        with pytest.raises(NotBracketedError, match="lost its bracket"):
            newton(lambda x: (1.0, -1.0), 1.0, 1.5, 2.0, 1e-10)

    def test_step_cap_raises(self):
        with pytest.raises(NotBracketedError, match="did not converge"):
            newton(lambda x: (math.nan, 1.0), 0.0, 0.5, 1.0, 1e-10)

    def test_ends_on_the_newton_step_inside_a_narrow_bracket(self):
        # values of both signs at 1.4 and 1.4143 bound a bracket narrower
        # than tol; the Newton step from the second pins sqrt(2), where
        # the bracket midpoint is 7e-3 off
        values = []

        def f(x):
            values.append(x)
            return x * x - 2.0, 2.0 * x

        got = newton(f, 1.0, 1.4, 2.0, 0.02)
        assert len(values) == 2
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-8)


class TestRefinementFailsLoudly:
    """A derivative that never shows the sign change the grid promised."""

    @staticmethod
    def no_minimum(system, k):
        # s' keeps one sign and s'' <= 0: no Newton step, no sign change;
        # s = 5 stays above the half level of any peak
        return 5.0, 1.0, -1.0

    def test_find_peaks(self, monkeypatch):
        monkeypatch.setattr(spectrum, "s_derivatives", self.no_minimum)
        with pytest.raises(NotBracketedError):
            find_peaks(SYS_EMPTY, 2.9, 3.2)

    def test_find_peaks_on_an_array_grid(self, monkeypatch):
        # 2000 points per kappa pass SCALAR_GRID_WORK: the grid is a numpy
        # array, and the error still names a plain float
        monkeypatch.setattr(spectrum, "s_derivatives", self.no_minimum)
        with pytest.raises(NotBracketedError) as raised:
            find_peaks(SYS_EMPTY, 2.9, 3.2, grid_per_kappa=2000)
        assert "lost its bracket near 3.04" in str(raised.value)
        assert "np.float64" not in str(raised.value)

    def test_peak_halfwidth(self, monkeypatch):
        peak = find_peaks(SYS_EMPTY, 2.9, 3.2)[0]
        monkeypatch.setattr(spectrum, "s_derivatives", self.no_minimum)
        with pytest.raises(NotBracketedError):
            peak_halfwidth(SYS_EMPTY, peak)

    def test_cli_token(self, monkeypatch, capsys):
        monkeypatch.setattr(spectrum, "s_derivatives", self.no_minimum)
        code = main(["peaks", "--zeta=-10", "--kmin", "2.9", "--kmax", "3.2"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error[not-bracketed]:")


class TestWorkCounts:
    @pytest.mark.parametrize("zeta", [-8.0, -10.0, -12.0])
    @pytest.mark.parametrize("fraction", [0.3, 0.6, 0.9])
    def test_kernel_calls_per_refined_peak(self, zeta, fraction, monkeypatch):
        # the pair near 2 pi below threshold, in a window 6 kappa wider
        # than the pair on each side
        zm = fraction * coalescence_threshold(zeta)
        pair = peak_positions(zeta, zm)
        lo, hi = sorted((pair.k_even, pair.k_odd))
        margin = 6.0 * bare_linewidth(zeta)
        calls = []

        def counted(fn):
            def wrapper(system, k):
                calls.append(np.ndim(k) == 0)
                return fn(system, k)
            return wrapper

        monkeypatch.setattr(spectrum, "transmission",
                            counted(spectrum.transmission))
        monkeypatch.setattr(spectrum, "s_derivatives",
                            counted(spectrum.s_derivatives))
        peaks = find_peaks(CavitySystem.with_middle(zeta, zm), lo - margin,
                           hi + margin)
        assert len(peaks) == 2
        assert calls.count(False) == 1   # one grid
        assert sum(calls) <= 8 * len(peaks)


class TestTrackBranches:
    """Two members tracked from a window at x = 0."""

    def test_gap_at_center_matches_closed_form(self):
        pairs = track(-10.0, -196.6, [0.0], window=(6.13, 6.23))
        assert len(pairs) == 1 and len(pairs[0]) == 2
        lower, upper = pairs[0]
        gap = upper.k_peak - lower.k_peak
        assert gap == pytest.approx(peak_positions(-10.0, -196.6).gap,
                                    rel=0.05)

    def test_linear_asymptote_at_large_displacement(self):
        x = 0.003
        center = pair_center(-10.0, -196.6)
        g_m = tunneling_rate(-196.6, center)
        pairs = track(-10.0, -196.6, [0.0, 0.0015, x],
                      window=(center - 0.06, center + 0.06))
        lower, upper = pairs[-1]
        gap = upper.k_peak - lower.k_peak
        assert gap == pytest.approx(2.0 * g_m * x, rel=0.02)

    def test_transparent_middle_keeps_bare_fsr(self):
        pairs = track(-10.0, 0.0, [0.0, 0.01, 0.02], window=(2.7, 6.5))
        for lower, upper in pairs:
            assert upper.k_peak - lower.k_peak == pytest.approx(math.pi,
                                                                abs=1e-6)
            assert lower.T_peak == pytest.approx(1.0, abs=1e-6)

    def test_branch_continuity(self):
        xs = np.linspace(-0.002, 0.002, 21)
        center = pair_center(-10.0, -196.6)
        pairs = track(-10.0, -196.6, xs, window=(center - 0.05, center + 0.05))
        assert [len(p) for p in pairs] == [2] * len(xs)
        g_m = tunneling_rate(-196.6, center)
        dx = xs[1] - xs[0]
        for (a_lo, a_up), (b_lo, b_up) in zip(pairs, pairs[1:]):
            assert abs(b_up.k_peak - a_up.k_peak) <= 1.5 * g_m * dx
            assert abs(b_lo.k_peak - a_lo.k_peak) <= 1.5 * g_m * dx

    def test_merged_points_are_skipped(self):
        # slightly above threshold the pair is merged near x = 0 but
        # separates again at finite displacement; a merged point holds
        # one peak, so a filter on pairs skips it
        zm = -202.0
        center = bare_resonance(2, -10.0) - 0.5 * mode_splitting(zm)
        xs = [0.0, 2e-5, 2e-4]
        tracked = track(-10.0, zm, xs, window=(center - 0.05, center + 0.05))
        pair_xs = [x for x, p in zip(xs, tracked) if len(p) == 2]
        assert 0 < len(pair_xs) < len(xs)
        assert all(abs(x) > 1e-5 for x in pair_xs)

    def test_wrong_pair_detected(self):
        # window spanning two different coalescing pairs
        with pytest.raises(PairIdentificationError):
            track(-10.0, -196.6, [0.0], window=(5.95, 12.69))

    def test_displacement_bound(self):
        with pytest.raises(InvalidParameterError):
            track(-10.0, -196.6, [0.3], window=(6.1, 6.3))


def start(mode, center, half):
    """``track``'s start: one seed at ``center``, or the window around it."""
    if mode == "seeds":
        return {"seeds": (center,)}
    return {"window": (center - half, center + half)}


@pytest.mark.parametrize("mode", ["seeds", "window"])
class TestTrack:
    def test_lost_peak(self, mode):
        # nothing resonates within 0.35 of k = 4.7 at zeta_m = -50
        with pytest.raises(PairIdentificationError, match="x = 0.0"):
            track(-10.0, -50.0, [0.0], **start(mode, 4.7, 0.35))

    def test_merged_pair_is_one_peak(self, mode):
        # above threshold the pair is one peak at x = 0 and 2e-5 and
        # separates at 2e-4, where only two members (a window) keep both
        zm = -202.0
        center = bare_resonance(2, -10.0) - 0.5 * mode_splitting(zm)
        tracked = track(-10.0, zm, [0.0, 2e-5, 2e-4],
                        **start(mode, center, 0.05))
        assert [len(p) for p in tracked] == [1, 1, 1 if mode == "seeds" else 2]
        assert all(isinstance(p, tuple) for p in tracked)
        for peaks in tracked:
            assert [q.k_peak for q in peaks] == sorted(q.k_peak
                                                       for q in peaks)

    def test_wrong_pair(self, mode):
        # a window reaching the pairs near 2 pi and 4 pi, or seeds on one
        # member of each: the two members are more than an FSR apart
        if mode == "seeds":
            where = {"seeds": (peak_positions(-10.0, -196.6, 1).k_even,
                               peak_positions(-10.0, -196.6, 2).k_even)}
        else:
            where = {"window": (5.95, 12.69)}
        with pytest.raises(PairIdentificationError, match="apart"):
            track(-10.0, -196.6, [0.0], **where)

    @pytest.mark.parametrize("x", [0.25, -0.25, 0.3, math.nan])
    def test_displacement_checked_before_any_search(self, mode, x,
                                                    monkeypatch):
        def no_search(*_args, **_kwargs):
            raise AssertionError("searched before checking the grid")

        monkeypatch.setattr(spectrum, "find_peaks", no_search)
        with pytest.raises(InvalidParameterError, match=f"got {x}"):
            track(-10.0, -196.6, [0.0, x], **start(mode, 6.18, 0.05))

    def test_unsorted_grid_keeps_input_order(self, mode):
        # the walks go outward from x = 0 whatever the input order, so a
        # shuffled grid gives the sorted grid's peaks, bit for bit
        pair = peak_positions(-10.0, -196.6)
        where = ({"seeds": (pair.k_even, pair.k_odd)} if mode == "seeds"
                 else {"window": (6.13, 6.23)})
        xs = [0.002, -0.001, 0.0, 0.003, -0.003, 0.001, -0.002]
        ordered = sorted(xs)
        got = track(-10.0, -196.6, xs, **where)
        want = track(-10.0, -196.6, ordered, **where)
        assert got == [want[ordered.index(x)] for x in xs]
        assert [len(p) for p in got] == [2] * len(xs)


class TestTrackInputs:
    @pytest.mark.parametrize("where", [
        {}, {"seeds": (6.18,), "window": (6.1, 6.3)}])
    def test_needs_seeds_or_a_window(self, where):
        with pytest.raises(InvalidParameterError, match="seeds or a window"):
            track(-10.0, -196.6, [0.0], **where)

    @pytest.mark.parametrize("seeds", [(), (6.1, 6.2, 6.3), (math.nan,),
                                       (6.18, math.inf)])
    def test_one_or_two_finite_seeds(self, seeds):
        with pytest.raises(InvalidParameterError, match="seeds"):
            track(-10.0, -196.6, [0.0], seeds=seeds)

    @pytest.mark.parametrize("window", [(6.3, 6.1), (-1.0, 6.3),
                                        (6.1, math.nan)])
    def test_window_is_checked(self, window):
        with pytest.raises(InvalidParameterError, match="k_min < k_max"):
            track(-10.0, -196.6, [0.0], window=window)


class TestSeededTrack:
    """Seeded steps against the window search they replace."""

    XS = np.linspace(-0.002, 0.002, 21).tolist()

    @staticmethod
    def pair_seeds(zeta, zeta_m):
        pair = peak_positions(zeta, zeta_m)
        return pair.k_even, pair.k_odd

    @pytest.mark.parametrize("zeta_m", [-196.6, -150.0, -20.0])
    def test_pair_matches_window_search(self, zeta_m, monkeypatch):
        seeds = self.pair_seeds(-10.0, zeta_m)
        seeded = track(-10.0, zeta_m, self.XS, seeds=seeds)
        monkeypatch.setattr(spectrum, "_seeded_step", lambda *a: None)
        # every step searches: the pair and 10 kappa either side
        searched = track(-10.0, zeta_m, self.XS,
                         window=(min(seeds) - 0.05, max(seeds) + 0.05))
        for x, got, want in zip(self.XS, seeded, searched):
            assert len(got) == len(want) == 2
            for a, b in zip(got, want):
                assert a.k_peak == pytest.approx(b.k_peak, abs=2e-10)
                assert a.T_peak == pytest.approx(b.T_peak, abs=1e-12)
                system = CavitySystem.with_middle(-10.0, zeta_m, x)
                assert a.T_peak == transmission(system, a.k_peak)

    def test_failed_seed_falls_back_to_a_window_search(self, monkeypatch):
        searches = []

        def counted(*args, **kwargs):
            searches.append(args)
            return find_peaks(*args, **kwargs)

        monkeypatch.setattr(spectrum, "find_peaks", counted)
        seeds = self.pair_seeds(-10.0, -196.6)
        track(-10.0, -196.6, self.XS, seeds=seeds)
        assert searches == []
        monkeypatch.setattr(spectrum, "_descend", lambda *a: None)
        track(-10.0, -196.6, self.XS, seeds=seeds)
        assert len(searches) == len(self.XS)

    def test_seeds_on_one_peak_fall_back(self, monkeypatch):
        # both seeds on the lower member: the refined pair is not
        # distinct, so the step searches the seeds' span padded by
        # 8 kappa on each side, with find_peaks at its defaults
        searches = []

        def counted(*args, **kwargs):
            searches.append((args, kwargs))
            return find_peaks(*args, **kwargs)

        monkeypatch.setattr(spectrum, "find_peaks", counted)
        lower, upper = sorted(self.pair_seeds(-10.0, -150.0))
        ((a, b),) = track(-10.0, -150.0, [0.0],
                          seeds=(lower, lower + 1e-12))
        pad = 8.0 * bare_linewidth(-10.0)
        ((_, lo, hi), kwargs), = searches
        assert (lo, hi, kwargs) == (lower - pad, lower + 1e-12 + pad, {})
        assert (a.k_peak, b.k_peak) == pytest.approx((lower, upper),
                                                     abs=1e-9)

    @pytest.mark.parametrize("zeta_m", [-150.0, coalescence_threshold(-10.0)])
    def test_descent_refuses_a_seed_where_s_is_not_convex(self, zeta_m):
        # the pair center: the dip between two peaks, or at the merge a
        # quartic top whose s'' is round-off (here negative)
        system = CavitySystem.with_middle(-10.0, zeta_m)
        seed = pair_center(-10.0, zeta_m)
        assert not spectrum.s_derivatives(system, seed)[2] > 0.0
        kappa = bare_linewidth(-10.0)
        assert spectrum._descend(system, seed, 2.0 * kappa) is None

    def test_descent_stays_within_reach(self):
        # the empty cavity's peak lies 3 kappa below the seed: a reach of
        # 2 kappa loses the solve's bracket, one of 4 kappa finds the peak
        peak = find_peaks(SYS_EMPTY, 2.9, 3.2)[0].k_peak
        kappa = bare_linewidth(-10.0)
        seed = peak + 3.0 * kappa
        assert spectrum._descend(SYS_EMPTY, seed, 2.0 * kappa) is None
        assert spectrum._descend(SYS_EMPTY, seed, 4.0 * kappa) == (
            pytest.approx(peak, abs=1e-12))

    @given(st.floats(-3.0, 3.0))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_descent_ends_on_a_minimum(self, offset):
        # seeds anywhere across a near-coalescent pair, saddle included
        zm = -196.6
        system = CavitySystem.with_middle(-10.0, zm)
        kappa = bare_linewidth(-10.0)
        seed = pair_center(-10.0, zm) + offset * kappa
        k = spectrum._descend(system, seed, 4.0 * kappa)
        if k is not None:
            _, slope, curve = spectrum.s_derivatives(system, k)
            assert curve > 0.0
            assert abs(k - seed) <= 4.0 * kappa


class TestFindMergePoint:
    def test_strong_mirror_merge_location(self):
        merge = find_merge_point(-10.0, (-150.0, -250.0))
        star = coalescence_threshold(-10.0)
        assert -211.0 <= merge <= -191.0
        assert merge == pytest.approx(star, rel=0.05)

    def test_weak_mirror_merge_location(self):
        merge = find_merge_point(-1.0, (-1.5, -5.0))
        assert merge == pytest.approx(2.0 * -1.0 * math.sqrt(2.0), rel=0.10)

    def test_unstraddled_range_rejected(self):
        with pytest.raises(NotBracketedError):
            find_merge_point(-10.0, (-120.0, -170.0))
        with pytest.raises(InvalidParameterError):
            find_merge_point(-10.0, (150.0, -250.0))

    @pytest.mark.parametrize("zeta", [-3.0, -10.0, -30.0, -100.0, -1000.0])
    def test_fold_is_the_closed_form_threshold(self, zeta):
        star = coalescence_threshold(zeta)
        for ends in ((0.75, 1.25), (1.25, 0.75)):
            merge = find_merge_point(zeta, (ends[0] * star, ends[1] * star))
            assert merge == pytest.approx(star, rel=1e-9)

    def test_no_grid_is_evaluated(self, monkeypatch):
        calls = []

        def recorded(system, k):
            calls.append(k)
            return transmission(system, k)

        monkeypatch.setattr(spectrum, "transmission", recorded)
        merge = find_merge_point(-10.0, (-150.0, -250.0))
        assert merge == pytest.approx(coalescence_threshold(-10.0), rel=1e-9)
        assert not any(isinstance(k, (list, np.ndarray)) for k in calls)


def scipy_maxima(x, prominence):
    signal = pytest.importorskip("scipy.signal")
    return signal.find_peaks(x, prominence=prominence)[0]


# integer levels give plateaus, ties and end plateaus; an optional ripple
# of ~1e-16 on top imitates round-off on a flat top
levels = st.lists(st.integers(0, 4), max_size=40).map(
    lambda v: np.array(v, dtype=float))
rippled = st.tuples(
    st.lists(st.integers(0, 3), min_size=1, max_size=40),
    st.lists(st.sampled_from([-1e-16, 0.0, 1e-16]), min_size=40,
             max_size=40),
).map(lambda p: 1.0 + np.array(p[0], dtype=float)
      + np.array(p[1][:len(p[0])]))


def both_kinds(values):
    """The samples as a numpy array and as a list of floats."""
    return np.array(values, dtype=float), [float(v) for v in values]


class TestGridMaxima:
    """An array is searched by numpy, a list in Python, by the same rules."""

    def test_plateaus_and_ends(self):
        values = [2.0, 2.0, 1.0, 3.0, 3.0, 3.0, 3.0, 0.0, 5.0, 5.0]
        for x in both_kinds(values):
            # the end plateaus are no maxima; the flat top reports its midpoint
            assert list(_grid_maxima(x, 0.0)) == [4]

    def test_prominence_walks_to_the_higher_neighbour(self):
        for x in both_kinds([0.0, 5.0, 4.0, 4.5, 1.0, 6.0, 0.0]):
            # 4.5 is based on the 4.0 saddle toward 5, so it stands 0.5 high
            assert list(_grid_maxima(x, 0.5)) == [1, 3, 5]
            assert list(_grid_maxima(x, 0.6)) == [1, 5]

    def test_prominence_walks_past_equal_tops(self):
        # each 3 walks through the other to the 0 beyond, so stands 3 high
        for x in both_kinds([0.0, 3.0, 1.0, 3.0, 0.0]):
            assert list(_grid_maxima(x, 2.5)) == [1, 3]

    def test_short_and_flat_inputs(self):
        for values in ([], [1.0], [1.0, 2.0], [3.0, 3.0, 3.0]):
            for x in both_kinds(values):
                assert len(_grid_maxima(x, 0.0)) == 0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(x=st.one_of(levels, rippled),
           prominence=st.sampled_from([0.0, 1e-10, 1e-9, 1.0, 2.0, 3.0]))
    def test_list_and_array_give_equal_indices(self, x, prominence):
        got = _grid_maxima(x.tolist(), prominence)
        assert type(got) is list
        assert got == _grid_maxima(x, prominence).tolist()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(x=st.one_of(levels, rippled),
           prominence=st.sampled_from([0.0, 1e-10, 1e-9, 1.0, 2.0, 3.0]))
    def test_same_indices_as_scipy(self, x, prominence):
        want = scipy_maxima(x, prominence)
        got = _grid_maxima(x, prominence)
        assert got.tolist() == want.tolist()

    def test_same_indices_as_scipy_on_spectra(self):
        for zm in (-50.0, -196.6, coalescence_threshold(-10.0), -260.0):
            system = CavitySystem.with_middle(-10.0, zm)
            _, ts = scan_transmission(system, 2.0, 13.0, 200001)
            for prominence in (0.0, 1e-9):
                want = scipy_maxima(ts, prominence).tolist()
                assert _grid_maxima(ts, prominence).tolist() == want
                assert _grid_maxima(ts.tolist(), prominence) == want
