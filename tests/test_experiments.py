"""Figure pipelines: embedded oracles, regeneration, threshold sweep."""

import json
import math

import numpy as np
import pytest

from coalesce import (
    AboveThresholdError,
    CavitySystem,
    InvalidParameterError,
    PairIdentificationError,
    bare_linewidth,
    bare_resonance,
    coalescence_threshold,
    find_peaks,
    mode_splitting,
    pair_center,
    peak_halfwidth,
    peak_positions,
    run_fig1_spectra,
    run_fig2_resonant_transmission,
    run_fig3_mode_pulling,
    run_threshold_sweep,
    transmission,
    tunneling_rate,
)
from coalesce import spectrum
from coalesce.cli import main
from coalesce.experiments import track_resonance
from reference_peaks import tight_peaks

STAR = coalescence_threshold(-10.0)
TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def fig2():
    return run_fig2_resonant_transmission()


@pytest.fixture(scope="module")
def fig3():
    return run_fig3_mode_pulling(x_grid=np.linspace(-0.003, 0.003, 61))


@pytest.fixture(scope="module")
def sweep():
    return run_threshold_sweep(
        zeta_m_grid=tuple(STAR * s for s in np.linspace(0.85, 1.15, 13)))


class TestFig1:
    def test_dataset_shape(self):
        ds = run_fig1_spectra(n_points=801)
        n_traces = len(ds.params["zeta_m_list"])
        assert set(ds.columns) == {"k"} | {f"T_{i}" for i in range(n_traces)}
        assert all(len(col) == 801 for col in ds.columns.values())
        assert set(ds.annotations) == {f"markers_{i}" for i in range(n_traces)}

    def test_transparent_trace_markers_are_bare_resonances(self):
        ds = run_fig1_spectra(n_points=401)
        idx = ds.params["zeta_m_list"].index(0.0)
        marks = ds.annotations[f"markers_{idx}"]
        k_min, k_max = ds.params["k_window"]
        expected = [bare_resonance(n, -10.0) for n in range(1, 6)
                    if k_min <= bare_resonance(n, -10.0) <= k_max]
        assert len(marks) == len(expected)
        np.testing.assert_allclose(sorted(marks), sorted(expected),
                                   atol=1e-12)

    def test_transparent_trace_peak_ladder(self):
        # unit-height peaks spaced by one FSR
        sys0 = CavitySystem.with_middle(-10.0, 0.0)
        peaks = find_peaks(sys0, 1.8, 1.8 + 3 * math.pi)
        assert len(peaks) == 3
        spacings = np.diff([p.k_peak for p in peaks])
        np.testing.assert_allclose(spacings, math.pi, atol=1e-6)
        assert all(p.T_peak == pytest.approx(1.0, abs=1e-6) for p in peaks)

    def test_merged_trace_at_threshold(self):
        sys_star = CavitySystem.with_middle(-10.0, STAR)
        peaks = find_peaks(sys_star, 6.0, 6.35)
        assert len(peaks) == 1
        assert peaks[0].T_peak == pytest.approx(1.0, abs=1e-3)
        fwhm = 2.0 * peak_halfwidth(sys_star, peaks[0])
        assert fwhm == pytest.approx(2 * math.sqrt(2) * bare_linewidth(-10.0),
                                     rel=0.05)

    def test_far_above_threshold_single_low_peak(self):
        sys_hi = CavitySystem.with_middle(-10.0, 1.5 * STAR)
        peaks = find_peaks(sys_hi, 6.0, 6.35)
        assert len(peaks) == 1
        assert 0.5 < peaks[0].T_peak < 0.9

    @pytest.mark.parametrize("zeta", [-10.0, 10.0])
    @pytest.mark.parametrize("zeta_m", [-80.0, -5.0, 5.0, 80.0])
    def test_markers_are_the_peaks_near_two_pi(self, zeta, zeta_m):
        # for zeta > 0 the pair sits above 2 pi, one FSR above
        # bare_resonance(2, zeta); the partner lies on zeta_m's side
        ds = run_fig1_spectra(zeta=zeta, zeta_m_list=(zeta_m,), n_points=11)
        marks = [k for k in ds.annotations["markers_0"]
                 if abs(k - 2.0 * math.pi) < 1.0]
        peaks = find_peaks(CavitySystem.with_middle(zeta, zeta_m),
                           2.0 * math.pi - 1.0, 2.0 * math.pi + 1.0)
        assert len(marks) == len(peaks) == 2
        for mark, peak in zip(sorted(marks), peaks):
            assert abs(mark - peak.k_peak) < 0.02

    def test_regeneration_is_bit_identical(self):
        a = run_fig1_spectra(n_points=301)
        b = run_fig1_spectra(n_points=301)
        assert a == b


class TestFig2:
    def test_overlay_tracks_numerics(self, fig2):
        for i in range(len(fig2.params["zeta_m_list"])):
            num = np.array(fig2.columns[f"T_num_{i}"])
            formula = np.array(fig2.columns[f"T_formula_{i}"])
            assert float(np.max(np.abs(num - formula))) <= 0.02

    def test_unity_at_center(self, fig2):
        xs = np.array(fig2.columns["x"])
        i0 = int(np.argmin(np.abs(xs)))
        for i in range(len(fig2.params["zeta_m_list"])):
            assert fig2.columns[f"T_num_{i}"][i0] == pytest.approx(1.0,
                                                                   abs=1e-6)
            assert fig2.columns[f"T_formula_{i}"][i0] == 1.0

    def test_strong_reflector_dips_deepest(self, fig2):
        zms = fig2.params["zeta_m_list"]
        minima = [min(fig2.columns[f"T_num_{i}"]) for i in range(len(zms))]
        order = np.argsort([abs(z) for z in zms])
        assert minima[order[0]] > minima[order[1]] > minima[order[2]]

    def test_tracked_peaks_are_converged(self, fig2):
        # every seeded peak of the default figure ends on a Newton step,
        # within 1e-13 of the maximum solved to 1e-12
        kappa = bare_linewidth(-10.0)
        for i, zm in enumerate(fig2.params["zeta_m_list"]):
            for x, k in zip(fig2.columns["x"], fig2.columns[f"k_res_{i}"]):
                system = CavitySystem.with_middle(-10.0, zm, x)
                (ref,) = tight_peaks(system, k - 2.0 * kappa, k + 2.0 * kappa)
                assert ref == pytest.approx(k, abs=1e-13)

    def test_x_grid_restricted(self):
        with pytest.raises(Exception):
            run_fig2_resonant_transmission(x_grid=[0.0, 0.3])


class TestFig3:
    def test_gap_oracles_at_center(self, fig3):
        xs = np.array(fig3.columns["x"])
        i0 = int(np.argmin(np.abs(xs)))
        pulled = fig3.columns["k_upper"][i0] - fig3.columns["k_lower"][i0]
        lossless = (fig3.columns["k_lossless_upper"][i0]
                    - fig3.columns["k_lossless_lower"][i0])
        assert lossless == pytest.approx(mode_splitting(-196.6), abs=1e-10)
        assert lossless == pytest.approx(1.017e-2, rel=5e-3)
        assert pulled == pytest.approx(peak_positions(-10.0, -196.6).gap,
                                       rel=0.05)
        assert pulled == pytest.approx(2.12e-3, rel=0.05)
        assert pulled < lossless

    def test_pulled_branches_nest_inside_lossless(self, fig3):
        n = len(fig3.columns["x"])
        for i in range(n):
            gap_pulled = (fig3.columns["k_upper"][i]
                          - fig3.columns["k_lower"][i])
            gap_lossless = (fig3.columns["k_lossless_upper"][i]
                            - fig3.columns["k_lossless_lower"][i])
            assert gap_pulled < gap_lossless

    def test_edge_slopes_approach_tunneling_rate(self, fig3):
        xs = np.array(fig3.columns["x"])
        g_m = tunneling_rate(-196.6, pair_center(-10.0, -196.6))
        edge = xs >= 0.8 * xs.max()
        for name in ("k_upper", "k_lossless_upper"):
            ks = np.array(fig3.columns[name])[edge]
            slope = np.polyfit(xs[edge], ks, 1)[0]
            assert slope == pytest.approx(g_m, rel=0.05)

    def test_above_threshold_refused(self):
        with pytest.raises(AboveThresholdError):
            run_fig3_mode_pulling(zeta_m=1.5 * STAR)

    def test_params_regenerate_the_figure(self):
        grid = np.linspace(-0.001, 0.001, 7)
        ds = run_fig3_mode_pulling(x_grid=grid)
        assert set(ds.params) == {"zeta", "zeta_m", "x_grid", "pair_index",
                                  "version"}
        kwargs = {k: v for k, v in ds.params.items() if k != "version"}
        assert run_fig3_mode_pulling(**kwargs) == ds

    def test_branches_command_matches_figure(self, capsys):
        # the figure and the `branches` command seed the same tracker
        ds = run_fig3_mode_pulling()
        assert main(["branches", "--format=json"]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        for name in ("x", "k_lower", "k_upper", "T_lower", "T_upper"):
            assert data[name] == list(ds.columns[name])

    def test_weak_middle_element(self):
        # the shifted lossless member lies 2 atan(1/0.5) = 2.21 below 2 pi
        ds = run_fig3_mode_pulling(zeta_m=-0.5)
        i0 = ds.columns["x"].index(0.0)
        assert ds.columns["k_lossless_lower"][i0] == pytest.approx(
            TWO_PI - mode_splitting(-0.5), abs=1e-12)
        for k in ds.columns["k_lossless_lower"]:
            assert k == pytest.approx(TWO_PI - mode_splitting(-0.5),
                                      abs=1e-3)

    def test_positive_middle_element_lossless_row_at_zero(self):
        # zeta_m > 0 shifts the partner above 2 pi; the x = 0 row lies
        # within a twentieth of the splitting of its neighbours (the
        # partner on the wrong side lay a whole splitting away)
        ds = run_fig3_mode_pulling(zeta=10.0, zeta_m=196.6,
                                   x_grid=[-1e-4, 0.0, 1e-4])
        near = 0.05 * mode_splitting(196.6)
        for name in ("k_lossless_lower", "k_lossless_upper"):
            column = ds.columns[name]
            assert column[1] == pytest.approx(column[0], abs=near)
            assert column[1] == pytest.approx(column[2], abs=near)
        assert ds.columns["k_lossless_lower"][1] == TWO_PI

    def test_regeneration_is_bit_identical(self):
        grid = np.linspace(-0.001, 0.001, 7)
        a = run_fig3_mode_pulling(x_grid=grid)
        b = run_fig3_mode_pulling(x_grid=grid)
        assert a == b

    def test_work(self, monkeypatch):
        # the pair is seeded from the closed forms at x = 0
        assert searches(monkeypatch, run_fig3_mode_pulling) == ([], [])

    def test_tracked_peaks_are_converged(self):
        # every seeded peak of the default figure ends on a Newton step,
        # within 1e-13 of the maxima solved to 1e-12
        ds = run_fig3_mode_pulling()
        margin = 8.0 * bare_linewidth(-10.0)
        for i, x in enumerate(ds.columns["x"]):
            system = CavitySystem.with_middle(-10.0, -196.6, x)
            pair = [ds.columns["k_lower"][i], ds.columns["k_upper"][i]]
            ref = tight_peaks(system, pair[0] - margin, pair[1] + margin)
            assert ref == pytest.approx(pair, abs=1e-13)


class TestTrackResonance:
    def test_lost_peak_is_pair_identification(self):
        # weak mirrors near the threshold: the broad pair leaves the
        # tracking window as the middle element moves
        with pytest.raises(PairIdentificationError):
            track_resonance(-0.3, -0.59, np.linspace(-0.05, 0.05, 9))

    @pytest.mark.parametrize("zeta", [10.0, 30.0, 100.0])
    def test_positive_end_mirrors(self, zeta):
        # the walk starts at the member nearest the even resonance above
        # 2 pi, bare_resonance(3, zeta), and follows it outward
        xs = np.linspace(-0.1, 0.1, 21)
        bare = bare_resonance(3, zeta)
        for zeta_m in (-0.5, -5.0, -50.0):
            pair = peak_positions(zeta, zeta_m)
            tracked = track_resonance(zeta, zeta_m, xs)
            nearest = min((pair.k_even, pair.k_odd),
                          key=lambda k: abs(k - bare))
            assert tracked[10].k_peak == pytest.approx(nearest, abs=1e-12)
            assert tracked[10].T_peak == pytest.approx(1.0, abs=1e-9)

    def test_positive_end_mirror_follows_the_nearer_member(self):
        # the pair at zeta = 10, zeta_m = -50 sits at 6.3435 and 6.3822;
        # the even resonance bare_resonance(3, 10) is 6.3829
        (peak,) = track_resonance(10.0, -50.0, [0.0])
        assert peak.k_peak == pytest.approx(6.382225, abs=1e-6)

    def test_fig2_work(self, monkeypatch):
        # every step is seeded from the closed forms: no grid search and
        # no fallback to a window search
        assert searches(monkeypatch, run_fig2_resonant_transmission) == (
            [], [])


def searches(monkeypatch, pipeline):
    """The grid sizes and the window searches (fallbacks) of a run."""
    grids, fallbacks = [], []

    def counted(system, k):
        if np.ndim(k):
            grids.append(np.size(k))
        return transmission(system, k)

    def searched(*args, **kwargs):
        fallbacks.append(args)
        return find_peaks(*args, **kwargs)

    monkeypatch.setattr(spectrum, "transmission", counted)
    monkeypatch.setattr(spectrum, "find_peaks", searched)
    pipeline()
    return grids, fallbacks


class TestThresholdSweep:
    def test_peak_count_transitions_at_threshold(self, sweep):
        merge = sweep.params["zeta_m_merge"]
        assert merge == pytest.approx(STAR, rel=0.05)
        for zm, n in zip(sweep.columns["zeta_m"], sweep.columns["n_peaks"]):
            if abs(zm) < abs(merge) * 0.995:
                assert n == 2
            elif abs(zm) > abs(merge) * 1.005:
                assert n == 1

    def test_height_decreases_past_threshold(self, sweep):
        rows = sorted(zip(sweep.columns["zeta_m"], sweep.columns["n_peaks"],
                          sweep.columns["T_peak_1"]), key=lambda r: abs(r[0]))
        heights = [t for zm, n, t in rows if n == 1]
        assert len(heights) >= 3
        for a, b in zip(heights, heights[1:]):
            assert b <= a + 1e-9

    def test_unrelated_error_in_width_propagates(self, monkeypatch):
        def broken(*_args, **_kwargs):
            raise RuntimeError("not a truncation")

        monkeypatch.setattr(spectrum, "peak_halfwidth", broken)
        with pytest.raises(RuntimeError, match="not a truncation"):
            run_threshold_sweep(zeta_m_grid=(STAR * 0.9, STAR * 1.1))

    def test_work(self, monkeypatch):
        # every row is one seeded track step; only the row at exactly
        # zeta_m_star, whose top is quartic, may fall back to a window
        grids, fallbacks = searches(monkeypatch, run_threshold_sweep)
        assert len(fallbacks) <= 1
        assert len(grids) == len(fallbacks)

    @pytest.mark.parametrize("zeta", [-0.3, -1.0, -3.0, -10.0, -30.0,
                                      -100.0, -1000.0])
    def test_threshold_row_is_one_peak(self, zeta):
        ds = run_threshold_sweep(zeta=zeta)
        row = ds.columns["zeta_m"].index(ds.params["zeta_m_star"])
        assert ds.columns["n_peaks"][row] == 1

    @pytest.mark.parametrize("zeta", [3.0, 10.0, 30.0, 100.0])
    def test_positive_end_mirrors(self, zeta):
        ds = run_threshold_sweep(zeta=zeta)
        star = ds.params["zeta_m_star"]
        assert ds.params["zeta_m_merge"] == pytest.approx(star, rel=1e-9)
        for zm, n in zip(ds.columns["zeta_m"], ds.columns["n_peaks"]):
            assert n == (2 if zm < star else 1)

    @pytest.mark.parametrize("zeta_m", [0.0, 5.0])
    def test_grid_through_zero_refused(self, zeta_m):
        with pytest.raises(InvalidParameterError):
            run_threshold_sweep(zeta_m_grid=(zeta_m, STAR * 0.9, STAR * 1.1))

    def test_merged_width_reported(self, sweep):
        for n, w in zip(sweep.columns["n_peaks"],
                        sweep.columns["fwhm_merged"]):
            if n == 1:
                assert w > 0
            else:
                assert math.isnan(w)


class TestDefaultMiddleElements:
    @pytest.mark.parametrize("zeta", [-3.0, -5.0, -9.8, -30.0, -100.0, 10.0])
    def test_fig2_and_fig3_run(self, zeta):
        # below |zeta| = 10 the paper's values scale with the threshold,
        # keeping their signs; from there on they are the paper's own
        scale = min(1.0, abs(coalescence_threshold(zeta) / STAR))
        fig2 = run_fig2_resonant_transmission(zeta=zeta)
        fig3 = run_fig3_mode_pulling(zeta=zeta)
        assert fig2.params["zeta_m_list"] == [-0.5 * scale, -5.0 * scale,
                                              -50.0 * scale]
        assert fig3.params["zeta_m"] == -196.6 * scale
        i0 = fig2.columns["x"].index(0.0)
        for i in range(3):
            assert fig2.columns[f"T_num_{i}"][i0] == pytest.approx(1.0,
                                                                   abs=1e-6)
        assert all(lower < upper for lower, upper in
                   zip(fig3.columns["k_lower"], fig3.columns["k_upper"]))


class TestRegenerationAndScheduling:
    def test_fig2_and_sweep_regenerate_bit_identically(self):
        grid = np.linspace(-0.02, 0.02, 11)
        assert run_fig2_resonant_transmission(x_grid=grid) == \
            run_fig2_resonant_transmission(x_grid=grid)
        zms = tuple(STAR * s for s in (0.9, 0.97, 1.03, 1.1))
        assert run_threshold_sweep(zeta_m_grid=zms) == \
            run_threshold_sweep(zeta_m_grid=zms)
