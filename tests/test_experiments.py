"""Figure pipelines: embedded oracles, regeneration, threshold sweep."""

import math

import numpy as np
import pytest

from coalesce import (
    AboveThresholdError,
    CavitySystem,
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
    tunneling_rate,
)
from coalesce import spectrum
from coalesce.experiments import track_resonance

STAR = coalescence_threshold(-10.0)


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

    def test_above_threshold_refused_with_explicit_window(self):
        with pytest.raises(AboveThresholdError):
            run_fig3_mode_pulling(zeta_m=1.5 * STAR, k_window=(6.1, 6.3))

    def test_default_window_is_branch_window(self):
        # the figure and the `branches` command share this window
        grid = np.linspace(-0.003, 0.003, 201)
        window = spectrum.branch_window(-10.0, -196.6, grid)
        assert run_fig3_mode_pulling(x_grid=grid).params["k_window"] == [
            window[0], window[1]]

    def test_regeneration_is_bit_identical(self):
        grid = np.linspace(-0.001, 0.001, 7)
        a = run_fig3_mode_pulling(x_grid=grid)
        b = run_fig3_mode_pulling(x_grid=grid)
        assert a == b


class TestTrackResonance:
    def test_lost_peak_is_pair_identification(self):
        # nothing resonates within 0.35 of k = 4.7 at zeta_m = -50
        with pytest.raises(PairIdentificationError):
            track_resonance(-10.0, -50.0, [0.0], 4.7)


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

    def test_merged_width_reported(self, sweep):
        for n, w in zip(sweep.columns["n_peaks"],
                        sweep.columns["fwhm_merged"]):
            if n == 1:
                assert w > 0
            else:
                assert math.isnan(w)


class TestRegenerationAndScheduling:
    def test_fig2_and_sweep_regenerate_bit_identically(self):
        grid = np.linspace(-0.02, 0.02, 11)
        assert run_fig2_resonant_transmission(x_grid=grid) == \
            run_fig2_resonant_transmission(x_grid=grid)
        zms = tuple(STAR * s for s in (0.9, 0.97, 1.03, 1.1))
        assert run_threshold_sweep(zeta_m_grid=zms) == \
            run_threshold_sweep(zeta_m_grid=zms)

    def test_datasets_independent_of_thread_count(self, monkeypatch):
        monkeypatch.setenv("COALESCE_THREADS", "1")
        serial = run_fig1_spectra(n_points=301)
        monkeypatch.setenv("COALESCE_THREADS", "3")
        threaded = run_fig1_spectra(n_points=301)
        assert serial == threaded
