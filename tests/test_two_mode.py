"""Two-mode model: interference profile, branches, readout sensitivity."""

import math

import numpy as np
import pytest

from coalesce import (
    DivergentSensitivityError,
    InvalidParameterError,
    MembranePhysical,
    TwoModeParams,
    bare_linewidth,
    branch_frequencies,
    coalescence_threshold,
    mode_splitting,
    pair_center,
    physical_enhancement,
    quadratic_coupling_base,
    readout_sensitivity,
    tunneling_rate,
    two_mode_resonant_transmission,
    two_mode_transmission,
)

# frozen reference configuration (zeta = -10, zeta_m = -196.6, pair n = 1)
OMEGA = 6.1784302285639345
DELTA = 0.005086426124490772
KAPPA = 4.975185951049945e-3
G_M = 12.356807174693378
GAP = 0.002115897419420383          # 2 sqrt(delta^2 - kappa^2)
ENHANCEMENT = 4.7830467849337       # 2 zeta^2 / sqrt(star^2 - zeta_m^2)


def reference_params():
    return TwoModeParams.from_polarizabilities(-10.0, -196.6)


class TestTwoModeTransmission:
    def test_unity_at_coalescence_midpoint(self):
        p = TwoModeParams(omega=6.0, delta=0.01, kappa=0.01, g_m=0.0)
        assert two_mode_transmission(p, 6.0) == pytest.approx(1.0, abs=1e-14)

    def test_quartic_profile_at_coalescence(self):
        # delta = kappa: T = 1 / (1 + (detuning / (sqrt(2) kappa))^4)
        kappa = 0.01
        p = TwoModeParams(omega=6.0, delta=kappa, kappa=kappa, g_m=0.0)
        detunings = np.linspace(-10 * kappa, 10 * kappa, 101)
        expected = 1.0 / (1.0 + (detunings / (math.sqrt(2) * kappa)) ** 4)
        got = two_mode_transmission(p, 6.0 + detunings)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_split_maxima_location_and_height(self):
        p = reference_params()
        shift = math.sqrt(p.delta ** 2 - p.kappa ** 2)
        for probe in (p.omega - shift, p.omega + shift):
            assert two_mode_transmission(p, probe) == pytest.approx(1.0,
                                                                    abs=1e-12)
        grid = np.linspace(p.omega - 5 * p.kappa, p.omega + 5 * p.kappa, 20001)
        values = two_mode_transmission(p, grid)
        best = grid[int(np.argmax(values))]
        assert min(abs(best - (p.omega - shift)),
                   abs(best - (p.omega + shift))) < grid[1] - grid[0]

    def test_bounded(self):
        p = reference_params()
        grid = np.linspace(p.omega - 2.0, p.omega + 2.0, 5001)
        values = two_mode_transmission(p, grid)
        assert np.all(values >= 0.0) and np.all(values <= 1.0 + 1e-12)


class TestTunnelingRate:
    def test_strong_reflector_limit(self):
        assert tunneling_rate(-1e9, 3.0) == pytest.approx(6.0, rel=1e-9)

    def test_transparent_limit(self):
        assert tunneling_rate(0.0, 3.0) == 0.0
        assert tunneling_rate(-1e-12, 3.0) < 1e-5

    def test_frozen_value(self):
        assert tunneling_rate(-196.6, OMEGA) == pytest.approx(G_M, rel=1e-12)
        assert tunneling_rate(-196.6, OMEGA) == pytest.approx(12.36, rel=1e-3)

    def test_square_is_splitting_product(self):
        # g_m^2 = 4 omega^2 |zeta_m| delta for every branch-safe zeta_m
        for zm in (-0.5, -1.0, -7.3, -196.6, 42.0):
            g = tunneling_rate(zm, OMEGA)
            assert g * g == pytest.approx(
                4 * OMEGA ** 2 * abs(zm) * 0.5 * mode_splitting(zm),
                rel=1e-12)

    def test_bad_omega(self):
        with pytest.raises(InvalidParameterError):
            tunneling_rate(-10.0, 0.0)


class TestBranchFrequencies:
    def test_degenerate_at_threshold_center(self):
        p = TwoModeParams(omega=6.0, delta=0.01, kappa=0.01, g_m=10.0)
        lo, hi = branch_frequencies(p, 0.0)
        assert lo == hi == 6.0

    def test_frozen_gap(self):
        p = reference_params()
        lo, hi = branch_frequencies(p, 0.0)
        assert hi - lo == pytest.approx(GAP, rel=1e-10)

    def test_linear_asymptote(self):
        p = reference_params()
        x = 50 * p.delta / p.g_m
        lo, hi = branch_frequencies(p, x)
        assert hi - lo == pytest.approx(2 * p.g_m * x, rel=1e-3)

    def test_merged_regime_is_none(self):
        p = TwoModeParams(omega=6.0, delta=0.004, kappa=0.005, g_m=10.0)
        assert branch_frequencies(p, 0.0) is None
        assert branch_frequencies(p, 1e-3) is not None

    @pytest.mark.parametrize("zeta_m", [-150.0, -170.0, -196.6])
    def test_centered_gap_matches_pulled_peak_formula(self, zeta_m):
        from coalesce import peak_positions
        p = TwoModeParams.from_polarizabilities(-10.0, zeta_m)
        lo, hi = branch_frequencies(p, 0.0)
        assert hi - lo == pytest.approx(peak_positions(-10.0, zeta_m).gap,
                                        rel=0.01)


class TestTwoModeResonantTransmission:
    def test_center_and_half_point(self):
        p = reference_params()
        assert two_mode_resonant_transmission(p, 0.0) == 1.0
        assert two_mode_resonant_transmission(p, p.delta / p.g_m) == \
            pytest.approx(0.5, rel=1e-12)

    def test_zero_delta_rules(self):
        p = TwoModeParams(omega=6.0, delta=0.0, kappa=0.01, g_m=1.0)
        assert two_mode_resonant_transmission(p, 0.0) == 1.0
        with pytest.raises(InvalidParameterError):
            two_mode_resonant_transmission(p, 0.1)

    @pytest.mark.parametrize("zeta_m", [-10.0, -50.0])
    def test_quadratic_coefficient_matches_displacement_formula(self, zeta_m):
        # curvature ratio (g_m/delta)^2 / (2 omega zeta_m)^2 = 1/(|zm| delta)
        p = TwoModeParams.from_polarizabilities(-10.0, zeta_m)
        h = 1e-6
        def curv(f):
            return (f(h) - 2.0 * f(0.0) + f(-h)) / h ** 2
        from coalesce import resonant_transmission
        c_model = curv(lambda x: two_mode_resonant_transmission(p, x))
        c_formula = curv(lambda x: resonant_transmission(x, zeta_m, p.omega))
        assert c_model == pytest.approx(c_formula, rel=0.01)


class TestQuadraticCouplingBase:
    def test_zero_and_linearity(self):
        assert quadratic_coupling_base(0.0, OMEGA) == 0.0
        one = quadratic_coupling_base(-50.0, OMEGA)
        assert quadratic_coupling_base(-100.0, OMEGA) == pytest.approx(
            2.0 * one, rel=1e-14)

    def test_frozen_value(self):
        base = quadratic_coupling_base(-196.6, OMEGA)
        assert base == pytest.approx(15009.623635086256, rel=1e-12)
        assert base == pytest.approx(1.501e4, rel=1e-3)

    def test_independent_of_end_mirrors(self):
        # backaction does not see the enhancement: no zeta dependence
        reports = [readout_sensitivity(z, -50.0, OMEGA).g2_base
                   for z in (-10.0, -20.0, -40.0)]
        assert reports[0] == reports[1] == reports[2]


class TestReadoutSensitivity:
    def test_frozen_enhancement(self):
        rep = readout_sensitivity(-10.0, -196.6, OMEGA)
        assert rep.enhancement == pytest.approx(ENHANCEMENT, rel=1e-12)
        assert rep.g2 == pytest.approx(rep.enhancement * rep.g2_base,
                                       rel=1e-14)
        assert rep.g2 == pytest.approx(7.17e4, rel=2e-3)

    def test_matches_two_mode_curvature_closed_form(self):
        # G2 = g_m^2 / (2 sqrt(delta^2 - kappa^2)) within 1% for |zeta| >= 10
        rep = readout_sensitivity(-10.0, -196.6, OMEGA)
        alt = G_M ** 2 / (2.0 * math.sqrt(DELTA ** 2 - KAPPA ** 2))
        assert rep.g2 == pytest.approx(alt, rel=0.01)

    def test_far_from_threshold_is_bare_coupling(self):
        rep = readout_sensitivity(-10.0, -5.0, OMEGA)
        assert rep.enhancement == pytest.approx(1.0, rel=0.01)

    def test_divergence_guard(self):
        star = coalescence_threshold(-10.0)
        with pytest.raises(DivergentSensitivityError):
            readout_sensitivity(-10.0, star, OMEGA)
        with pytest.raises(DivergentSensitivityError):
            readout_sensitivity(-10.0, -250.0, OMEGA)

    def test_monotone_enhancement_and_shrinking_window(self):
        zms = (-50.0, -120.0, -170.0, -196.6, -200.0)
        reps = [readout_sensitivity(-10.0, zm, OMEGA) for zm in zms]
        enh = [r.enhancement for r in reps]
        bounds = [r.x_small_bound for r in reps]
        assert enh == sorted(enh)
        assert bounds == sorted(bounds, reverse=True)

    def test_frozen_validity_bound(self):
        rep = readout_sensitivity(-10.0, -196.6, OMEGA)
        assert rep.x_small_bound == pytest.approx(8.561667223203581e-05,
                                                  rel=1e-10)
        assert rep.lamb_dicke_cap > rep.enhancement


class TestPhysicalEnhancement:
    def membrane(self, temperature):
        # 100 ng, 2 pi x 100 kHz, 1 um light
        return MembranePhysical(mass=1e-10, mech_freq=2 * math.pi * 1e5,
                                temperature=temperature, wavelength=1e-6,
                                zeta_m=-10.0)

    def test_zero_point_scale(self):
        rec = physical_enhancement(self.membrane(0.0))
        # sqrt(hbar / (2 m omega)) = 9.1608e-16 m
        assert rec.x_zpf == pytest.approx(9.160794657696231e-16, rel=1e-12)
        assert rec.nbar == 0.0
        assert rec.x_rms == rec.x_zpf

    def test_thermal_occupation_at_4k(self):
        rec = physical_enhancement(self.membrane(4.0))
        assert rec.nbar == pytest.approx(833464.2654438829, rel=1e-9)
        assert rec.x_rms / rec.x_zpf == pytest.approx(1291.0962515969775,
                                                      rel=1e-9)

    def test_cap_ratio_is_thermal_amplitude_ratio(self):
        cold = physical_enhancement(self.membrane(0.0))
        warm = physical_enhancement(self.membrane(4.0))
        ratio = cold.lamb_dicke_cap / warm.lamb_dicke_cap
        assert ratio == pytest.approx(math.sqrt(2 * warm.nbar + 1), rel=1e-12)
        assert ratio == pytest.approx(1.29e3, rel=0.02)

    def test_attainable_enhancement_margin(self):
        rec = physical_enhancement(self.membrane(0.0))
        assert rec.attainable_enhancement == rec.lamb_dicke_cap / 10.0

    def test_invalid_membranes_rejected(self):
        with pytest.raises(InvalidParameterError):
            MembranePhysical(mass=0.0, mech_freq=1.0, temperature=0.0,
                             wavelength=1e-6, zeta_m=-10.0)
        with pytest.raises(InvalidParameterError):
            MembranePhysical(mass=1e-10, mech_freq=1.0, temperature=-1.0,
                             wavelength=1e-6, zeta_m=-10.0)


class TestParamsFactory:
    def test_reference_values(self):
        p = reference_params()
        assert p.omega == pytest.approx(OMEGA, rel=1e-13)
        assert p.delta == pytest.approx(DELTA, rel=1e-13)
        assert p.kappa == pytest.approx(KAPPA, rel=1e-13)
        assert p.g_m == pytest.approx(G_M, rel=1e-13)
        assert p.omega == pytest.approx(pair_center(-10.0, -196.6), rel=1e-15)
        assert p.kappa == bare_linewidth(-10.0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            TwoModeParams(omega=6.0, delta=0.01, kappa=0.0, g_m=1.0)
        with pytest.raises(InvalidParameterError):
            TwoModeParams(omega=6.0, delta=-0.01, kappa=0.01, g_m=1.0)
