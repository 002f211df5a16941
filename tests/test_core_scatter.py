"""Transfer-matrix building blocks against their single-element closed forms."""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalesce import (
    CavitySystem,
    InvalidParameterError,
    bare_linewidth,
    bare_resonance,
    coalescence_threshold,
    effective_polarizability,
    maximize_stack_polarizability,
    multilayer_threshold,
    reflection_amplitude,
    transmission,
)
from coalesce import core_scatter
from coalesce.core_scatter import s_derivatives
from plain_product import (
    propagation_matrix,
    scatter_matrix,
    stack_matrix,
    system_matrix,
)

zetas = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
wavenumbers = st.floats(min_value=0.1, max_value=30.0, allow_nan=False)


def det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def det_scale(m):
    return 1.0 + abs(m[0, 0] * m[1, 1]) + abs(m[0, 1] * m[1, 0])


def product_condition(*zetas_in_chain):
    # round-off in a matrix chain scales with the intermediate entry
    # magnitudes, not with the (possibly cancelled) final entries
    scale = 1.0
    for z in zetas_in_chain:
        scale *= 1.0 + 2.0 * abs(z)
    return scale


class TestScatterMatrix:
    def test_transparent_element_is_identity(self):
        np.testing.assert_allclose(scatter_matrix(0.0), np.eye(2), atol=0)

    def test_strong_mirror_intensities(self):
        # |t|^2 = 1/(1+zeta^2), |r|^2 = zeta^2/(1+zeta^2) at zeta = -10
        m = scatter_matrix(-10.0)
        t = 1.0 / m[1, 1]
        r = -m[1, 0] / m[1, 1]
        assert abs(t) ** 2 == pytest.approx(1.0 / 101.0, rel=1e-14)
        assert abs(r) ** 2 == pytest.approx(100.0 / 101.0, rel=1e-14)

    @given(zetas)
    @settings(derandomize=True, max_examples=200)
    def test_lossless_unitarity(self, zeta):
        m = scatter_matrix(zeta)
        t2 = abs(1.0 / m[1, 1]) ** 2
        r2 = abs(m[1, 0] / m[1, 1]) ** 2
        assert r2 + t2 == pytest.approx(1.0, abs=1e-13)

    @given(zetas)
    @settings(derandomize=True, max_examples=200)
    def test_unimodular(self, zeta):
        m = scatter_matrix(zeta)
        assert abs(det2(m) - 1.0) <= 1e-12 * det_scale(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            scatter_matrix(bad)


class TestPropagationMatrix:
    def test_zero_distance_is_identity(self):
        np.testing.assert_allclose(propagation_matrix(2.0, 0.0), np.eye(2))

    def test_half_wave_phase(self):
        np.testing.assert_allclose(propagation_matrix(math.pi, 1.0),
                                   -np.eye(2), atol=1e-15)
        np.testing.assert_allclose(propagation_matrix(2 * math.pi, 0.5),
                                   -np.eye(2), atol=1e-15)

    def test_distance_composition(self):
        k = 3.7
        whole = propagation_matrix(k, 0.9)
        split = propagation_matrix(k, 0.5) @ propagation_matrix(k, 0.4)
        np.testing.assert_allclose(split, whole, rtol=1e-14)

    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidParameterError):
            propagation_matrix(1.0, -0.1)

    def test_nonpositive_wavenumber_rejected(self):
        with pytest.raises(InvalidParameterError):
            propagation_matrix(0.0, 0.5)
        with pytest.raises(InvalidParameterError):
            propagation_matrix(-1.0, 0.5)

    def test_array_wavenumber_shape(self):
        ks = np.linspace(1.0, 2.0, 7)
        m = propagation_matrix(ks, 0.25)
        assert m.shape == (7, 2, 2)
        np.testing.assert_allclose(m[3], propagation_matrix(ks[3], 0.25))


class TestSystemMatrix:
    def test_trivial_system_is_pure_propagation(self):
        sys0 = CavitySystem.empty(0.0)
        k = 2.3
        np.testing.assert_allclose(system_matrix(sys0, k),
                                   propagation_matrix(k, 1.0))

    def test_unit_transmission_at_bare_resonance(self):
        # resonance minimizes |m22|^2 = z^4 + (1+z^2)^2
        #                    + 2 z^2 (1+z^2) cos(2k + 2 arctan z) down to 1
        sys10 = CavitySystem.empty(-10.0)
        k_res = bare_resonance(1, -10.0)
        m = system_matrix(sys10, k_res)
        assert abs(m[1, 1]) == pytest.approx(1.0, abs=1e-10)

    def test_reversal_leaves_transmission_unchanged(self):
        elements = ((0.21, -3.0), (0.58, 4.5), (0.83, -1.2))
        fwd = CavitySystem(zeta_end=-6.0, elements=elements)
        rev = CavitySystem(zeta_end=-6.0, elements=tuple(
            (1.0 - p, z) for p, z in reversed(elements)))
        for k in (1.1, 4.8, 6.2, 17.3):
            assert transmission(fwd, k) == pytest.approx(
                transmission(rev, k), abs=1e-12)

    def test_composition_associativity(self):
        k = 6.1
        mats = [scatter_matrix(-10.0), propagation_matrix(k, 0.5),
                scatter_matrix(-50.0), propagation_matrix(k, 0.5),
                scatter_matrix(-10.0)]
        left = mats[4] @ mats[3] @ mats[2] @ mats[1] @ mats[0]
        right = mats[4] @ (mats[3] @ (mats[2] @ (mats[1] @ mats[0])))
        mixed = (mats[4] @ mats[3]) @ (mats[2] @ (mats[1] @ mats[0]))
        scale = np.max(np.abs(left))
        np.testing.assert_allclose(right, left, atol=1e-12 * scale)
        np.testing.assert_allclose(mixed, left, atol=1e-12 * scale)
        sys_mid = CavitySystem.with_middle(-10.0, -50.0)
        np.testing.assert_allclose(system_matrix(sys_mid, k), left,
                                   atol=1e-12 * scale)

    @given(zetas, zetas, wavenumbers)
    @settings(derandomize=True, max_examples=300)
    def test_system_unimodular(self, zeta_end, zeta_m, k):
        m = system_matrix(CavitySystem.with_middle(zeta_end, zeta_m), k)
        cond = product_condition(zeta_end, zeta_m, zeta_end)
        assert abs(det2(m) - 1.0) <= 1e-12 * max(det_scale(m), cond)


class TestTransmission:
    def test_single_element_formula(self):
        # transparent end mirrors leave only the middle scatterer
        for zm in (-0.5, -5.0, -50.0):
            sys1 = CavitySystem.with_middle(0.0, zm)
            for k in (1.0, 6.28, 11.0):
                assert transmission(sys1, k) == pytest.approx(
                    1.0 / (1.0 + zm * zm), rel=1e-12)

    def test_empty_cavity_resonance_is_unity(self):
        sys10 = CavitySystem.empty(-10.0)
        assert transmission(sys10, bare_resonance(1, -10.0)) == pytest.approx(
            1.0, abs=1e-9)
        assert transmission(sys10, bare_resonance(2, -10.0)) == pytest.approx(
            1.0, abs=1e-9)

    def test_below_threshold_pair_structure(self):
        # two maxima per 2 pi with a deep dip between them; the refined
        # maxima themselves reach unity for the centered lossless cavity
        sys50 = CavitySystem.with_middle(-10.0, -50.0)
        ks = np.linspace(2 * math.pi - 0.5, 2 * math.pi + 0.1, 12001)
        ts = transmission(sys50, ks)
        rising = ts[1:-1] > ts[:-2]
        falling = ts[1:-1] >= ts[2:]
        maxima = np.flatnonzero(rising & falling) + 1
        prominent = [i for i in maxima if ts[i] > 0.5]
        assert len(prominent) == 2
        k_lo, k_hi = ks[prominent[0]], ks[prominent[1]]
        dip = float(np.min(ts[prominent[0]:prominent[1] + 1]))
        assert dip < 0.3
        assert max(ts[prominent]) <= 1.0

    def test_transmission_never_exceeds_unity(self):
        sys_m = CavitySystem.with_middle(-10.0, -196.6)
        ks = np.linspace(0.5, 20.0, 20001)
        assert float(np.max(transmission(sys_m, ks))) <= 1.0

    def test_list_is_the_scalar_kernel_point_by_point(self):
        system = CavitySystem.with_middle(-10.0, -196.6, 0.01)
        ks = np.linspace(5.9, 6.4, 501).tolist()
        got = transmission(system, ks)
        assert type(got) is list
        assert got == [transmission(system, k) for k in ks]
        # numpy's complex products round apart from Python's
        np.testing.assert_allclose(got, transmission(system, np.array(ks)),
                                   rtol=1e-12, atol=0.0)
        assert transmission(system, []) == []

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_list_wavenumbers_checked(self, bad):
        with pytest.raises(InvalidParameterError):
            transmission(CavitySystem.empty(-10.0), [6.0, bad])


# systems whose mirror-to-mirror walks have one hop, two equal gaps
# (x = 0), two unequal gaps and four gaps (a three-element stack)
WALKS = {
    "one hop": CavitySystem.empty(-10.0),
    "equal gaps": CavitySystem.with_middle(-10.0, -196.6),
    "unequal gaps": CavitySystem.with_middle(-10.0, -196.6, 0.01),
    "three elements": CavitySystem(-10.0, ((0.2, -3.0), (0.45, -50.0),
                                           (0.8, -7.0))),
}


class TestOneWalk:
    """An array k walks the hops of _compose as a float k does, point by
    point; numpy's complex products may round apart from Python's."""

    SHAPES = [(60,), (6, 10)]

    @staticmethod
    def wavenumbers(shape):
        return np.linspace(5.9, 6.6, math.prod(shape)).reshape(shape)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("hops", [()] + [s._hops for s in WALKS.values()],
                             ids=["no hop", *WALKS])
    def test_entries_match_the_float_walk(self, hops, shape):
        k = self.wavenumbers(shape)
        a, b = core_scatter._compose(-10.0, hops, k)
        assert a.shape == b.shape == shape
        walked = [core_scatter._compose(-10.0, hops, v) for v in k.flat]
        for got, want in ((a, [p[0] for p in walked]),
                          (b, [p[1] for p in walked])):
            np.testing.assert_allclose(got.ravel(), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("name", list(WALKS))
    def test_transmission_and_reflection_match(self, name, shape):
        system, k = WALKS[name], self.wavenumbers(shape)
        ts, rs = transmission(system, k), reflection_amplitude(system, k)
        assert ts.shape == rs.shape == shape
        np.testing.assert_allclose(
            ts.ravel(), [transmission(system, v) for v in k.flat],
            rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            rs.ravel(), [reflection_amplitude(system, v) for v in k.flat],
            rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_no_hop_keeps_the_shape(self, shape):
        k = self.wavenumbers(shape)
        got = effective_polarizability([(0.5, -3.0)], k)
        assert got.shape == shape and np.all(got == 3.0)


class TestGrid:
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_scalar_kernel_up_to_the_bound(self, hops):
        n = core_scatter.SCALAR_GRID_WORK // hops
        short = core_scatter.grid(2.0, 9.0, n, hops)
        long = core_scatter.grid(2.0, 9.0, n + 1, hops)
        assert type(short) is list and type(long) is np.ndarray
        assert short == np.linspace(2.0, 9.0, n).tolist()
        assert np.array_equal(long, np.linspace(2.0, 9.0, n + 1))


class TestReflectionAmplitude:
    def test_transparent_element_reflects_nothing(self):
        sys0 = CavitySystem.with_middle(0.0, 0.0)
        assert abs(reflection_amplitude(sys0, 2.0)) < 1e-14

    def test_single_element_reflectivity(self):
        sys1 = CavitySystem.with_middle(0.0, -10.0)
        r = reflection_amplitude(sys1, 4.4)
        assert abs(r) ** 2 == pytest.approx(100.0 / 101.0, rel=1e-12)

    @given(zetas, zetas, wavenumbers)
    @settings(derandomize=True, max_examples=300)
    def test_energy_conservation(self, zeta_end, zeta_m, k):
        sys_rand = CavitySystem.with_middle(zeta_end, zeta_m)
        r2 = abs(reflection_amplitude(sys_rand, k)) ** 2
        assert r2 + transmission(sys_rand, k) == pytest.approx(1.0,
                                                               abs=1e-10)


class TestEffectivePolarizability:
    def test_single_element_exact_and_k_independent(self):
        for zm in (-10.0, -0.3, 7.0):
            vals = [effective_polarizability([(0.5, zm)], k)
                    for k in (0.7, 3.1, 12.0)]
            assert all(v == abs(zm) for v in vals)

    def test_empty_stack_rejected(self):
        with pytest.raises(InvalidParameterError):
            effective_polarizability([], 2.0)

    def test_single_element_broadcasts_over_array_k(self):
        ks = np.array([1.0, 2.0, 3.0])
        vals = effective_polarizability([(0.5, -2.0)], ks)
        assert vals.shape == (3,) and np.all(vals == 2.0)
        mats = stack_matrix([(0.5, -2.0)], ks)
        assert mats.shape == (3, 2, 2)
        assert np.all(mats == scatter_matrix(-2.0))
        assert stack_matrix([(0.5, -2.0)], np.full((2, 4), 1.5)).shape == (
            2, 4, 2, 2)

    def test_two_elements_beat_twice_one(self):
        # optimal pair reaches 2 |z| sqrt(1+z^2) >= 2 |z| for |z| >= 1
        for z in (-1.0, -2.0):
            best, spacing = maximize_stack_polarizability(z, 2)
            assert best >= 2.0 * abs(z)
            assert best == pytest.approx(2 * abs(z) * math.hypot(z, 1.0),
                                         rel=1e-6)
            direct = effective_polarizability(
                [(0.1, z), (0.1 + spacing, z)], 2.0 * math.pi)
            assert direct == pytest.approx(best, rel=1e-12)

    def test_growth_is_roughly_exponential(self):
        values = [maximize_stack_polarizability(-1.0, n)[0]
                  for n in range(1, 5)]
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert all(r >= 1.8 for r in ratios)

    def test_float_k_gives_the_array_value(self):
        elements = [(0.1, -1.3), (0.25, -0.7), (0.4, 2.0)]
        ks = [0.5, 2.0, 6.3]
        values = effective_polarizability(elements, np.array(ks))
        for k, value in zip(ks, values.tolist()):
            got = effective_polarizability(elements, k)
            assert type(got) is float
            assert got == pytest.approx(value, rel=1e-13)

    def test_overflowing_stack_is_inf(self):
        elements = [(0.1, -1e200), (0.3, -1e200), (0.5, -1e200)]
        assert effective_polarizability(elements, 2.0) == math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            values = effective_polarizability(elements, np.array([2.0, 3.0]))
        assert values.tolist() == [math.inf] * 2

    def test_overflowing_scan_is_inf(self):
        # as effective_polarizability reports the same stack, where the
        # product's entries overflow to inf or NaN
        best, spacing = maximize_stack_polarizability(-1e200, 3)
        assert best == math.inf
        assert effective_polarizability(
            [(0.1, -1e200), (0.1 + spacing, -1e200),
             (0.1 + 2 * spacing, -1e200)], 2.0 * math.pi) == math.inf

    @pytest.mark.parametrize("n", [2.7, 2.0, "3", None])
    def test_non_integer_element_count_refused(self, n):
        with pytest.raises(InvalidParameterError, match="n_elements"):
            maximize_stack_polarizability(-1.0, n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kwargs", [
        {"k": math.nan}, {"k": math.inf}, {"k": -1.0}, {"k": 0.0}],
        ids=repr)
    def test_bad_scan_refused(self, n, kwargs):
        with pytest.raises(InvalidParameterError):
            maximize_stack_polarizability(-1.0, n, **kwargs)

    def test_stack_matrix_monotone_positions_required(self):
        with pytest.raises(InvalidParameterError):
            stack_matrix([(0.5, -1.0), (0.4, -1.0)], 2.0)


class TestCavitySystemValidation:
    def test_positions_must_increase(self):
        with pytest.raises(InvalidParameterError):
            CavitySystem(zeta_end=-1.0, elements=((0.6, -1.0), (0.4, -1.0)))

    def test_positions_inside_cavity(self):
        with pytest.raises(InvalidParameterError):
            CavitySystem(zeta_end=-1.0, elements=((1.2, -1.0),))
        with pytest.raises(InvalidParameterError):
            CavitySystem.with_middle(-1.0, -1.0, displacement=0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParameterError):
            CavitySystem(zeta_end=math.nan)
        with pytest.raises(InvalidParameterError):
            CavitySystem(zeta_end=-1.0, elements=((0.5, math.inf),))

    def test_replace_checks_and_rederives(self):
        system = CavitySystem.with_middle(-10.0, -50.0)
        with pytest.raises(InvalidParameterError, match="strictly inside"):
            system._replace(elements=((1.2, -1.0),))
        moved = system._replace(elements=((0.6, -50.0),))
        assert transmission(moved, 6.2) == transmission(
            CavitySystem.with_middle(-10.0, -50.0, 0.1), 6.2)


class TestParity:
    @given(st.floats(-10.0, -0.2), st.floats(-40.0, 40.0),
           st.floats(-0.45, 0.45), wavenumbers)
    @settings(derandomize=True, max_examples=300)
    def test_mirror_displacement_symmetry(self, zeta_end, zeta_m, x, k):
        plus = CavitySystem.with_middle(zeta_end, zeta_m, x)
        minus = CavitySystem.with_middle(zeta_end, zeta_m, -x)
        assert transmission(plus, k) == pytest.approx(
            transmission(minus, k), abs=1e-12)


def plain_product(mats):
    # matrices listed left to right along the axis; each one acts after
    # the ones before it
    return reduce(lambda m, nxt: nxt @ m, mats)


def chain(first_zeta, hops, k):
    mats = [scatter_matrix(first_zeta)]
    for d, zeta in hops:
        mats += [propagation_matrix(k, d), scatter_matrix(zeta)]
    return mats


strong_zetas = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
wide_ks = st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1,
                   max_size=4)
element_lists = st.lists(
    st.tuples(st.floats(min_value=0.001, max_value=0.999), strong_zetas),
    min_size=1, max_size=8, unique_by=lambda el: el[0]).map(sorted)


def assert_matches_plain(fast, plain, err):
    # fast: a (..., 2, 2) matrix; err bounds the round-off of any entry
    np.testing.assert_allclose(fast, plain, rtol=0, atol=err)
    np.testing.assert_array_equal(fast[..., 1, 1], np.conj(fast[..., 0, 0]))
    np.testing.assert_array_equal(fast[..., 1, 0], np.conj(fast[..., 0, 1]))


class TestKernelAgainstPlainProduct:
    """The (a, b) kernel against the explicit 2x2 product of the factors.

    Every entry of a chain is bounded by ``product_condition`` of its
    polarizabilities, so 1e-12 of it bounds the round-off ``err`` of any
    entry; T and r inherit their bounds from err through
    T = 1/(1 + |m21|^2) and r = -m21/m22 with |m22| >= 1.
    """

    @given(strong_zetas, element_lists, wide_ks)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_system(self, zeta_end, elements, ks):
        system = CavitySystem(zeta_end=zeta_end, elements=tuple(elements))
        hops, pos = [], 0.0
        for p, z in elements:
            hops.append((p - pos, z))
            pos = p
        hops.append((1.0 - pos, zeta_end))
        err = 1e-12 * product_condition(
            zeta_end, zeta_end, *(z for _, z in elements))
        for k in (ks[0], np.array(ks), list(ks)):
            plain = plain_product(chain(zeta_end, hops, k))
            assert_matches_plain(system_matrix(system, k), plain, err)
            m21, m22 = plain[..., 1, 0], plain[..., 1, 1]
            t_plain = 1.0 / (1.0 + np.abs(m21) ** 2)
            t_err = t_plain ** 2 * (2.0 * np.abs(m21) * err + err ** 2)
            t_fast = transmission(system, k)
            r_fast = reflection_amplitude(system, k)
            assert np.ndim(t_fast) == np.ndim(r_fast) == np.ndim(k)
            assert np.all(np.abs(t_fast - t_plain) <= t_err + 1e-15)
            r_err = 2.0 * err / np.abs(m22)
            assert np.all(np.abs(r_fast - (-m21 / m22)) <= r_err + 1e-15)

    @given(element_lists, wide_ks)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_stack(self, elements, ks):
        hops = [(p - q, z) for (q, _), (p, z) in zip(elements, elements[1:])]
        err = 1e-12 * product_condition(*(z for _, z in elements))
        for k in (ks[0], np.array(ks)):
            # a one-element chain has no propagation factor to carry k's
            # shape, but a stack matrix has k's shape in any case
            plain = np.broadcast_to(
                plain_product(chain(elements[0][1], hops, k)),
                np.shape(k) + (2, 2))
            assert_matches_plain(stack_matrix(elements, k), plain, err)
            zeta_eff = effective_polarizability(elements, k)
            assert np.all(np.abs(zeta_eff - np.abs(plain[..., 1, 0])) <= err)


class TestBraggStack:
    """The optimal uniform stack sits at the centre of its stop band.

    There k*d = pi - (atan(zeta) mod pi) and |r/t| = sinh(N asinh|zeta|).
    """

    @given(st.floats(-200.0, 200.0, allow_subnormal=False).filter(bool),
           st.integers(2, 8), st.floats(0.5, 10.0))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_is_the_maximum(self, zeta, n, k):
        best, spacing = maximize_stack_polarizability(zeta, n, k)
        assert 0.0 < spacing <= math.pi / k
        hops = [(spacing, zeta)] * (n - 1)
        plain = abs(plain_product(chain(zeta, hops, k))[1, 0])
        assert best == pytest.approx(plain, rel=1e-12)
        assert best == pytest.approx(math.sinh(n * math.asinh(abs(zeta))),
                                     rel=1e-12)
        ds = np.linspace(math.pi / k / 2001, math.pi / k, 2001)
        scan = np.abs(plain_product(
            chain(zeta, [(1.0, zeta)] * (n - 1), k * ds))[..., 1, 0])
        assert scan.max() <= best * (1.0 + 1e-12)

    @pytest.mark.parametrize("zeta, spacing", [(-30.0, 0.24470),
                                               (-100.0, 0.24841)])
    def test_strong_pair_not_clipped(self, zeta, spacing):
        # a scan over (0, 0.24] returned its end, 1800.216 and 19973.09
        best, got = maximize_stack_polarizability(zeta, 2)
        assert best == pytest.approx(
            abs(coalescence_threshold(zeta)), rel=1e-12)
        assert got == pytest.approx(spacing, abs=1e-5)
        assert got == pytest.approx(math.atan(-zeta) / (2.0 * math.pi),
                                    rel=1e-15)

    @pytest.mark.parametrize("zeta, ratios", [
        (-10.0, (1.0, 1.050, 1.199, 1.489)),
        (-100.0, (1.0, 1.0025, 1.020, 1.073))])
    def test_multilayer_threshold_overshoot(self, zeta, ratios):
        # elements of multilayer_threshold's strength, optimally stacked,
        # against the |zeta_m_star| they are meant to reach: exact for
        # N = 2, too strong for N >= 3
        star = abs(coalescence_threshold(zeta))
        got = [maximize_stack_polarizability(
            -multilayer_threshold(zeta, n), n)[0] / star for n in (2, 3, 4, 5)]
        assert got[0] == pytest.approx(1.0, rel=1e-12)
        assert got == pytest.approx(ratios, abs=1e-3)


class TestBlockedKernel:
    """Array k runs in blocks of ``_BLOCK`` points; blocks change no bit."""

    def test_slices_across_block_borders(self):
        system = CavitySystem.with_middle(-10.0, -196.6, 0.01)
        n = core_scatter._BLOCK
        ks = np.linspace(5.0, 7.5, 3 * n + 5)
        whole = transmission(system, ks)
        for length in (n - 1, n, n + 1):
            for start in (0, 1, n - 3, n - 1, n, 2 * n - length // 2):
                part = slice(start, start + length)
                assert np.array_equal(whole[part],
                                      transmission(system, ks[part]))

    def test_shape_kept(self):
        ks = np.linspace(2.0, 4.0, 12).reshape(3, 4)[:, ::2]
        out = transmission(CavitySystem.empty(-10.0), ks)
        assert out.shape == (3, 2)
        assert np.array_equal(out.ravel(), transmission(
            CavitySystem.empty(-10.0), ks.ravel()))
        assert transmission(CavitySystem.empty(-10.0), np.array([])).size == 0


def plain_s(zeta_end, zeta_m, x, ks):
    hops = [(0.5 + x, zeta_m), (0.5 - x, zeta_end)]
    return np.abs(plain_product(chain(zeta_end, hops, ks))[..., 1, 0]) ** 2


class TestSDerivatives:
    """s = |m21|^2 and its k-derivatives against the plain 2x2 product.

    The reference differentiates the plain product numerically: central
    differences at steps h and h/2, Richardson-extrapolated (error
    O(h^4)), with h a twentieth of the scale w on which s varies: the
    linewidth kappa, or 0.1 for weak mirrors, whose phases e^{ikd} vary
    on a scale of 1.  Each derivative must agree to 1e-6 of its natural
    scale, the sum of |s|, |s'| w and |s''| w^2 over w to its order.
    """

    @given(st.one_of(st.just(-100.0), st.floats(-100.0, -0.3)),
           st.floats(-1000.0, 0.0), st.floats(-0.24, 0.24),
           st.floats(0.5, 20.0))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_against_richardson_differences(self, zeta, zeta_m, x, k):
        system = CavitySystem.with_middle(zeta, zeta_m, x)
        s, ds, d2s = s_derivatives(system, k)
        w = min(bare_linewidth(zeta), 0.1)
        h = w / 20.0
        grid = k + np.array([-h, -0.5 * h, 0.0, 0.5 * h, h])
        sm, smh, s0, sph, sp = plain_s(zeta, zeta_m, x, grid)
        d1 = [(sp - sm) / (2 * h), (sph - smh) / h]
        d2 = [(sp - 2 * s0 + sm) / h ** 2, 4 * (sph - 2 * s0 + smh) / h ** 2]
        d1 = (4 * d1[1] - d1[0]) / 3
        d2 = (4 * d2[1] - d2[0]) / 3
        scale = abs(s) + abs(ds) * w + abs(d2s) * w ** 2
        assert abs(s - s0) <= 1e-9 * scale
        assert abs(ds - d1) <= 1e-6 * scale / w
        assert abs(d2s - d2) <= 1e-6 * scale / w ** 2

    @given(st.floats(-50.0, -0.3), st.floats(-500.0, 0.0),
           st.floats(-0.24, 0.24), wavenumbers)
    @settings(derandomize=True, max_examples=100)
    def test_s_is_what_transmission_inverts(self, zeta, zeta_m, x, k):
        system = CavitySystem.with_middle(zeta, zeta_m, x)
        assert transmission(system, k) == 1.0 / (1.0 + s_derivatives(
            system, k)[0])

    def test_scalar_k_only(self):
        with pytest.raises(InvalidParameterError):
            s_derivatives(CavitySystem.empty(-10.0), np.array([3.0, 3.1]))
        with pytest.raises(InvalidParameterError):
            s_derivatives(CavitySystem.empty(-10.0), -1.0)
