"""The package namespace: lazy re-exports, `__all__`, `dir` and `import *`;
the immutability of the package's records; the typed errors of its
entry points."""

import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coalesce
from coalesce import closed_form, core_scatter, spectrum

# defining module -> the names the package re-exports from it
EXPORTED = {
    "closed_form": [
        "ClosedFormReport", "PairPeaks", "bare_linewidth", "bare_resonance",
        "coalescence_threshold", "lossless_eigenmodes", "lossless_pair",
        "mode_splitting", "multilayer_threshold", "pair_center",
        "peak_positions", "report", "resonant_transmission"],
    "core_scatter": [
        "CavitySystem", "effective_polarizability",
        "maximize_stack_polarizability", "reflection_amplitude",
        "transmission"],
    "errors": [
        "AboveThresholdError", "CoalescenceError",
        "DivergentSensitivityError", "EdgeTruncationError",
        "InternalConsistencyError", "InvalidParameterError",
        "NotBracketedError", "PairIdentificationError"],
    "experiments": [
        "FigureDataset", "run_fig1_spectra", "run_fig2_resonant_transmission",
        "run_fig3_mode_pulling", "run_threshold_sweep", "track_resonance"],
    "spectrum": [
        "ResonancePeak", "find_merge_point", "find_peaks", "peak_halfwidth",
        "track"],
    "two_mode": [
        "BOLTZMANN", "HBAR", "MembranePhysical", "PhysicalEnhancement",
        "SensitivityReport", "TwoModeParams", "branch_frequencies",
        "physical_enhancement", "quadratic_coupling_base",
        "readout_sensitivity", "tunneling_rate",
        "two_mode_resonant_transmission", "two_mode_transmission"],
}
NAMES = {name for names in EXPORTED.values() for name in names}
# the plain 2x2 matrices live in tests/plain_product.py
REMOVED = ["scatter_matrix", "propagation_matrix", "system_matrix",
           "stack_matrix", "scan_transmission"]


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_names_resolve_to_their_defining_module(module):
    defining = importlib.import_module(f"coalesce.{module}")
    assert getattr(coalesce, module) is defining
    for name in EXPORTED[module]:
        assert getattr(coalesce, name) is getattr(defining, name), name


def test_all_and_dir_list_the_exports():
    assert set(coalesce.__all__) == NAMES
    assert len(coalesce.__all__) == len(NAMES)
    assert NAMES <= set(dir(coalesce))
    assert "__version__" in dir(coalesce)


def test_star_import_binds_the_exports():
    namespace = {}
    exec("from coalesce import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES
    assert namespace["find_peaks"] is coalesce.spectrum.find_peaks


@pytest.mark.parametrize("name", ["no_such_name", "_EXPORTS_", *REMOVED])
def test_unknown_attribute_raises(name):
    with pytest.raises(AttributeError, match=name):
        getattr(coalesce, name)
    assert not hasattr(importlib.import_module("coalesce.core_scatter"), name)


def test_package_import_loads_no_submodule():
    src = os.path.dirname(os.path.dirname(coalesce.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, coalesce\n"
         "print(sorted(m for m in sys.modules\n"
         "             if m.startswith(('coalesce.', 'numpy'))))\n"
         "print(coalesce.coalescence_threshold(-10.0))\n"
         "print('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "-200.9975124224178", "False"]


def test_submodules_load_through_the_import_system():
    # the package resolves only its exported names, so `from . import
    # closed_form, two_mode` in cli imports both the normal way and
    # -X importtime logs a line for each
    src = os.path.dirname(os.path.dirname(coalesce.__file__))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import coalesce\n"
         "print(hasattr(coalesce, 'two_mode'))\n"
         "import coalesce.cli"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    logged = {line.rsplit("|", 1)[-1].strip()
              for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"coalesce.cli", "coalesce.closed_form",
            "coalesce.two_mode"} <= logged
    assert proc.stdout == "False\n"


def membrane():
    return coalesce.MembranePhysical(mass=1e-10, mech_freq=6e5,
                                     temperature=4.0, wavelength=1e-6,
                                     zeta_m=-150.0)


# one instance of each immutable record, and its fields
RECORDS = {
    "CavitySystem": (lambda: coalesce.CavitySystem.with_middle(-10.0, -50.0),
                     ["zeta_end", "elements"]),
    "ResonancePeak": (lambda: coalesce.ResonancePeak(k_peak=6.2, T_peak=0.5),
                      ["k_peak", "T_peak"]),
    "ClosedFormReport": (lambda: coalesce.report(-10.0, -150.0),
                         ["kappa", "delta", "zeta_m_star", "eps_plus",
                          "eps_minus", "pair_gap"]),
    "TwoModeParams": (
        lambda: coalesce.TwoModeParams.at(
            -10.0, -150.0, coalesce.pair_center(-10.0, -150.0)),
        ["omega", "delta", "kappa", "g_m"]),
    "SensitivityReport": (
        lambda: coalesce.readout_sensitivity(
            -10.0, -150.0, coalesce.pair_center(-10.0, -150.0)),
        ["g2_base", "g2", "enhancement", "x_small_bound", "lamb_dicke_cap"]),
    "MembranePhysical": (membrane, ["mass", "mech_freq", "temperature",
                                    "wavelength", "zeta_m"]),
    "PhysicalEnhancement": (
        lambda: coalesce.physical_enhancement(membrane()),
        ["x_zpf", "x_rms", "nbar", "eta", "lamb_dicke_cap",
         "attainable_enhancement"]),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_refuse_assignment(name):
    make, fields = RECORDS[name]
    record = make()
    assert type(record) is getattr(coalesce, name)
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        assert getattr(record, field) == before


# the values each argument of an entry point may take in place of its
# ordinary one
SPECIAL = (0.0, math.inf, -math.inf, math.nan, 1e308, 1e-320, 2.5, True)
middle = core_scatter.CavitySystem.with_middle
# entry point -> (a call of it on flat arguments, their ordinary values)
ENTRY_POINTS = {
    "bare_resonance": (closed_form.bare_resonance, (1, -10.0)),
    "bare_linewidth": (closed_form.bare_linewidth, (-10.0,)),
    "mode_splitting": (closed_form.mode_splitting, (-50.0,)),
    "coalescence_threshold": (closed_form.coalescence_threshold, (-10.0,)),
    "peak_positions": (closed_form.peak_positions, (-10.0, -50.0, 1)),
    "pair_center": (closed_form.pair_center, (-10.0, -50.0, 1)),
    "resonant_transmission": (closed_form.resonant_transmission,
                              (0.01, -50.0, 6.2)),
    "lossless_eigenmodes": (
        lambda zm, x, lo, hi: closed_form.lossless_eigenmodes(zm, x, (lo, hi)),
        (-50.0, 0.0, 5.9, 6.28)),
    "lossless_pair": (closed_form.lossless_pair, (-50.0, 0.01, 1)),
    "multilayer_threshold": (closed_form.multilayer_threshold, (-10.0, 3)),
    "report": (closed_form.report, (-10.0, -50.0, 1)),
    "sample_transmission": (
        lambda z, zm, x, lo, hi, n: spectrum.sample_transmission(
            middle(z, zm, x), lo, hi, n),
        (-10.0, -50.0, 0.01, 5.8, 6.4, 101)),
    "find_peaks": (
        lambda z, zm, x, lo, hi, g: spectrum.find_peaks(
            middle(z, zm, x), lo, hi, g),
        (-10.0, -50.0, 0.01, 6.0, 6.4, 50)),
    "peak_halfwidth": (
        lambda z, zm, k, t: spectrum.peak_halfwidth(
            middle(z, zm), spectrum.ResonancePeak(k, t)),
        (-10.0, -50.0, 6.18, 0.9)),
    "displacements": (lambda x: spectrum.displacements([x]), (0.01,)),
    "track seeds": (
        lambda z, zm, x, k: spectrum.track(z, zm, [x], seeds=(k,)),
        (-10.0, -50.0, 0.01, 6.18)),
    "track window": (
        lambda z, zm, x, lo, hi: spectrum.track(z, zm, [x], window=(lo, hi)),
        (-10.0, -50.0, 0.01, 6.0, 6.4)),
    "find_merge_point": (
        lambda z, a, b, n: spectrum.find_merge_point(z, (a, b), n),
        (-10.0, -150.0, -250.0, 1)),
    "linspace": (lambda a, b: spectrum.linspace(a, b, 3), (0.0, 1.0)),
    "CavitySystem": (
        lambda z, p, zm: core_scatter.CavitySystem(z, ((p, zm),)),
        (-10.0, 0.5, -50.0)),
    "with_middle": (middle, (-10.0, -50.0, 0.01)),
    "transmission": (
        lambda z, zm, k: core_scatter.transmission(middle(z, zm), k),
        (-10.0, -50.0, 6.2)),
    "transmission of a list": (
        lambda z, zm, k: core_scatter.transmission(middle(z, zm), [6.0, k]),
        (-10.0, -50.0, 6.2)),
    "s_derivatives": (
        lambda z, zm, k: core_scatter.s_derivatives(middle(z, zm), k),
        (-10.0, -50.0, 6.2)),
    "reflection_amplitude": (
        lambda z, zm, k: core_scatter.reflection_amplitude(middle(z, zm), k),
        (-10.0, -50.0, 6.2)),
    "effective_polarizability": (
        lambda p, z, k: core_scatter.effective_polarizability(
            [(p, z), (p + 0.3, z)], k),
        (0.1, -3.0, 6.2)),
    "maximize_stack_polarizability": (
        core_scatter.maximize_stack_polarizability, (-3.0, 3, 6.2)),
}


@given(st.sampled_from(sorted(ENTRY_POINTS)), st.data())
@settings(derandomize=True, max_examples=1000, deadline=None)
def test_only_typed_errors_escape(name, data):
    call, ordinary = ENTRY_POINTS[name]
    args = [data.draw(st.sampled_from((value, *SPECIAL)))
            for value in ordinary]
    # an array entry that overflows warns as numpy does; the float walk
    # overflows silently, and neither is an error
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            call(*args)
        except coalesce.CoalescenceError:
            pass
