"""The package namespace: lazy re-exports, `__all__`, `dir` and `import *`;
the immutability of the package's records."""

import importlib
import os
import subprocess
import sys

import pytest

import coalesce

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
