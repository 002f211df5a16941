"""The package namespace: lazy re-exports, `__all__`, `dir` and `import *`."""

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
        "scan_transmission", "track"],
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
           "stack_matrix"]


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
    assert not hasattr(coalesce.core_scatter, name)


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
