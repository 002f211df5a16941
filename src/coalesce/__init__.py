"""Exact 1D transfer-matrix model of a cavity with a movable middle reflector.

The package simulates a symmetric Fabry-Perot cavity containing thin
lossless scatterers, locates and refines its transmission resonances,
and cross-checks every observable against closed forms: mode splitting,
peak pulling, the coalescence threshold, displacement-dependent resonant
transmission, avoided-crossing branches, and the enhanced quadratic
readout sensitivity of a movable middle element.

Units: c = 1, L = 1 (wavenumber = angular frequency); SI units appear
only in the membrane enhancement estimates of :mod:`coalesce.two_mode`.

The names below load their module on first access (PEP 562).  No
module imports numpy at module level; the functions that build arrays
import it when they run.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names the package re-exports from it
_EXPORTS = {
    "closed_form": (
        "ClosedFormReport", "PairPeaks", "bare_linewidth", "bare_resonance",
        "coalescence_threshold", "lossless_eigenmodes", "lossless_pair",
        "mode_splitting", "multilayer_threshold", "pair_center",
        "peak_positions", "report", "resonant_transmission"),
    "core_scatter": (
        "CavitySystem", "effective_polarizability",
        "maximize_stack_polarizability", "reflection_amplitude",
        "transmission"),
    "errors": (
        "AboveThresholdError", "CoalescenceError",
        "DivergentSensitivityError", "EdgeTruncationError",
        "InternalConsistencyError", "InvalidParameterError",
        "NotBracketedError", "PairIdentificationError"),
    "experiments": (
        "FigureDataset", "run_fig1_spectra", "run_fig2_resonant_transmission",
        "run_fig3_mode_pulling", "run_threshold_sweep", "track_resonance"),
    "spectrum": (
        "ResonancePeak", "find_merge_point", "find_peaks", "peak_halfwidth",
        "scan_transmission", "track"),
    "two_mode": (
        "BOLTZMANN", "HBAR", "MembranePhysical", "PhysicalEnhancement",
        "SensitivityReport", "TwoModeParams", "branch_frequencies",
        "physical_enhancement", "quadratic_coupling_base",
        "readout_sensitivity", "tunneling_rate",
        "two_mode_resonant_transmission", "two_mode_transmission"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
