"""Exact 1D transfer-matrix model of a cavity with a movable middle reflector.

The package simulates a symmetric Fabry-Perot cavity containing thin
lossless scatterers, locates and refines its transmission resonances,
and cross-checks every observable against closed forms: mode splitting,
peak pulling, the coalescence threshold, displacement-dependent resonant
transmission, avoided-crossing branches, and the enhanced quadratic
readout sensitivity of a movable middle element.

Units: c = 1, L = 1 (wavenumber = angular frequency); SI units appear
only in the membrane enhancement estimates of :mod:`coalesce.two_mode`.
"""

# defined before the submodule imports, which read it back
__version__ = "0.1.0"

from .closed_form import (
    ClosedFormReport,
    PairPeaks,
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
)
from .core_scatter import (
    CavitySystem,
    effective_polarizability,
    maximize_stack_polarizability,
    propagation_matrix,
    reflection_amplitude,
    scatter_matrix,
    stack_matrix,
    system_matrix,
    transmission,
)
from .errors import (
    AboveThresholdError,
    CoalescenceError,
    DivergentSensitivityError,
    EdgeTruncationError,
    InternalConsistencyError,
    InvalidParameterError,
    NotBracketedError,
    PairIdentificationError,
)
from .experiments import (
    FigureDataset,
    run_fig1_spectra,
    run_fig2_resonant_transmission,
    run_fig3_mode_pulling,
    run_threshold_sweep,
    track_resonance,
)
from .spectrum import (
    ResonancePeak,
    find_merge_point,
    find_peaks,
    peak_halfwidth,
    scan_transmission,
    track,
)
from .two_mode import (
    BOLTZMANN,
    HBAR,
    MembranePhysical,
    PhysicalEnhancement,
    SensitivityReport,
    TwoModeParams,
    branch_frequencies,
    physical_enhancement,
    quadratic_coupling_base,
    readout_sensitivity,
    tunneling_rate,
    two_mode_resonant_transmission,
    two_mode_transmission,
)
