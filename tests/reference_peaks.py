"""Transmission maxima solved to 1e-12, a reference for find_peaks.

``find_peaks`` pins each maximum to its fixed 1e-10; ``tight_peaks``
solves s' = 0 again with :func:`closed_form.newton` to 1e-12, inside
the grid cells of each default peak (k +- kappa/50), so tests can hold
closed forms and tracked peaks against maxima a hundred times tighter.
"""

from coalesce import bare_linewidth, closed_form, find_peaks
from coalesce.core_scatter import s_derivatives


def tight_peaks(system, k_min, k_max):
    """The maxima of T in [k_min, k_max], each pinned to 1e-12 in k."""
    cell = bare_linewidth(system.zeta_end) / 50.0

    def slope(k):
        return s_derivatives(system, k)[1:]

    return [closed_form.newton(slope, p.k_peak - cell, p.k_peak,
                               p.k_peak + cell, 1e-12)
            for p in find_peaks(system, k_min, k_max)]
