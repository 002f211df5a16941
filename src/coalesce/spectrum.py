"""Transmission scans, peak location/refinement, and branch tracking.

All searches run on a wavenumber grid sized against the bare cavity
linewidth kappa (grid step = kappa / grid_per_kappa), detect local
maxima with a small prominence floor (so the flat top of a merging pair
is not miscounted as several noise peaks), and polish each maximum with
iterated three-point parabolic interpolation inside its bracketing grid
cell.  The grid maxima and their prominences are computed in-house,
with the rules of SciPy's ``signal.find_peaks``, and half-widths use
:func:`closed_form.bisect`, so numpy is the only runtime dependency.
Everything is a pure function of its inputs: identical calls
return identical results, and grids may be evaluated in parallel as long
as results are assembled in input order (numpy evaluation here is
already ordered).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import closed_form, two_mode
from .core_scatter import CavitySystem, transmission
from .errors import (
    EdgeTruncationError,
    InvalidParameterError,
    NotBracketedError,
    PairIdentificationError,
)

__all__ = [
    "ResonancePeak",
    "BranchPoint",
    "scan_transmission",
    "find_peaks",
    "peak_halfwidth",
    "track_branches",
    "find_merge_point",
    "pair_window",
    "branch_window",
]

_MAX_GRID_POINTS = 5_000_000


@dataclass(frozen=True)
class ResonancePeak:
    """A refined transmission maximum.

    ``hwhm`` is filled in by :func:`peak_halfwidth` on demand (None until
    then); it stays None for pair members whose half level is unreachable
    without crossing the partner peak.
    """

    k_peak: float
    T_peak: float
    hwhm: Optional[float] = None


@dataclass(frozen=True)
class BranchPoint:
    """Positions and heights of the two pulled peaks at displacement x."""

    x: float
    k_lower: float
    k_upper: float
    T_lower: float
    T_upper: float


def scan_transmission(system: CavitySystem, k_min, k_max, n_points):
    """Uniformly sample T(k) on [k_min, k_max]: arrays ``(ks, ts)``."""
    k_min, k_max = float(k_min), float(k_max)
    if not (math.isfinite(k_min) and math.isfinite(k_max)
            and 0.0 < k_min < k_max):
        raise InvalidParameterError(
            f"need 0 < k_min < k_max, got [{k_min}, {k_max}]")
    n = int(n_points)
    if n < 2:
        raise InvalidParameterError(f"n_points must be >= 2, got {n_points}")
    if n > _MAX_GRID_POINTS:
        raise InvalidParameterError(f"n_points {n} exceeds {_MAX_GRID_POINTS}")
    ks = np.linspace(k_min, k_max, n)
    return ks, transmission(system, ks)


def _grid_maxima(ts, prominence):
    """Indices of the grid maxima of ``ts`` at least ``prominence`` high.

    The rules are those of SciPy's ``signal.find_peaks``.  A maximum is a
    rise, an optional flat top and a fall; a flat top reports its
    midpoint, and a top touching an end of the array is no maximum.  The
    result is an index array in increasing order.  On each side the
    base is the lowest sample down to the nearest strictly higher sample
    or the array end, and a maximum is kept when it stands at least
    ``prominence`` above the higher of its two bases.
    """
    x = np.asarray(ts, dtype=float)
    up, down = x[1:] > x[:-1], x[1:] < x[:-1]
    # a rise ends at x[left]; the top runs over equal samples to x[right]
    left = np.flatnonzero(up[:-1] > up[1:]) + 1
    right = left.copy()
    moves = up | down
    for n in np.flatnonzero(~down[left]):   # flat tops, rare on spectra
        right[n] = left[n] + np.argmax(moves[left[n]:])
    peaks = ((left + right) // 2)[down[right]]
    if not peaks.size:
        return peaks
    # between consecutive tops (the maxima and both array ends) the
    # samples fall and then rise, so a base is the lowest of the valleys
    # between its maximum and the nearest strictly higher top
    tops = np.concatenate(([0], peaks, [x.size - 1]))
    heights = x[tops].tolist()
    valleys = np.minimum.reduceat(x, tops[:-1]).tolist()
    left_base = _bases(heights, valleys)
    right_base = _bases(heights[::-1], valleys[::-1])[::-1]
    base = np.maximum(left_base[1:-1], right_base[1:-1])
    return peaks[x[peaks] - base >= prominence]


def _bases(heights, valleys):
    """Lowest valley left of each top, back to a strictly higher top.

    ``valleys[i]`` is the lowest sample between tops i and i + 1.  One
    pass with a stack of tops in falling height order; a popped top hands
    its own base on to the top that popped it.
    """
    out = [math.inf] * len(heights)
    stack = [0]
    for i in range(1, len(heights)):
        low = valleys[i - 1]
        while stack and heights[stack[-1]] <= heights[i]:
            low = min(low, out[stack.pop()])
        out[i] = low
        stack.append(i)
    return out


def _refine_maximum(f, x1, x2, x3, f2, tol):
    """Polish a bracketed maximum by iterated parabolic interpolation.

    (x1, x2, x3) must bracket the maximum with f(x2) >= f(x1), f(x3).
    Falls back to a bisection step of the wider wing whenever the
    parabolic vertex is ill-conditioned or refuses to move; terminates
    once the bracket is narrower than ``tol``.
    """
    f1, f3 = f(x1), f(x3)
    for _ in range(240):
        width = x3 - x1
        if width < tol:
            break
        num = ((x2 - x1) ** 2 * (f2 - f3) - (x2 - x3) ** 2 * (f2 - f1))
        den = ((x2 - x1) * (f2 - f3) - (x2 - x3) * (f2 - f1))
        v = x2 + 0.5 * num / den if den != 0.0 else x2
        lo_gap = x2 - x1
        hi_gap = x3 - x2
        if (den == 0.0 or not x1 < v < x3
                or min(abs(v - x1), abs(v - x2), abs(v - x3)) < 0.01 * width):
            v = x2 + 0.5 * hi_gap if hi_gap > lo_gap else x2 - 0.5 * lo_gap
        fv = f(v)
        if v < x2:
            if fv >= f2:
                x1, x2, x3 = x1, v, x2
                f1, f2, f3 = f1, fv, f2
            else:
                x1, f1 = v, fv
        else:
            if fv >= f2:
                x1, x2, x3 = x2, v, x3
                f1, f2, f3 = f2, fv, f3
            else:
                x3, f3 = v, fv
    return x2, f2


def _grid_for(system, k_min, k_max, grid_per_kappa):
    if system.zeta_end == 0.0:
        raise InvalidParameterError(
            "peak search needs reflective end mirrors (zeta_end != 0)")
    kappa = closed_form.bare_linewidth(system.zeta_end)
    step = kappa / float(grid_per_kappa)
    n = int(math.ceil((k_max - k_min) / step)) + 1
    n = max(n, 32)
    if n > _MAX_GRID_POINTS:
        raise InvalidParameterError(
            f"window needs {n} grid points (> {_MAX_GRID_POINTS}); "
            "narrow the window or lower grid_per_kappa")
    return np.linspace(k_min, k_max, n)


def find_peaks(system: CavitySystem, k_min, k_max, grid_per_kappa=50,
               refine_tol=1e-10, prominence=1e-9):
    """Locate and refine all transmission maxima in [k_min, k_max].

    Parameters
    ----------
    system : CavitySystem
        Cavity to scan; its end-mirror linewidth sets the grid step.
    k_min, k_max : float
        Search window, 0 < k_min < k_max.
    grid_per_kappa : int
        Grid points per linewidth (>= 10, so the step is <= kappa/10).
    refine_tol : float
        Bracket width, in k, at which refinement stops (<= 1e-8).
    prominence : float
        Minimum height of a maximum above its separating saddle; guards
        against counting round-off ripples on nearly flat tops.

    Returns
    -------
    list of ResonancePeak, sorted by k.  An empty list means the window
    contains no interior maximum (not an error).
    """
    k_min, k_max = float(k_min), float(k_max)
    if not (math.isfinite(k_min) and math.isfinite(k_max)
            and 0.0 < k_min < k_max):
        raise InvalidParameterError(
            f"need 0 < k_min < k_max, got [{k_min}, {k_max}]")
    if grid_per_kappa < 10:
        raise InvalidParameterError(
            f"grid_per_kappa must be >= 10, got {grid_per_kappa}")
    if not 0.0 < refine_tol <= 1e-8:
        raise InvalidParameterError(
            f"refine_tol must be in (0, 1e-8], got {refine_tol}")
    ks = _grid_for(system, k_min, k_max, grid_per_kappa)
    ts = transmission(system, ks)
    idx = _grid_maxima(ts, prominence)

    def f(k):
        return transmission(system, float(k))

    step = ks[1] - ks[0]
    peaks = []
    for i in idx:
        kp, tp = _refine_maximum(f, ks[i - 1], ks[i], ks[i + 1], ts[i],
                                 refine_tol)
        peaks.append(ResonancePeak(k_peak=float(kp), T_peak=float(tp)))
    peaks.sort(key=lambda p: p.k_peak)
    # collapse refinements that converged onto the same maximum
    merged = []
    for p in peaks:
        if merged and p.k_peak - merged[-1].k_peak < 0.5 * step:
            if p.T_peak > merged[-1].T_peak:
                merged[-1] = p
        else:
            merged.append(p)
    return merged


def peak_halfwidth(system: CavitySystem, peak: ResonancePeak,
                   max_offset=0.5 * math.pi):
    """Half width of a refined peak at half its height.

    Expands outward from ``peak.k_peak`` on each side until the
    transmission drops below T_peak/2, then bisects the crossing to
    1e-10; returns the average of the two sides.  Raises
    :class:`EdgeTruncationError` if a side reaches ``max_offset`` before
    the half level.
    """
    if not (math.isfinite(peak.k_peak) and 0.0 < peak.T_peak):
        raise InvalidParameterError(f"invalid peak {peak!r}")
    kappa = closed_form.bare_linewidth(system.zeta_end)
    half = 0.5 * peak.T_peak
    step0 = kappa / 4.0

    def f(k):
        return transmission(system, float(k))

    widths = []
    for sign in (-1.0, 1.0):
        h = step0
        prev = 0.0
        while f(peak.k_peak + sign * h) > half:
            prev = h
            h *= 1.5
            if h > max_offset:
                raise EdgeTruncationError(
                    "half level not reached within "
                    f"{max_offset:g} of the peak on the "
                    f"{'left' if sign < 0 else 'right'} side")
        lo = peak.k_peak + sign * prev
        hi = peak.k_peak + sign * h
        root = closed_form.bisect(lambda k: f(k) - half, min(lo, hi),
                                  max(lo, hi), xtol=1e-10)
        widths.append(abs(root - peak.k_peak))
    return 0.5 * (widths[0] + widths[1])


def track_branches(zeta, zeta_m, x_values: Sequence, k_window: Tuple,
                   grid_per_kappa=50, refine_tol=1e-10, prominence=1e-9):
    """Follow the two pulled peaks of one pair across displacements.

    For each x (in input order) the search window recenters on the
    midpoint found at the previous x, which keeps the tracker locked on
    the same pair.  Displacements where the pair has merged into a
    single maximum contribute no BranchPoint.  Raises
    :class:`PairIdentificationError` if the window captures peaks more
    than one free spectral range apart, or loses the pair entirely.
    """
    lo, hi = float(k_window[0]), float(k_window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise InvalidParameterError(f"bad k_window {k_window!r}")
    half_width = 0.5 * (hi - lo)
    center = 0.5 * (lo + hi)
    points = []
    for x in x_values:
        xv = float(x)
        if not abs(xv) < 0.25:
            raise InvalidParameterError(
                f"displacements must satisfy |x| < 1/4, got {xv}")
        system = CavitySystem.with_middle(zeta, zeta_m, xv)
        peaks = find_peaks(system, center - half_width, center + half_width,
                           grid_per_kappa=grid_per_kappa,
                           refine_tol=refine_tol, prominence=prominence)
        if not peaks:
            raise PairIdentificationError(
                f"tracking window lost the pair at x = {xv}")
        peaks = sorted(peaks, key=lambda p: abs(p.k_peak - center))[:2]
        peaks.sort(key=lambda p: p.k_peak)
        if len(peaks) == 2:
            gap = peaks[1].k_peak - peaks[0].k_peak
            if gap > math.pi * (1.0 + 1e-9):
                raise PairIdentificationError(
                    f"peaks at x = {xv} are {gap:.6g} apart, more than one "
                    "free spectral range; window captured the wrong pair")
            points.append(BranchPoint(x=xv,
                                      k_lower=peaks[0].k_peak,
                                      k_upper=peaks[1].k_peak,
                                      T_lower=peaks[0].T_peak,
                                      T_upper=peaks[1].T_peak))
            center = 0.5 * (peaks[0].k_peak + peaks[1].k_peak)
        else:
            # merged pair: keep following the single maximum
            center = peaks[0].k_peak
    return points


def pair_window(zeta, zeta_m, pair_index):
    """Window isolating the coalescing pair near 2*pair_index*pi."""
    kappa = closed_form.bare_linewidth(zeta)
    delta = 0.5 * closed_form.mode_splitting(zeta_m)
    center = closed_form.bare_resonance(2 * pair_index, zeta) - delta
    half = min(max(8.0 * kappa, 4.0 * delta), 1.2)
    return center - half, center + half


def branch_window(zeta, zeta_m, x_values, pair_index=1):
    """Window holding both pulled branches of the pair over an x grid.

    Centered on the pair center, it spans 1.3 times the largest two-mode
    half-splitting sqrt(delta**2 + (g_m x)**2) on the grid plus 4 kappa,
    and at least 8 kappa either side.
    """
    center = closed_form.pair_center(zeta, zeta_m, pair_index)
    kappa = closed_form.bare_linewidth(zeta)
    delta = 0.5 * closed_form.mode_splitting(zeta_m)
    g_m = two_mode.tunneling_rate(zeta_m, center)
    xmax = max((abs(float(x)) for x in x_values), default=0.0)
    half = max(8.0 * kappa,
               1.3 * math.sqrt(delta ** 2 + (g_m * xmax) ** 2) + 4 * kappa)
    return center - half, center + half


def _count_pair_maxima(zeta, zeta_m, pair_index, grid_per_kappa, prominence):
    lo, hi = pair_window(zeta, zeta_m, pair_index)
    system = CavitySystem.with_middle(zeta, zeta_m)
    ks = _grid_for(system, lo, hi, grid_per_kappa)
    ts = transmission(system, ks)
    return len(_grid_maxima(ts, prominence))


def find_merge_point(zeta, zeta_m_range: Tuple, pair_index=1, rel_tol=1e-3,
                     grid_per_kappa=50, prominence=1e-9):
    """Middle-element polarizability at which the two pair maxima merge.

    Counts the local maxima inside the pair window on a grid of step
    kappa/grid_per_kappa and bisects the 2 -> 1 transition over
    ``zeta_m_range`` (two same-sign polarizabilities straddling the
    merge).  Raises :class:`NotBracketedError` when the range does not
    straddle it.
    """
    a, b = float(zeta_m_range[0]), float(zeta_m_range[1])
    if not (math.isfinite(a) and math.isfinite(b)) or a * b <= 0.0:
        raise InvalidParameterError(
            f"zeta_m_range must be two same-sign values, got {zeta_m_range!r}")
    if abs(a) > abs(b):
        a, b = b, a

    def count(zm):
        return _count_pair_maxima(zeta, zm, pair_index, grid_per_kappa,
                                  prominence)

    if count(a) < 2 or count(b) != 1:
        raise NotBracketedError(
            f"range [{a}, {b}] does not straddle the merge "
            "(need two maxima at the weak end, one at the strong end)")
    while abs(b - a) > rel_tol * abs(b):
        mid = 0.5 * (a + b)
        if count(mid) >= 2:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
