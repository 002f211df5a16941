"""Transmission scans, peak location/refinement, and peak tracking.

Peak searches run on a wavenumber grid sized against the bare cavity
linewidth kappa (grid step = kappa / grid_per_kappa), detect local
maxima at least _PROMINENCE high (so round-off ripple on a vanishing
transmission is not taken for peaks), and polish each maximum by
safeguarded Newton steps on s' = 0, s = 1/T - 1, to _REFINE_TOL inside
its bracketing grid cell, with the analytic derivatives of
:func:`core_scatter.s_derivatives`.  Half-widths solve T = T_peak/2 the
same way.  The grid maxima and their prominences are computed in-house,
with the rules of SciPy's ``signal.find_peaks``, so numpy is the only
runtime dependency.  A search grid is a list of floats, evaluated on the
scalar kernel and searched in Python, when its work (points x hops) is
at most :data:`core_scatter.SCALAR_GRID_WORK`, as every window of a few
linewidths is; only a larger grid, and :func:`scan_transmission`,
import numpy.  Everything is a pure function of its inputs: identical
calls return identical results.  :func:`track` is the one loop that
follows peaks across displacements of the middle element (a threshold
sweep row is one step at x = 0).  It starts from one or two seeds at
x = 0, or from a window, walks outward from x = 0 and refines each
step's prediction by one bracketed solve of s' = 0 around it, without a
grid.  Only a window walk's first step and a step whose refinement
fails a check search a grid window: the previous peaks padded by a few
kappa, or the given window's width.
:func:`find_merge_point` solves the merge as a fold of s, without a
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from . import closed_form, two_mode
from .core_scatter import (
    CavitySystem,
    grid,
    linspace,
    s_derivatives,
    transmission,
)
from .errors import (
    EdgeTruncationError,
    InvalidParameterError,
    NotBracketedError,
    PairIdentificationError,
)

__all__ = [
    "ResonancePeak",
    "linspace",
    "scan_transmission",
    "sample_transmission",
    "find_peaks",
    "peak_halfwidth",
    "displacements",
    "track",
    "find_merge_point",
]

_MAX_GRID_POINTS = 5_000_000
_REFINE_TOL = 1e-10   # 1e-12 moves no peak of 300 pair windows by > 9e-16
# where T ~ 1e-19 (zeta = -1e4 at the merge, x = 2e-5) round-off ripple
# makes grid maxima whose refinement loses its bracket; this drops them
_PROMINENCE = 1e-9


@dataclass(frozen=True)
class ResonancePeak:
    """A refined transmission maximum; :func:`peak_halfwidth` sizes it."""

    k_peak: float
    T_peak: float


def _window(k_min, k_max):
    k_min, k_max = float(k_min), float(k_max)
    if not (math.isfinite(k_min) and math.isfinite(k_max)
            and 0.0 < k_min < k_max):
        raise InvalidParameterError(
            f"need 0 < k_min < k_max, got [{k_min}, {k_max}]")
    return k_min, k_max


def _samples(k_min, k_max, n_points):
    """The checked window and point count of a uniform scan."""
    k_min, k_max = _window(k_min, k_max)
    n = int(n_points)
    if n < 2:
        raise InvalidParameterError(f"n_points must be >= 2, got {n_points}")
    if n > _MAX_GRID_POINTS:
        raise InvalidParameterError(f"n_points {n} exceeds {_MAX_GRID_POINTS}")
    return k_min, k_max, n


def scan_transmission(system: CavitySystem, k_min, k_max, n_points):
    """Uniformly sample T(k) on [k_min, k_max]: numpy arrays ``(ks, ts)``."""
    import numpy as np

    k_min, k_max, n = _samples(k_min, k_max, n_points)
    ks = np.linspace(k_min, k_max, n)
    return ks, transmission(system, ks)


def sample_transmission(system: CavitySystem, k_min, k_max, n_points):
    """Uniformly sample T(k) on [k_min, k_max] on the kernel grid() picks.

    ``(ks, ts)`` are lists of floats for a grid within
    :data:`core_scatter.SCALAR_GRID_WORK`, else numpy arrays; the
    wavenumbers are those of :func:`scan_transmission` either way.
    """
    k_min, k_max, n = _samples(k_min, k_max, n_points)
    ks = grid(k_min, k_max, n, len(system.elements) + 1)
    return ks, transmission(system, ks)


def _grid_maxima(ts, prominence):
    """Indices of the grid maxima of ``ts`` at least ``prominence`` high.

    The rules are those of SciPy's ``signal.find_peaks``.  A maximum is a
    rise, an optional flat top and a fall; a flat top reports its
    midpoint, and a top touching an end of the array is no maximum.  The
    result is an index array in increasing order.  On each side the
    base is the lowest sample down to the nearest strictly higher sample
    or the array end, and a maximum is kept when it stands at least
    ``prominence`` above the higher of its two bases.  A list of floats
    is searched in Python and gives a list of the same indices.
    """
    if isinstance(ts, list):
        return _list_maxima(ts, prominence)
    import numpy as np

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


def _list_maxima(x, prominence):
    """:func:`_grid_maxima` of a list, by the same rules, in Python."""
    peaks = []
    i, last = 1, len(x) - 1
    while i < last:
        if x[i - 1] < x[i] and not x[i + 1] > x[i]:
            j = i   # walk the flat top: samples neither rise nor fall
            while j < last and not (x[j + 1] > x[j] or x[j + 1] < x[j]):
                j += 1
            if j < last and x[j + 1] < x[j]:
                peaks.append((i + j) // 2)
            i = j
        i += 1
    if not peaks:
        return peaks
    tops = [0, *peaks, last]
    heights = [x[t] for t in tops]
    valleys = [min(x[a:b]) for a, b in zip(tops, tops[1:-1] + [last + 1])]
    left_base = _bases(heights, valleys)
    right_base = _bases(heights[::-1], valleys[::-1])[::-1]
    return [p for p, h, lb, rb in zip(peaks, heights[1:], left_base[1:],
                                      right_base[1:])
            if h - max(lb, rb) >= prominence]


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
    return grid(k_min, k_max, n, len(system.elements) + 1)


def find_peaks(system: CavitySystem, k_min, k_max, grid_per_kappa=50):
    """Locate and refine all transmission maxima in [k_min, k_max].

    Parameters
    ----------
    system : CavitySystem
        Cavity to scan; its end-mirror linewidth sets the grid step.
    k_min, k_max : float
        Search window, 0 < k_min < k_max.
    grid_per_kappa : int
        Grid points per linewidth (>= 10, so the step is <= kappa/10).

    Returns
    -------
    list of ResonancePeak, sorted by k: each grid maximum at least
    :data:`_PROMINENCE` above its bases, pinned to :data:`_REFINE_TOL`
    (a Newton step of at most half of it, or a bracket of both signs of
    s' at most this wide).  An empty list means the window contains no
    interior maximum (not an error).  Each peak stays inside the two
    grid cells of its grid maximum, so no two coincide.  Raises
    :class:`NotBracketedError` when a refinement does not converge.
    """
    k_min, k_max = _window(k_min, k_max)
    if grid_per_kappa < 10:
        raise InvalidParameterError(
            f"grid_per_kappa must be >= 10, got {grid_per_kappa}")
    ks = _grid_for(system, k_min, k_max, grid_per_kappa)
    ts = transmission(system, ks)
    peaks = []
    for i in _grid_maxima(ts, _PROMINENCE):
        # floats, not numpy scalars, so an error names a plain k
        lo, k, hi = float(ks[i - 1]), float(ks[i]), float(ks[i + 1])
        k = closed_form.newton(lambda k: s_derivatives(system, k)[1:],
                               lo, k, hi, _REFINE_TOL)
        peaks.append(ResonancePeak(k_peak=k, T_peak=transmission(system, k)))
    return peaks


def peak_halfwidth(system: CavitySystem, peak: ResonancePeak):
    """Half width of a refined peak at half its height.

    On each side, offsets from ``peak.k_peak`` double from kappa/2
    until the transmission drops to T_peak/2; safeguarded Newton steps
    on s = 2/T_peak - 1 then locate the crossing inside the last
    doubling to 1e-10.  Returns the average of the two sides.  Raises
    :class:`EdgeTruncationError` if a side reaches half a free spectral
    range (pi/2) before the half level, and :class:`NotBracketedError`
    if the solve does not converge.
    """
    if not (math.isfinite(peak.k_peak) and 0.0 < peak.T_peak):
        raise InvalidParameterError(f"invalid peak {peak!r}")
    kappa = closed_form.bare_linewidth(system.zeta_end)
    half, max_offset = 0.5 * peak.T_peak, 0.5 * math.pi
    widths = []
    for sign in (-1.0, 1.0):
        def f(h, sign=sign):
            s, ds, _ = s_derivatives(system, peak.k_peak + sign * h)
            return s - (1.0 / half - 1.0), sign * ds

        lo, hi = 0.0, min(0.5 * kappa, max_offset)
        while f(hi)[0] < 0.0:   # the sign test newton applies
            if hi >= max_offset:
                raise EdgeTruncationError(
                    "half level not reached within "
                    f"{max_offset:g} of the peak on the "
                    f"{'left' if sign < 0 else 'right'} side")
            lo, hi = hi, min(2.0 * hi, max_offset)
        widths.append(closed_form.newton(f, lo, hi, hi, 2e-10))
    return 0.5 * (widths[0] + widths[1])


def displacements(x_values: Sequence):
    """The displacements as floats, each checked to satisfy |x| < 1/4.

    Raises :class:`InvalidParameterError` naming the first one that
    does not.
    """
    xs = [float(x) for x in x_values]
    for x in xs:
        if not abs(x) < 0.25:
            raise InvalidParameterError(
                f"displacements must satisfy |x| < 1/4, got {x}")
    return xs


def _descend(system, seed, reach):
    """The minimum of s = 1/T - 1 next to ``seed``, or None.

    One :func:`closed_form.newton` on s' over ``seed +- reach``, from the
    seed, to _REFINE_TOL.  Its bracket keeps s'(lo) < 0 < s'(hi), so it
    ends on a minimum of s, never on the saddle between two peaks.
    Returns None when s'' <= 0 at the seed, or when the solve raises
    :class:`NotBracketedError` (no minimum found within reach).
    """
    def f(k):
        return s_derivatives(system, k)[1:]

    # a quartic top has round-off s'': solved from there, the merged
    # sweep row at zeta = -10 moved 9e-10, nine times _REFINE_TOL
    if not f(seed)[1] > 0.0:
        return None
    try:
        return closed_form.newton(f, seed - reach, seed, seed + reach,
                                  _REFINE_TOL)
    except NotBracketedError:
        return None


def _seeded_step(system, seeds, previous, reach):
    """The peaks :func:`_descend` finds from ``seeds``, or None on a failure.

    Each refined peak must have s'' > 0, lie within ``reach`` of its
    previous position, and stay above its lower neighbor by more than
    2 :data:`_REFINE_TOL`.
    """
    kept = []
    for seed, before in zip(seeds, previous):
        k = _descend(system, seed, reach)
        if k is None or abs(k - before) > reach:
            return None
        s, _, curve = s_derivatives(system, k)
        if not curve > 0.0 or kept and k - kept[-1].k_peak <= 2 * _REFINE_TOL:
            return None
        kept.append(ResonancePeak(k_peak=k, T_peak=1.0 / (1.0 + s)))
    return kept


def track(zeta, zeta_m, x_values: Sequence, seeds=None, window=None):
    """Follow one peak or a pair across the displacements ``x_values``.

    Takes exactly one of ``seeds``, the one or two peaks at x = 0 (their
    count is the member count), or ``window``, a ``(k_min, k_max)`` that
    holds the pair at x = 0 (two members, unseeded).  The displacements
    are checked first.  Two walks go outward from x = 0, each starting
    from the seeds or the window: up through x >= 0, then down through
    x < 0.  Each step predicts its peaks from the previous ones: a lone
    peak stays put, a pair moves along the two-mode branches of
    :func:`two_mode.branch_frequencies`.  :func:`_descend` refines each
    prediction by one :func:`closed_form.newton` on s' over the
    prediction +- reach, reach = min(0.35, 2 kappa + 2 g |dx|), g the
    tunneling rate at the first center, and :func:`_seeded_step` checks
    the result.  A step whose check fails, or without as many previous
    peaks as members (a window walk's first step, a step after a merge),
    calls :func:`find_peaks` instead: seeded, over the previous peaks'
    span plus min(0.35, 8 kappa + 2 g |dx|) on each side; with a window,
    over its width around the previous peaks' midpoint (the window
    itself at first), keeping the members nearest that midpoint.  These
    are the tracker's only calls to :func:`find_peaks`, so counting
    those counts the fallbacks.

    Returns one tuple of :class:`ResonancePeak`, sorted by k, per x in
    input order; it holds a single peak where a pair has merged.  Raises
    :class:`InvalidParameterError` unless exactly one of ``seeds`` and
    ``window`` is given, and :class:`PairIdentificationError` if a
    search loses the peaks, or if two kept peaks are more than one free
    spectral range apart (the search captured the wrong pair).
    """
    xs = displacements(x_values)
    if (seeds is None) == (window is None):
        raise InvalidParameterError(
            "track takes seeds or a window: exactly one of the two")
    if seeds is None:
        lo, hi = _window(*window)
        start, members = [], 2
        center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    else:
        start = sorted(map(float, seeds))
        if len(start) not in (1, 2) or not all(map(math.isfinite, start)):
            raise InvalidParameterError(
                f"seeds must be one or two finite peaks, got {seeds!r}")
        members = len(start)
        center, half = 0.5 * (start[0] + start[-1]), None
    kappa = closed_form.bare_linewidth(zeta)
    g_m = two_mode.tunneling_rate(zeta_m, center)
    model = two_mode.TwoModeParams(
        omega=center, delta=0.5 * closed_form.mode_splitting(zeta_m),
        kappa=kappa, g_m=g_m)
    previous, before, mid = start, 0.0, center
    out = [None] * len(xs)
    # x >= 0 ascending, then x < 0 descending
    for i in sorted(range(len(xs)), key=lambda i: (xs[i] < 0.0, abs(xs[i]))):
        x = xs[i]
        if x < 0.0 <= before:   # the second walk starts from x = 0 again
            previous, before, mid = start, 0.0, center
        system = CavitySystem.with_middle(zeta, zeta_m, x)
        motion = 2.0 * g_m * abs(x - before)
        kept = None
        if len(previous) == members:
            guesses = previous
            if members == 2:
                branches = (two_mode.branch_frequencies(model, before),
                            two_mode.branch_frequencies(model, x))
                if None not in branches:
                    guesses = [k + new - old for k, old, new
                               in zip(previous, *branches)]
            kept = _seeded_step(system, guesses, previous,
                                min(0.35, 2.0 * kappa + motion))
        if kept is None:
            if half is None:
                pad = min(0.35, 8.0 * kappa + motion)
                peaks = find_peaks(system, previous[0] - pad,
                                   previous[-1] + pad)
            else:
                peaks = find_peaks(system, mid - half, mid + half)
            if not peaks:
                raise PairIdentificationError(
                    f"tracking window lost the peak at x = {x}")
            kept = sorted(peaks, key=lambda p: abs(p.k_peak - mid))[:members]
            kept.sort(key=lambda p: p.k_peak)
        gap = kept[-1].k_peak - kept[0].k_peak
        if gap > math.pi * (1.0 + 1e-9):
            raise PairIdentificationError(
                f"peaks at x = {x} are {gap:.6g} apart, more than one "
                "free spectral range; window captured the wrong pair")
        out[i] = tuple(kept)
        mid = 0.5 * (kept[0].k_peak + kept[-1].k_peak)
        previous, before = [p.k_peak for p in kept], x
    return out


def find_merge_point(zeta, zeta_m_range: Tuple, pair_index=1):
    """Middle-element polarizability at which the two pair maxima merge.

    The merge is a fold of s = 1/T - 1 at x = 0: the stationary point of
    s between the two peaks is a maximum (s'' < 0) below it and the one
    minimum (s'' > 0) above it.  :func:`closed_form.newton` finds that
    point (s' = 0) to 1e-6 kappa from the closed-form pair center, taken
    at the threshold above it, and a second :func:`closed_form.newton`,
    which has no slope in zeta_m and so bisects, finds the zeta_m where
    s'' there changes sign over ``zeta_m_range`` (two same-sign
    polarizabilities straddling the merge) to 1e-12 of the stronger
    end.  No grid is searched.  Raises :class:`NotBracketedError` when
    the range does not straddle the merge.
    """
    a, b = float(zeta_m_range[0]), float(zeta_m_range[1])
    if not (math.isfinite(a) and math.isfinite(b)) or a * b <= 0.0:
        raise InvalidParameterError(
            f"zeta_m_range must be two same-sign values, got {zeta_m_range!r}")
    star = abs(closed_form.coalescence_threshold(zeta))
    kappa = closed_form.bare_linewidth(zeta)

    def curvature(zm):
        """s'' at the stationary point of s between the pair's peaks."""
        system = CavitySystem.with_middle(zeta, zm)
        # the closed-form pair ends at the threshold; above it the one
        # minimum stays within kappa of the pair center there
        seed = closed_form.pair_center(
            zeta, math.copysign(min(abs(zm), star), zm), pair_index)
        # a maximum of s (s'' < 0) needs -s' to rise through it
        sign = 1.0 if s_derivatives(system, seed)[2] > 0.0 else -1.0

        def f(k):
            _, slope, curve = s_derivatives(system, k)
            return sign * slope, sign * curve

        k = closed_form.newton(f, seed - 4.0 * kappa, seed,
                               seed + 4.0 * kappa, 1e-6 * kappa)
        return s_derivatives(system, k)[2]

    weak, strong = sorted((a, b), key=abs)
    if not curvature(weak) < 0.0 < curvature(strong):
        raise NotBracketedError(
            f"range [{weak}, {strong}] does not straddle the merge "
            "(need two maxima at the weak end, one at the strong end)")
    lo, hi = sorted((a, b))
    # s'' rises with |zeta_m|, so with zeta_m itself when zeta_m > 0
    return closed_form.newton(
        lambda zm: (math.copysign(1.0, zm) * curvature(zm), 0.0),
        lo, 0.5 * (lo + hi), hi, 1e-12 * abs(strong))
