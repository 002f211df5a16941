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
runtime dependency.  A search samples T through :func:`sample_transmission`
on a :func:`core_scatter.grid`: a list, evaluated and searched in
Python, or past its size a numpy array.  A peak is an immutable
:class:`ResonancePeak` NamedTuple ``(k_peak, T_peak)``.  Everything is
a pure function of its inputs: identical calls return identical
results.  :func:`track` is the one loop that follows peaks
across displacements of the middle element (a threshold sweep row is
one step at x = 0).  It has one start (seeds at x = 0, or the pair one
search of a window finds there), one centre (the clamped closed-form
pair center) and one rule: each member moves along the two-mode branch
on its side of the centre, and one bracketed solve of s' = 0 around
that prediction refines it, without a grid.  :func:`find_merge_point`
solves the merge as a fold of s from the same centre, without a grid.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Tuple

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
    finite,
    integer,
)

__all__ = [
    "ResonancePeak",
    "linspace",
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


class ResonancePeak(NamedTuple):
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


def sample_transmission(system: CavitySystem, k_min, k_max, n_points):
    """Uniformly sample T(k) on [k_min, k_max] on the kernel grid() picks.

    ``(ks, ts)`` are lists of floats for a grid within
    :data:`core_scatter.SCALAR_GRID_WORK`, else numpy arrays; the
    wavenumbers are those of ``numpy.linspace`` either way, and the
    CLI's ``spectrum`` prints them.  ``n_points`` is an integer from 2
    to ``_MAX_GRID_POINTS``.
    """
    k_min, k_max = _window(k_min, k_max)
    if n_points < 2:
        raise InvalidParameterError(f"n_points must be >= 2, got {n_points}")
    n = integer("n_points", n_points, 2)
    if n > _MAX_GRID_POINTS:
        raise InvalidParameterError(f"n_points {n} exceeds {_MAX_GRID_POINTS}")
    ks = grid(k_min, k_max, n, len(system.elements) + 1)
    return ks, transmission(system, ks)


def _grid_maxima(ts, prominence):
    """Indices of the grid maxima of ``ts`` at least ``prominence`` high.

    The rules are those of SciPy's ``signal.find_peaks``.  A maximum is a
    rise, an optional flat top and a fall; a flat top reports its
    midpoint, and a top touching an end of the samples is no maximum.
    The result is a list of indices in increasing order.  On each side
    the base is the lowest sample down to the nearest strictly higher
    sample or the end, and a maximum is kept when it stands at least
    ``prominence`` above the higher of its two bases.  ``ts`` is a list
    of floats or an array; numpy finds an array's rises and valleys.
    """
    x = ts
    if isinstance(x, list):
        ends = [i for i in range(1, len(x) - 1)
                if x[i - 1] < x[i] and not x[i + 1] > x[i]]
    else:
        import numpy as np

        x = np.asarray(x, dtype=float)
        up = x[1:] > x[:-1]
        ends = (np.flatnonzero(up[:-1] > up[1:]) + 1).tolist()
    last = len(x) - 1
    peaks = []
    for i in ends:   # a rise ends at x[i]
        j = i   # walk the flat top: samples neither rise nor fall
        while j < last and not (x[j + 1] > x[j] or x[j + 1] < x[j]):
            j += 1
        if j < last and x[j + 1] < x[j]:
            peaks.append((i + j) // 2)
    if not peaks:
        return peaks
    # between consecutive tops (the maxima and both ends) the samples
    # fall and then rise, so a base is the lowest of the valleys between
    # its maximum and the nearest strictly higher top
    tops = [0, *peaks, last]
    if isinstance(x, list):
        valleys = [min(x[a:b]) for a, b in zip(tops, tops[1:-1] + [last + 1])]
    else:   # a Python min over numpy samples is slow
        valleys = np.minimum.reduceat(x, tops[:-1]).tolist()
    heights = [x[t] for t in tops]
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


def _grid_points(system, k_min, k_max, grid_per_kappa):
    """Points of a search grid: a step <= kappa / grid_per_kappa, >= 32."""
    if system.zeta_end == 0.0:
        raise InvalidParameterError(
            "peak search needs reflective end mirrors (zeta_end != 0)")
    kappa = closed_form.bare_linewidth(system.zeta_end)
    step = kappa / finite("grid_per_kappa", grid_per_kappa)
    count = (k_max - k_min) / step   # inf where the step underflows
    n = max(math.ceil(count) + 1, 32) if math.isfinite(count) else count
    if n > _MAX_GRID_POINTS:
        raise InvalidParameterError(
            f"window needs {n} grid points (> {_MAX_GRID_POINTS}); "
            "narrow the window or lower grid_per_kappa")
    return n


def find_peaks(system: CavitySystem, k_min, k_max, grid_per_kappa=50):
    """Locate and refine all transmission maxima in [k_min, k_max].

    Parameters
    ----------
    system : CavitySystem
        Cavity to scan; its end-mirror linewidth sets the grid step.
    k_min, k_max : float
        Search window, 0 < k_min < k_max.
    grid_per_kappa : int
        Grid points per linewidth: a finite number >= 10, so the step is
        <= kappa/10.

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
    if not grid_per_kappa >= 10:   # also NaN
        raise InvalidParameterError(
            f"grid_per_kappa must be >= 10, got {grid_per_kappa}")
    n = _grid_points(system, k_min, k_max, grid_per_kappa)
    ks, ts = sample_transmission(system, k_min, k_max, n)
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
    at_seed = s_derivatives(system, seed)[1:]

    def f(k):
        return at_seed if k == seed else s_derivatives(system, k)[1:]

    # a quartic top has round-off s'': solved from there, the merged
    # sweep row at zeta = -10 moved 9e-10, nine times _REFINE_TOL
    if not at_seed[1] > 0.0:
        return None
    try:
        return closed_form.newton(f, seed - reach, seed, seed + reach,
                                  _REFINE_TOL)
    except NotBracketedError:
        return None


def _seeded_step(system, guesses, reach):
    """The peaks :func:`_descend` finds from ``guesses``, or None on a failure.

    Each refined peak must have s'' > 0 and stay above its lower neighbor
    by more than 2 :data:`_REFINE_TOL`.
    """
    kept = []
    for guess in guesses:
        k = _descend(system, guess, reach)
        if k is None:
            return None
        s, _, curve = s_derivatives(system, k)
        if not curve > 0.0 or kept and k - kept[-1].k_peak <= 2 * _REFINE_TOL:
            return None
        kept.append(ResonancePeak(k_peak=k, T_peak=1.0 / (1.0 + s)))
    return kept


def _search(system, x, members, k_min, k_max):
    """The ``members`` peaks of :func:`find_peaks` over [k_min, k_max]
    nearest its midpoint, sorted by k; raises if it finds none."""
    peaks = find_peaks(system, k_min, k_max)
    if not peaks:
        raise PairIdentificationError(
            f"tracking window lost the peak at x = {x}")
    mid = 0.5 * (k_min + k_max)
    kept = sorted(peaks, key=lambda p: abs(p.k_peak - mid))[:members]
    return sorted(kept, key=lambda p: p.k_peak)


def _pair_center(zeta, zeta_m, n):
    """``closed_form.pair_center`` with |zeta_m| clamped at threshold."""
    star = abs(closed_form.coalescence_threshold(zeta))
    return closed_form.pair_center(
        zeta, math.copysign(min(abs(zeta_m), star), zeta_m), n)


def track(zeta, zeta_m, x_values: Sequence, seeds=None, window=None):
    """Follow one peak or a pair across the displacements ``x_values``.

    Takes exactly one start: ``seeds``, the one or two peaks at x = 0
    (their count is the member count), or ``window``, a ``(k_min,
    k_max)`` holding the pair at x = 0, which one :func:`_search` there
    turns into two peaks (one where the pair has merged, which is then
    the result at x = 0).  The displacements are checked first.  Two
    walks go outward from the start: up through x >= 0, then down
    through x < 0.  Each step moves every member along the branch on its
    side of omega of ``two_mode.TwoModeParams.at(zeta, zeta_m, omega)``,
    omega the :func:`_pair_center` nearest the start; where the model
    has no branches (merged) a member stays put.  One reach per step,
    min(0.35, 8 kappa + 2 g_m |dx|), sizes the :func:`_seeded_step`
    solves around these predictions and, when one fails or the step
    follows a merge, the :func:`_search` over their span +- reach.

    Returns one tuple of :class:`ResonancePeak`, sorted by k, per x in
    input order; it holds a single peak where a pair has merged.  Raises
    :class:`InvalidParameterError` unless exactly one of ``seeds`` and
    ``window`` is given, or for a window that is not two numbers, and
    :class:`PairIdentificationError` if a search loses the peaks, or if
    two kept peaks are more than one free spectral range apart (the
    search captured the wrong pair).
    """
    xs = displacements(x_values)
    if (seeds is None) == (window is None):
        raise InvalidParameterError(
            "track takes seeds or a window: exactly one of the two")
    if seeds is None:
        try:
            k_min, k_max = map(float, window)
        except (TypeError, ValueError):
            raise InvalidParameterError(
                f"window must be two numbers, got {window!r}") from None
        members = 2
        system = CavitySystem.with_middle(zeta, zeta_m, 0.0)
        found = tuple(_search(system, 0.0, members, k_min, k_max))
        start = [p.k_peak for p in found]
    else:
        start = sorted(map(float, seeds))
        if len(start) not in (1, 2) or not all(map(math.isfinite, start)):
            raise InvalidParameterError(
                f"seeds must be one or two finite peaks, got {seeds!r}")
        members = len(start)
    # halves first: the sum of two seeds past half the largest float is inf
    n = max(1, round((0.5 * start[0] + 0.5 * start[-1]) / (2.0 * math.pi)))
    model = two_mode.TwoModeParams.at(zeta, zeta_m,
                                      _pair_center(zeta, zeta_m, n))
    previous, before = start, 0.0
    out = [None] * len(xs)
    if len(start) < members:   # the window's pair has merged at x = 0
        out = [found if x == 0.0 else None for x in xs]
    # x >= 0 ascending, then x < 0 descending
    for i in sorted((i for i in range(len(xs)) if out[i] is None),
                    key=lambda i: (xs[i] < 0.0, abs(xs[i]))):
        x = xs[i]
        if x < 0.0 <= before:   # the second walk starts from x = 0 again
            previous, before = start, 0.0
        system = CavitySystem.with_middle(zeta, zeta_m, x)
        reach = min(0.35, 8.0 * model.kappa
                    + 2.0 * model.g_m * abs(x - before))
        old, new = (two_mode.branch_frequencies(model, y) for y in (before, x))
        # the (lower, upper) branch moves, none where the model is merged;
        # a member at or above omega is on the upper branch
        moves = [b - a for a, b in zip(old, new)] if old and new else (0, 0)
        guesses = [k + moves[k >= model.omega] for k in previous]
        kept = None
        if len(previous) == members:
            kept = _seeded_step(system, guesses, reach)
        if kept is None:
            kept = _search(system, x, members, guesses[0] - reach,
                           guesses[-1] + reach)
        gap = kept[-1].k_peak - kept[0].k_peak
        if gap > math.pi * (1.0 + 1e-9):
            raise PairIdentificationError(
                f"peaks at x = {x} are {gap:.6g} apart, more than one "
                "free spectral range; window captured the wrong pair")
        out[i] = tuple(kept)
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
    kappa = closed_form.bare_linewidth(zeta)
    a, b = float(zeta_m_range[0]), float(zeta_m_range[1])
    # signs, not a product a * b that can underflow
    if not (math.isfinite(a) and math.isfinite(b)
            and (min(a, b) > 0.0 or max(a, b) < 0.0)):
        raise InvalidParameterError(
            f"zeta_m_range must be two same-sign values, got {zeta_m_range!r}")

    def curvature(zm):
        """s'' at the stationary point of s between the pair's peaks."""
        system = CavitySystem.with_middle(zeta, zm)
        # the closed-form pair ends at the threshold; above it the one
        # minimum stays within kappa of the pair center there
        seed = _pair_center(zeta, zm, pair_index)
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
