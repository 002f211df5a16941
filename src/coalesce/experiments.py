"""Deterministic dataset pipelines reproducing the headline figures.

Each pipeline returns a :class:`FigureDataset` holding equal-length
numeric series (columns), short derived series such as resonance markers
(annotations), and a full parameter echo sufficient to regenerate the
dataset bit-identically.  Numeric curves always come with their
closed-form overlay so the datasets embed their own oracles.  The
tracked figures (fig2, fig3 and the threshold sweep) seed
:func:`~coalesce.spectrum.track` with closed-form peaks at x = 0 and
leave the walk and its windows to it.  The pipelines run serially, one
trace after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from . import __version__, closed_form, spectrum
from .core_scatter import CavitySystem
from .errors import EdgeTruncationError, InvalidParameterError

__all__ = [
    "FigureDataset",
    "track_resonance",
    "run_fig1_spectra",
    "run_fig2_resonant_transmission",
    "run_fig3_mode_pulling",
    "run_threshold_sweep",
]

DEFAULT_ZETA = -10.0
FIG1_ZETA_M_LIST = (0.0, -20.0, -80.0, -201.0, -400.0)
FIG2_ZETA_M_LIST = (-0.5, -5.0, -50.0)
FIG3_ZETA_M = -196.6


@dataclass
class FigureDataset:
    """Named numeric series plus the parameters that regenerate them."""

    name: str
    columns: Dict[str, tuple]
    params: Dict[str, object]
    annotations: Dict[str, tuple] = field(default_factory=dict)


def thread_count():
    """Always 1: the pipelines run serially.

    Kept only because the benchmark probe in ``perfbench/run.py`` still
    records it.
    """
    return 1


def _grid(values) -> Tuple[float, ...]:
    return tuple(float(v) for v in values)


def _scaled(zeta, zeta_m):
    """``zeta_m`` times min(1, |zeta_m_star(zeta) / zeta_m_star(-10)|)."""
    # capped: scaled up, fig2's -50 needs a 5e6-point grid at zeta = -1000
    star = closed_form.coalescence_threshold
    return zeta_m * min(1.0, abs(star(zeta) / star(DEFAULT_ZETA)))


def run_fig1_spectra(zeta=DEFAULT_ZETA, zeta_m_list=FIG1_ZETA_M_LIST,
                     k_window=(1.8, 1.8 + 3.0 * math.pi), n_points=2001):
    """Transmission spectra T(k) for a ladder of middle reflectivities.

    One column per zeta_m over a common k grid, plus per-trace resonance
    markers (the closed-form pair positions: the unshifted even-mode
    resonance near 2*n*pi and its partner one splitting below, or above
    for zeta_m > 0) as annotations.
    """
    k_min, k_max = float(k_window[0]), float(k_window[1])
    ks = spectrum.linspace(k_min, k_max, int(n_points))
    traces = [_grid(spectrum.sample_transmission(
        CavitySystem.with_middle(zeta, zm), k_min, k_max, int(n_points))[1])
        for zm in zeta_m_list]
    columns = {"k": _grid(ks)}
    annotations = {}
    n_max = int(math.ceil(k_max / (2.0 * math.pi))) + 1
    for i, zm in enumerate(zeta_m_list):
        columns[f"T_{i}"] = traces[i]
        split = closed_form.mode_splitting(zm)
        marks = []
        for n in range(1, n_max + 1):
            even = closed_form.bare_resonance(2 * n + (zeta > 0), zeta)
            for mark in (even, even + split if zm > 0 else even - split):
                if k_min <= mark <= k_max:
                    marks.append(mark)
        annotations[f"markers_{i}"] = _grid(sorted(marks))
    params = {"zeta": float(zeta),
              "zeta_m_list": [float(z) for z in zeta_m_list],
              "k_window": [k_min, k_max],
              "n_points": int(n_points),
              "version": __version__}
    return FigureDataset(name="fig1_spectra", columns=columns, params=params,
                         annotations=annotations)


def track_resonance(zeta, zeta_m, x_values: Sequence, pair_index=1):
    """Follow the resonant peak of one pair across displacements.

    The one :func:`~coalesce.spectrum.track` member is seeded with the
    pair member at x = 0 closest to the bare even resonance (closed
    form).  Returns one :class:`~coalesce.spectrum.ResonancePeak` per x,
    in input order.
    """
    xs = spectrum.displacements(x_values)
    pair = closed_form.peak_positions(zeta, zeta_m, pair_index)
    # for zeta > 0 the even resonance near 2*n*pi has mode index 2n + 1
    bare = closed_form.bare_resonance(2 * pair_index + (zeta > 0), zeta)
    k0 = min((pair.k_even, pair.k_odd), key=lambda k: abs(k - bare))
    return [peak for (peak,) in spectrum.track(zeta, zeta_m, xs,
                                               seeds=(k0,))]


def run_fig2_resonant_transmission(zeta=DEFAULT_ZETA, zeta_m_list=None,
                                   x_grid=None, pair_index=1):
    """Tracked peak height vs displacement with its closed-form overlay.

    For each zeta_m (default: :data:`FIG2_ZETA_M_LIST`, the paper's at
    zeta = -10, scaled down with the threshold below |zeta| = 10, so
    each keeps its sign and its ratio to it) the peak nearest the x = 0
    resonance is followed across the displacement grid; columns per
    trace are the tracked wavenumber ``k_res_i``, the numeric height
    ``T_num_i`` and the displacement formula ``T_formula_i`` evaluated
    at the tracked wavenumber.
    """
    if zeta_m_list is None:
        zeta_m_list = [_scaled(zeta, zm) for zm in FIG2_ZETA_M_LIST]
    if x_grid is None:
        x_grid = spectrum.linspace(-0.1, 0.1, 201)
    xs = spectrum.displacements(x_grid)
    columns = {"x": _grid(xs)}
    for i, zm in enumerate(zeta_m_list):
        tracked = track_resonance(zeta, zm, xs, pair_index)
        columns[f"k_res_{i}"] = _grid(p.k_peak for p in tracked)
        columns[f"T_num_{i}"] = _grid(p.T_peak for p in tracked)
        columns[f"T_formula_{i}"] = _grid(
            closed_form.resonant_transmission(x, zm, p.k_peak)
            for x, p in zip(xs, tracked))
    params = {"zeta": float(zeta),
              "zeta_m_list": [float(z) for z in zeta_m_list],
              "x_grid": [float(x) for x in xs],
              "pair_index": int(pair_index),
              "version": __version__}
    return FigureDataset(name="fig2_resonant_transmission", columns=columns,
                         params=params)


def run_fig3_mode_pulling(zeta=DEFAULT_ZETA, zeta_m=None, x_grid=None,
                          pair_index=1):
    """Avoided crossing of the pair: pulled peaks vs lossless eigenmodes.

    Columns: the numerically tracked pulled branches (with heights) and
    the perfect-mirror eigenmode branches, all against displacement.
    The tracker is seeded with the closed-form pair at x = 0.  The
    default ``zeta_m`` is :data:`FIG3_ZETA_M` scaled like fig2's.
    """
    if zeta_m is None:
        zeta_m = _scaled(zeta, FIG3_ZETA_M)
    if x_grid is None:
        x_grid = spectrum.linspace(-0.003, 0.003, 201)
    xs = spectrum.displacements(x_grid)
    pair = closed_form.peak_positions(zeta, zeta_m, pair_index)
    tracked = spectrum.track(zeta, zeta_m, xs, seeds=(pair.k_even, pair.k_odd))
    if any(len(peaks) != 2 for peaks in tracked):
        raise InvalidParameterError(
            "pair merged inside the displacement grid; shrink |x| or "
            "reduce |zeta_m|")
    lossless = [closed_form.lossless_pair(zeta_m, x, pair_index) for x in xs]
    columns = {
        "x": _grid(xs),
        "k_lower": _grid(lower.k_peak for lower, _ in tracked),
        "k_upper": _grid(upper.k_peak for _, upper in tracked),
        "T_lower": _grid(lower.T_peak for lower, _ in tracked),
        "T_upper": _grid(upper.T_peak for _, upper in tracked),
        "k_lossless_lower": _grid(k for k, _ in lossless),
        "k_lossless_upper": _grid(k for _, k in lossless),
    }
    params = {"zeta": float(zeta), "zeta_m": float(zeta_m),
              "x_grid": [float(x) for x in xs],
              "pair_index": int(pair_index),
              "version": __version__}
    return FigureDataset(name="fig3_mode_pulling", columns=columns,
                         params=params)


def run_threshold_sweep(zeta=DEFAULT_ZETA, zeta_m_grid=None, pair_index=1):
    """Peak count, heights and merged width across the coalescence threshold.

    The grid must straddle the threshold.  The numeric merge point, the
    fold that :func:`~coalesce.spectrum.find_merge_point` solves between
    the grid's weakest and strongest zeta_m, is echoed in the params.
    Each row is one :func:`~coalesce.spectrum.track` step at x = 0,
    seeded with the closed-form pair below zeta_m_star and with one peak
    at the pair center at zeta_m_star from there up, so the row at
    zeta_m_star is a single peak by rule.
    """
    star = closed_form.coalescence_threshold(zeta)
    if zeta_m_grid is None:
        zeta_m_grid = tuple(star * s
                            for s in spectrum.linspace(0.75, 1.25, 41))
    zms = [float(z) for z in zeta_m_grid]
    merge = spectrum.find_merge_point(
        zeta, (min(zms, key=abs), max(zms, key=abs)), pair_index)

    def row(zm):
        if abs(zm) < abs(star):
            pair = closed_form.peak_positions(zeta, zm, pair_index)
            seeds = (pair.k_even, pair.k_odd)
        else:
            seeds = (closed_form.pair_center(zeta, star, pair_index),)
        (peaks,) = spectrum.track(zeta, zm, [0.0], seeds=seeds)
        if len(peaks) == 2:
            return (2, peaks[0].k_peak, peaks[0].T_peak,
                    peaks[1].k_peak, peaks[1].T_peak, math.nan)
        (pk,) = peaks
        try:
            width = 2.0 * spectrum.peak_halfwidth(
                CavitySystem.with_middle(zeta, zm), pk)
        except EdgeTruncationError:
            width = math.nan
        return (1, pk.k_peak, pk.T_peak, math.nan, math.nan, width)

    rows = [row(zm) for zm in zms]
    columns = {
        "zeta_m": _grid(zms),
        "n_peaks": _grid(r[0] for r in rows),
        "k_peak_1": _grid(r[1] for r in rows),
        "T_peak_1": _grid(r[2] for r in rows),
        "k_peak_2": _grid(r[3] for r in rows),
        "T_peak_2": _grid(r[4] for r in rows),
        "fwhm_merged": _grid(r[5] for r in rows),
    }
    params = {"zeta": float(zeta),
              "zeta_m_grid": zms,
              "pair_index": int(pair_index),
              "zeta_m_star": star,
              "zeta_m_merge": merge,
              "version": __version__}
    return FigureDataset(name="threshold_sweep", columns=columns,
                         params=params)
