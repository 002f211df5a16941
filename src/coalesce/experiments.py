"""Deterministic dataset pipelines reproducing the headline figures.

Each pipeline returns a :class:`FigureDataset` holding equal-length
numeric series (columns), short derived series such as resonance markers
(annotations), and a full parameter echo sufficient to regenerate the
dataset bit-identically.  Numeric curves always come with their
closed-form overlay so the datasets embed their own oracles.

Pipelines parallelize across independent traces with a thread pool sized
by the COALESCE_THREADS environment variable (default: available cores);
results are assembled in input order, so the output does not depend on
the schedule.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from . import __version__, closed_form, spectrum, two_mode
from .core_scatter import CavitySystem
from .errors import (EdgeTruncationError, InvalidParameterError,
                     PairIdentificationError)

__all__ = [
    "FigureDataset",
    "thread_count",
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
    """Parallelism hint: COALESCE_THREADS env var, default available cores."""
    raw = os.environ.get("COALESCE_THREADS", "")
    try:
        n = int(raw) if raw else (os.cpu_count() or 1)
    except ValueError:
        n = os.cpu_count() or 1
    return max(n, 1)


def _ordered_map(fn, items):
    items = list(items)
    workers = min(thread_count(), len(items))
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _grid(values) -> Tuple[float, ...]:
    return tuple(float(v) for v in values)


def run_fig1_spectra(zeta=DEFAULT_ZETA, zeta_m_list=FIG1_ZETA_M_LIST,
                     k_window=(1.8, 1.8 + 3.0 * math.pi), n_points=2001):
    """Transmission spectra T(k) for a ladder of middle reflectivities.

    One column per zeta_m over a common k grid, plus per-trace resonance
    markers (the closed-form pair positions: the unshifted even-mode
    resonance and its partner one splitting below) as annotations.
    """
    k_min, k_max = float(k_window[0]), float(k_window[1])
    ks = np.linspace(k_min, k_max, int(n_points))

    def trace(zm):
        system = CavitySystem.with_middle(zeta, zm)
        _, ts = spectrum.scan_transmission(system, k_min, k_max,
                                           int(n_points))
        return _grid(ts)

    traces = _ordered_map(trace, zeta_m_list)
    columns = {"k": _grid(ks)}
    annotations = {}
    n_max = int(math.ceil(k_max / (2.0 * math.pi))) + 1
    for i, zm in enumerate(zeta_m_list):
        columns[f"T_{i}"] = traces[i]
        split = closed_form.mode_splitting(zm)
        marks = []
        for n in range(1, n_max + 1):
            even = closed_form.bare_resonance(2 * n, zeta)
            for mark in (even, even - split):
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


def _start_wavenumber(zeta, zeta_m, pair_index):
    """Pair member closest to the bare even resonance: tracking seed."""
    pair = closed_form.peak_positions(zeta, zeta_m, pair_index)
    bare = closed_form.bare_resonance(2 * pair_index, zeta)
    return min((pair.k_even, pair.k_odd), key=lambda k: abs(k - bare))


def track_resonance(zeta, zeta_m, x_values: Sequence, k_start,
                    half_width=0.35, grid_per_kappa=25):
    """Follow the single transmission peak nearest a moving center.

    ``x_values`` is visited in order; the window recenters on the peak
    found at the previous displacement.  Returns (k_peak, T_peak) per x.
    """
    center = float(k_start)
    out = []
    for x in x_values:
        system = CavitySystem.with_middle(zeta, zeta_m, float(x))
        peaks = spectrum.find_peaks(system, center - half_width,
                                    center + half_width,
                                    grid_per_kappa=grid_per_kappa)
        if not peaks:
            raise PairIdentificationError(
                f"resonance tracking lost the peak at x = {x}")
        best = min(peaks, key=lambda p: abs(p.k_peak - center))
        out.append((best.k_peak, best.T_peak))
        center = best.k_peak
    return out


def _track_full_grid(zeta, zeta_m, xs, pair_index):
    """Track outward from x = 0 over a grid containing both signs.

    Coarse grids are densified with intermediate waypoints so the peak
    never moves further than a fraction of the window between steps
    (the branch slope is bounded by the tunneling rate).
    """
    xs = [float(x) for x in xs]
    k0 = _start_wavenumber(zeta, zeta_m, pair_index)
    g_est = two_mode.tunneling_rate(zeta_m, k0)
    half_width = 0.35
    max_step = 0.25 * half_width / g_est if g_est > 0 else math.inf
    order_pos = sorted((i for i, x in enumerate(xs) if x >= 0),
                       key=lambda i: xs[i])
    order_neg = sorted((i for i, x in enumerate(xs) if x < 0),
                       key=lambda i: -xs[i])
    results = [None] * len(xs)
    for order in (order_pos, order_neg):
        if not order:
            continue
        path = []
        wanted = []
        previous = 0.0
        for i in order:
            target = xs[i]
            gap = target - previous
            extra = (int(math.ceil(abs(gap) / max_step)) - 1
                     if math.isfinite(max_step) and max_step > 0 else 0)
            for j in range(1, extra + 1):
                path.append(previous + gap * j / (extra + 1))
            path.append(target)
            wanted.append(len(path) - 1)
            previous = target
        tracked = track_resonance(zeta, zeta_m, path, k0,
                                  half_width=half_width)
        for i, j in zip(order, wanted):
            results[i] = tracked[j]
    return results


def run_fig2_resonant_transmission(zeta=DEFAULT_ZETA,
                                   zeta_m_list=FIG2_ZETA_M_LIST,
                                   x_grid=None, pair_index=1):
    """Tracked peak height vs displacement with its closed-form overlay.

    For each zeta_m the peak nearest the x = 0 resonance is followed
    across the displacement grid; columns per trace are the tracked
    wavenumber ``k_res_i``, the numeric height ``T_num_i`` and the
    displacement formula ``T_formula_i`` evaluated at the tracked
    wavenumber.
    """
    if x_grid is None:
        x_grid = np.linspace(-0.1, 0.1, 201)
    xs = [float(x) for x in x_grid]
    if any(not abs(x) < 0.25 for x in xs):
        raise InvalidParameterError("x grid must lie inside (-1/4, 1/4)")

    def trace(zm):
        tracked = _track_full_grid(zeta, zm, xs, pair_index)
        ks = [k for k, _ in tracked]
        ts = [t for _, t in tracked]
        overlay = [closed_form.resonant_transmission(x, zm, k)
                   for x, k in zip(xs, ks)]
        return ks, ts, overlay

    traces = _ordered_map(trace, zeta_m_list)
    columns = {"x": _grid(xs)}
    for i, (ks, ts, overlay) in enumerate(traces):
        columns[f"k_res_{i}"] = _grid(ks)
        columns[f"T_num_{i}"] = _grid(ts)
        columns[f"T_formula_{i}"] = _grid(overlay)
    params = {"zeta": float(zeta),
              "zeta_m_list": [float(z) for z in zeta_m_list],
              "x_grid": [float(x) for x in xs],
              "pair_index": int(pair_index),
              "version": __version__}
    return FigureDataset(name="fig2_resonant_transmission", columns=columns,
                         params=params)


def run_fig3_mode_pulling(zeta=DEFAULT_ZETA, zeta_m=FIG3_ZETA_M,
                          x_grid=None, k_window=None, pair_index=1):
    """Avoided crossing of the pair: pulled peaks vs lossless eigenmodes.

    Columns: the numerically tracked pulled branches (with heights) and
    the perfect-mirror eigenmode branches, all against displacement.
    """
    if x_grid is None:
        x_grid = np.linspace(-0.003, 0.003, 201)
    xs = [float(x) for x in x_grid]
    if k_window is None:
        k_window = spectrum.branch_window(zeta, zeta_m, xs, pair_index)
    else:
        # the pair must exist, as for the default window
        closed_form.pair_center(zeta, zeta_m, pair_index)
    branch = spectrum.track_branches(zeta, zeta_m, xs, k_window)
    if len(branch) != len(xs):
        raise InvalidParameterError(
            "pair merged inside the displacement grid; shrink |x| or "
            "reduce |zeta_m|")
    lossless = _ordered_map(
        lambda x: closed_form.lossless_pair(zeta_m, x, pair_index), xs)
    columns = {
        "x": _grid(xs),
        "k_lower": _grid(b.k_lower for b in branch),
        "k_upper": _grid(b.k_upper for b in branch),
        "T_lower": _grid(b.T_lower for b in branch),
        "T_upper": _grid(b.T_upper for b in branch),
        "k_lossless_lower": _grid(lo for lo, _ in lossless),
        "k_lossless_upper": _grid(hi for _, hi in lossless),
    }
    params = {"zeta": float(zeta), "zeta_m": float(zeta_m),
              "x_grid": [float(x) for x in xs],
              "k_window": [float(k_window[0]), float(k_window[1])],
              "pair_index": int(pair_index),
              "version": __version__}
    return FigureDataset(name="fig3_mode_pulling", columns=columns,
                         params=params)


def run_threshold_sweep(zeta=DEFAULT_ZETA, zeta_m_grid=None, pair_index=1):
    """Peak count, heights and merged width across the coalescence threshold.

    The grid must straddle the threshold; the numeric merge point is
    located by bisection and echoed in the params.
    """
    star = closed_form.coalescence_threshold(zeta)
    if zeta_m_grid is None:
        zeta_m_grid = tuple(star * s for s in np.linspace(0.75, 1.25, 41))
    zms = [float(z) for z in zeta_m_grid]

    def row(zm):
        lo, hi = spectrum.pair_window(zeta, zm, pair_index)
        system = CavitySystem.with_middle(zeta, zm)
        peaks = spectrum.find_peaks(system, lo, hi)
        peaks = sorted(peaks, key=lambda p: p.k_peak)[:2]
        if len(peaks) == 2:
            return (2, peaks[0].k_peak, peaks[0].T_peak,
                    peaks[1].k_peak, peaks[1].T_peak, math.nan)
        if len(peaks) == 1:
            pk = peaks[0]
            try:
                width = 2.0 * spectrum.peak_halfwidth(system, pk)
            except EdgeTruncationError:
                width = math.nan
            return (1, pk.k_peak, pk.T_peak, math.nan, math.nan, width)
        return (0, math.nan, math.nan, math.nan, math.nan, math.nan)

    rows = _ordered_map(row, zms)
    weak = min(zms, key=abs)
    strong = max(zms, key=abs)
    merge = spectrum.find_merge_point(zeta, (weak, strong), pair_index)
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
