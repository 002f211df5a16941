"""Checks of every CLI output against closed forms computed here.

Nothing in this module imports ``coalesce``: each expected value comes
from the paper's formulas or from a plain 2x2 transfer-matrix product
written out below, so a defect in the program cannot hide in its own
oracle.  A check is ``(name, deviation, tolerance)``; it passes when
``deviation <= tolerance`` (a NaN deviation fails).  The tolerances are
those ``tests/test_acceptance.py`` pins, plus two that reflect how the
CLI prints numbers (12 significant digits):

* ``EXACT_REL``: relative tolerance for values the CLI computes from a
  closed form, which differ from ours only by rounding and printing;
* ``T_ABS``: absolute tolerance between the program's T(k) and the
  plain matrix product at the same k.  The worst difference seen at
  |zeta| = 40, |zeta_m| = 1200 is 7e-11.
"""

from __future__ import annotations

import cmath
import json
import math
import random

EXACT_REL = 1e-9
T_ABS = 1e-9
GAP_REL = 0.05          # numeric pair gap vs pulled-peak formula
MERGE_REL = 0.05        # numeric merge point vs threshold
FIG2_ABS = 0.02         # |T_num - T_formula| in fig2
LOSSLESS_ABS = 1e-10    # fig3 lossless gap at x = 0
SAMPLED_ROWS = 2000     # spectrum rows held against the matrix product
HBAR = 1.054571817e-34


class OracleError(Exception):
    """Output that cannot be checked: unreadable, missing or misshapen."""


# ---------------------------------------------------------------------------
# closed forms


def threshold(zeta):
    """Coalescence threshold 2*zeta*sqrt(zeta^2 + 1)."""
    return 2.0 * zeta * math.hypot(zeta, 1.0)


def linewidth(zeta):
    """Bare-cavity HWHM 1/(2|zeta| sqrt(1 + zeta^2))."""
    return 1.0 / (2.0 * abs(zeta) * math.hypot(zeta, 1.0))


def splitting(zeta_m):
    """Lossless pair separation 2*atan(1/|zeta_m|)."""
    return 2.0 * math.atan(1.0 / abs(zeta_m))


def pulled_pair(zeta, zeta_m, n):
    """Pulled transmission peaks (lower, upper) of the pair near 2*n*pi.

    cos(eps) = [zeta_m (2 zeta^2 + 1)(zeta zeta_m - 1)
                +- (zeta + zeta_m) sqrt(4 zeta^2 (zeta^2 + 1) - zeta_m^2)]
               / [2 zeta (zeta^2 + 1)(zeta_m^2 + 1)],   k = 2 n pi - eps.
    """
    z2 = zeta * zeta
    root = math.sqrt(4.0 * z2 * (z2 + 1.0) - zeta_m * zeta_m)
    base = zeta_m * (2.0 * z2 + 1.0) * (zeta * zeta_m - 1.0)
    den = 2.0 * zeta * (z2 + 1.0) * (zeta_m * zeta_m + 1.0)
    ks = [2.0 * n * math.pi - math.acos(max(-1.0, min(1.0, c / den)))
          for c in (base + (zeta + zeta_m) * root,
                    base - (zeta + zeta_m) * root)]
    return min(ks), max(ks)


def _mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def _scatter(zeta):
    return ((1.0 + 1j * zeta, 1j * zeta), (-1j * zeta, 1.0 - 1j * zeta))


def _hop(k, d):
    e = cmath.exp(1j * k * d)
    return ((e, 0.0), (0.0, e.conjugate()))


def transmission(zeta, zeta_m, x, k):
    """T = 1/|m22|^2 of end mirror, gap, middle element, gap, end mirror."""
    pos = 0.5 + x
    m = _mul(_hop(k, pos), _scatter(zeta))
    m = _mul(_hop(k, 1.0 - pos), _mul(_scatter(zeta_m), m))
    m = _mul(_scatter(zeta), m)
    return 1.0 / abs(m[1][1]) ** 2


# ---------------------------------------------------------------------------
# output parsing


def read_csv(path):
    """Parse CLI CSV output into (params, columns of floats)."""
    params, header, rows = {}, None, []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line.startswith("# annotation "):
                    continue
                if line.startswith("# "):
                    key, _, value = line[2:].partition(" = ")
                    params[key] = json.loads(value)
                elif header is None:
                    header = line.split(",")
                else:
                    rows.append([float(v) if v else math.nan
                                 for v in line.split(",")])
    except (OSError, ValueError) as exc:
        raise OracleError(f"cannot parse {path}: {exc}") from exc
    if header is None or not rows:
        raise OracleError(f"{path}: no data rows")
    if any(len(r) != len(header) for r in rows):
        raise OracleError(f"{path}: ragged rows")
    return params, {name: [r[i] for r in rows]
                    for i, name in enumerate(header)}


def _column(columns, name):
    if name not in columns:
        raise OracleError(f"missing column {name!r}")
    return columns[name]


def _value(columns, name):
    return _column(columns, name)[0]


def _rel(name, got, want, tol):
    return (name, abs(got - want) / abs(want), tol)


def _abs(name, got, want, tol):
    return (name, abs(got - want), tol)


def _worst(name, pairs, tol):
    """One check: the largest |got - want| over (got, want) pairs."""
    return (name, max((abs(g - w) for g, w in pairs), default=0.0), tol)


def _range_check(name, values):
    """T must lie in [0, 1]; deviation is the largest excursion."""
    excess = max(max(-v, v - 1.0, 0.0) if v == v else math.inf
                 for v in values)
    return (name, excess, T_ABS)


def _sampled_rows(n, seed):
    if n <= SAMPLED_ROWS:
        return range(n)
    return sorted(random.Random(seed).sample(range(n), SAMPLED_ROWS))


def _linspace_k(kmin, kmax, n, i):
    return kmin + i * ((kmax - kmin) / (n - 1))


def _spectrum_checks(label, zeta, zeta_m, ks_out, ts_out, kmin, kmax, n):
    """A sampled T(k) trace against the plain matrix product."""
    if len(ks_out) != n or len(ts_out) != n:
        raise OracleError(f"{label}: {len(ks_out)} rows, expected {n}")
    rows = _sampled_rows(n, n)
    ks = [_linspace_k(kmin, kmax, n, i) for i in rows]
    return [
        _range_check(f"{label}.T_range", ts_out),
        _worst(f"{label}.k_grid", ((ks_out[i], k) for i, k in zip(rows, ks)),
               EXACT_REL * kmax),
        _worst(f"{label}.T_vs_matrix",
               ((ts_out[i], transmission(zeta, zeta_m, 0.0, k))
                for i, k in zip(rows, ks)), T_ABS),
    ]


def _pair_checks(label, zeta, zeta_m, k_lo, k_hi, n):
    lower, upper = pulled_pair(zeta, zeta_m, n)
    return [_rel(f"{label}.pair_gap", k_hi - k_lo, upper - lower, GAP_REL)]


# ---------------------------------------------------------------------------
# one oracle per command kind


def _fig1(params, columns, _inputs):
    n = int(params["n_points"])
    kmin, kmax = params["k_window"]
    checks = []
    for i, zm in enumerate(params["zeta_m_list"]):
        checks += _spectrum_checks(f"fig1.T_{i}", params["zeta"], zm,
                                   _column(columns, "k"),
                                   _column(columns, f"T_{i}"), kmin, kmax, n)
    return checks


def _fig2(params, columns, _inputs):
    xs = _column(columns, "x")
    checks = []
    for i, zm in enumerate(params["zeta_m_list"]):
        ks = _column(columns, f"k_res_{i}")
        num = _column(columns, f"T_num_{i}")
        formula = _column(columns, f"T_formula_{i}")
        checks.append(_worst(f"fig2.T_num_{i}_vs_formula",
                             zip(num, formula), FIG2_ABS))
        checks.append(_worst(
            f"fig2.T_num_{i}_vs_matrix",
            ((t, transmission(params["zeta"], zm, x, k))
             for x, k, t in zip(xs, ks, num)), T_ABS))
    return checks


def _fig3(params, columns, _inputs):
    zeta, zeta_m = params["zeta"], params["zeta_m"]
    xs = _column(columns, "x")
    if 0.0 not in xs:
        raise OracleError("fig3: no x = 0 row")
    i0 = xs.index(0.0)
    lossless_gap = (_column(columns, "k_lossless_upper")[i0]
                    - _column(columns, "k_lossless_lower")[i0])
    checks = [_abs("fig3.lossless_gap_x0", lossless_gap, splitting(zeta_m),
                   LOSSLESS_ABS)]
    checks += _pair_checks("fig3", zeta, zeta_m,
                           _column(columns, "k_lower")[i0],
                           _column(columns, "k_upper")[i0], 1)
    for side in ("lower", "upper"):
        checks.append(_worst(
            f"fig3.T_{side}_vs_matrix",
            ((t, transmission(zeta, zeta_m, x, k)) for x, k, t in zip(
                xs, _column(columns, f"k_{side}"),
                _column(columns, f"T_{side}"))), T_ABS))
    return checks


def _threshold_sweep(params, columns, _inputs):
    zeta = params["zeta"]
    checks = [_rel("sweep.zeta_m_merge", params["zeta_m_merge"],
                   threshold(zeta), MERGE_REL)]
    pairs = []
    for zm, count, k1, t1 in zip(_column(columns, "zeta_m"),
                                 _column(columns, "n_peaks"),
                                 _column(columns, "k_peak_1"),
                                 _column(columns, "T_peak_1")):
        if count >= 1:
            pairs.append((t1, transmission(zeta, zm, 0.0, k1)))
    checks.append(_worst("sweep.T_peak_vs_matrix", pairs, T_ABS))
    return checks


def _splitting(_params, columns, inputs):
    want = splitting(inputs["zeta_m"])
    return [_rel("splitting.two_delta", _value(columns, "two_delta"), want,
                 EXACT_REL),
            _rel("splitting.delta", _value(columns, "delta"), 0.5 * want,
                 EXACT_REL)]


def _threshold(_params, columns, inputs):
    star = threshold(inputs["zeta"])
    checks = [_rel("threshold.zeta_m_star", _value(columns, "zeta_m_star"),
                   star, EXACT_REL)]
    if inputs["numeric"]:
        checks.append(_rel("threshold.zeta_m_merge",
                           _value(columns, "zeta_m_merge"), star, MERGE_REL))
    return checks


def _report(_params, columns, inputs):
    zeta, zeta_m = inputs["zeta"], inputs["zeta_m"]
    lower, upper = pulled_pair(zeta, zeta_m, 1)
    return [
        _rel("report.kappa", _value(columns, "kappa"), linewidth(zeta),
             EXACT_REL),
        _rel("report.delta", _value(columns, "delta"),
             0.5 * splitting(zeta_m), EXACT_REL),
        _rel("report.zeta_m_star", _value(columns, "zeta_m_star"),
             threshold(zeta), EXACT_REL),
        _rel("report.pair_gap", _value(columns, "pair_gap"), upper - lower,
             EXACT_REL),
    ]


def _sensitivity(_params, columns, inputs):
    zeta, zeta_m = inputs["zeta"], inputs["zeta_m"]
    omega = 0.5 * sum(pulled_pair(zeta, zeta_m, 1))
    star = threshold(zeta)
    enhancement = 2.0 * zeta * zeta / math.sqrt(star * star - zeta_m * zeta_m)
    g2_base = 2.0 * omega * omega * abs(zeta_m)
    x_zpf = math.sqrt(HBAR / (2.0 * inputs["mass"] * inputs["mech_freq"]))
    return [
        _rel("sensitivity.omega", _value(columns, "omega"), omega, EXACT_REL),
        _rel("sensitivity.enhancement", _value(columns, "enhancement"),
             enhancement, EXACT_REL),
        _rel("sensitivity.g2", _value(columns, "g2"),
             enhancement * g2_base, EXACT_REL),
        _rel("sensitivity.x_zpf", _value(columns, "x_zpf"), x_zpf,
             EXACT_REL),
    ]


def _stack(_params, columns, inputs):
    n = inputs["n_layers"]
    zeta = inputs["zeta"]
    want = (zeta * zeta / 2.0 ** (n - 2)) ** (1.0 / n)
    return [_rel("stack.threshold_per_element",
                 _value(columns, "threshold_per_element"), want, EXACT_REL)]


def _peaks(_params, columns, inputs):
    """Every pair near 2*n*pi that lies well inside the window."""
    zeta, zeta_m = inputs["zeta"], inputs["zeta_m"]
    ks = _column(columns, "k_peak")
    ts = _column(columns, "T_peak")
    margin = 2.0 * linewidth(zeta)
    checks = [_worst("peaks.T_peak_vs_matrix",
                     ((t, transmission(zeta, zeta_m, 0.0, k))
                      for k, t in zip(ks, ts)), T_ABS)]
    n = 1
    while 2.0 * n * math.pi - math.pi < inputs["kmax"]:
        lower, upper = pulled_pair(zeta, zeta_m, n)
        if inputs["kmin"] + margin < lower and upper < inputs["kmax"] - margin:
            near = sorted(ks, key=lambda k: abs(k - 0.5 * (lower + upper)))
            if len(near) < 2:
                raise OracleError(f"peaks: pair near {2 * n}*pi not found")
            k_lo, k_hi = sorted(near[:2])
            checks += _pair_checks(f"peaks.n{n}", zeta, zeta_m, k_lo, k_hi, n)
        n += 1
    if len(checks) < 2:
        raise OracleError("peaks: window holds no whole pair")
    return checks


def _spectrum(_params, columns, inputs):
    return _spectrum_checks("spectrum", inputs["zeta"], inputs["zeta_m"],
                            _column(columns, "k"), _column(columns, "T"),
                            inputs["kmin"], inputs["kmax"], inputs["points"])


_ORACLES = {
    "spectrum": _spectrum, "fig1": _fig1, "fig2": _fig2, "fig3": _fig3,
    "threshold-sweep": _threshold_sweep, "splitting": _splitting,
    "threshold": _threshold, "report": _report,
    "sensitivity": _sensitivity, "stack": _stack, "peaks": _peaks,
}


def check(command, path):
    """All checks of one command's output file.

    Output of the wrong shape (a missing or null parameter, a short or
    empty column) raises OracleError, as unreadable output does, so the
    command counts as failed instead of stopping the benchmark.
    """
    params, columns = read_csv(path)
    try:
        return _ORACLES[command.kind](params, columns, command.params)
    except (KeyError, TypeError, IndexError, ValueError,
            ZeroDivisionError) as exc:
        raise OracleError(f"{command.kind}: misshapen output: "
                          f"{type(exc).__name__}: {exc}") from exc


def failed(checks):
    """The checks whose deviation exceeds the tolerance (or is NaN)."""
    return [c for c in checks if not c[1] <= c[2]]


def worst_ratio(checks):
    """Largest deviation / tolerance over the checks."""
    return max((c[1] / c[2] for c in checks), default=0.0)
