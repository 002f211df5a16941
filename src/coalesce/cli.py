"""Command-line surface: every computation, reproducibly parameterized.

Subcommands cover the raw scans (spectrum, peaks), the closed forms
(splitting, threshold, report), displacement sweeps (sweep-x, branches),
sensitivity estimates, multilayer stacks, and the figure pipelines.
Output is CSV (with a '#'-prefixed metadata block echoing all effective
parameters) or JSON ({"params": ..., "data": ...}); files are written
atomically.  Effective parameters merge flags > config file > defaults.

Exit codes: 0 success, 2 argument/config parse error, 3 domain error
(reported on stderr as one line 'error[<token>]: <message>').
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__, closed_form, experiments, spectrum, two_mode
from .core_scatter import (CavitySystem, effective_polarizability,
                           maximize_stack_polarizability)
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

__all__ = ["RunConfig", "load_config", "main", "run"]

# Arguments argparse must read as (negative) numbers rather than flags; its
# default matcher misses exponent notation such as -1e3 before Python 3.13.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")

_ERROR_TOKENS = (
    (DivergentSensitivityError, "divergent-sensitivity"),
    (AboveThresholdError, "above-threshold"),
    (NotBracketedError, "not-bracketed"),
    (EdgeTruncationError, "edge-truncation"),
    (PairIdentificationError, "pair-identification"),
    (InternalConsistencyError, "internal-consistency"),
    (InvalidParameterError, "invalid-parameter"),
    (CoalescenceError, "domain-error"),
)


class ConfigError(Exception):
    """Malformed or unreadable config file (exit code 2)."""


@dataclass
class RunConfig:
    """Raw key/value options read from a config file."""

    subcommand: str | None = None
    values: dict = field(default_factory=dict)


def load_config(path) -> RunConfig:
    """Parse a plain-text 'key = value' config file.

    Blank lines and '#' comments are ignored; keys may use '-' or '_'.
    A line without '=' is a parse error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return RunConfig(values=values)


def _coerce(raw, typ, key):
    try:
        if typ is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"config value {key} = {raw!r} is not a valid "
                          f"{typ.__name__}") from exc


# dest -> (type, default, help); shared output options are appended to all
_COMMON = {
    "output": (str, None, "output path (default: stdout)"),
    "format": (str, "csv", "output format: csv or json"),
}

_OPTIONS = {
    "spectrum": {
        "zeta": (float, -10.0, "end-mirror polarizability"),
        "zeta_m": (float, None, "middle polarizability (omit: empty cavity)"),
        "x": (float, 0.0, "middle-element displacement"),
        "kmin": (float, 5.8, "window lower edge"),
        "kmax": (float, 6.4, "window upper edge"),
        "points": (int, 2001, "number of samples"),
    },
    "peaks": {
        "zeta": (float, -10.0, "end-mirror polarizability"),
        "zeta_m": (float, None, "middle polarizability (omit: empty cavity)"),
        "x": (float, 0.0, "middle-element displacement"),
        "kmin": (float, 5.8, "window lower edge"),
        "kmax": (float, 6.4, "window upper edge"),
        "grid_per_kappa": (int, 50, "grid points per linewidth"),
        "refine_tol": (float, 1e-10, "refinement tolerance in k"),
        "prominence": (float, 1e-9, "minimum maximum prominence"),
    },
    "splitting": {
        "zeta_m": (float, -196.6, "middle polarizability"),
    },
    "threshold": {
        "zeta": (float, -10.0, "end-mirror polarizability"),
        "numeric": (bool, False, "also locate the merge numerically"),
        "zm_lo": (float, None, "weak end of the numeric bracket"),
        "zm_hi": (float, None, "strong end of the numeric bracket"),
    },
    "sweep-x": {
        "zeta": (float, -10.0, "end-mirror polarizability"),
        "zeta_m": (float, -50.0, "middle polarizability"),
        "xmin": (float, -0.1, "displacement grid start"),
        "xmax": (float, 0.1, "displacement grid end"),
        "xpoints": (int, 201, "displacement grid size"),
        "pair_index": (int, 1, "coalescing pair index"),
    },
    "branches": {
        "zeta": (float, -10.0, "end-mirror polarizability"),
        "zeta_m": (float, -196.6, "middle polarizability"),
        "xmin": (float, -0.003, "displacement grid start"),
        "xmax": (float, 0.003, "displacement grid end"),
        "xpoints": (int, 201, "displacement grid size"),
        "kmin": (float, None, "tracking window lower edge (default: auto)"),
        "kmax": (float, None, "tracking window upper edge (default: auto)"),
        "pair_index": (int, 1, "coalescing pair index"),
    },
    "sensitivity": {
        "zeta": (float, -10.0, "end-mirror polarizability"),
        "zeta_m": (float, -196.6, "middle polarizability"),
        "omega": (float, None, "probe frequency (default: pair center)"),
        "pair_index": (int, 1, "coalescing pair index"),
        "mass": (float, None, "membrane mass in kg (enables SI block)"),
        "mech_freq": (float, None, "mechanical frequency in rad/s"),
        "temperature": (float, 0.0, "temperature in K"),
        "wavelength": (float, 1e-6, "optical wavelength in m"),
    },
    "stack": {
        "zeta": (float, -10.0, "end-mirror polarizability (for threshold)"),
        "zeta_element": (float, -1.0, "per-layer polarizability"),
        "n_layers": (int, 2, "number of layers"),
        "k": (float, 2.0 * math.pi, "wavenumber for the stack response"),
        "spacing": (float, None, "fixed spacing (default: optimize)"),
        "spacing_max": (float, 0.24, "largest spacing scanned"),
        "spacing_grid": (int, 20001, "spacing grid size"),
    },
    "figures": {
        "zeta": (float, -10.0, "end-mirror polarizability"),
    },
    "report": {
        "zeta": (float, -10.0, "end-mirror polarizability"),
        "zeta_m": (float, -196.6, "middle polarizability"),
        "pair_index": (int, 1, "coalescing pair index"),
    },
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="coalesce",
        description="Transfer-matrix Fabry-Perot cavity with a movable "
                    "middle reflector: spectra, coalescence, readout.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, table in _OPTIONS.items():
        sub = subs.add_parser(name)
        sub._negative_number_matcher = _NEGATIVE_NUMBER
        if name == "figures":
            sub.add_argument("figure",
                             choices=("fig1", "fig2", "fig3",
                                      "threshold-sweep"))
        for dest, (typ, _default, help_text) in {**table, **_COMMON}.items():
            flags = ["--" + dest.replace("_", "-")]
            if dest == "output":
                flags.append("-o")
            if typ is bool:
                sub.add_argument(*flags, action="store_const", const=True,
                                 default=None, dest=dest, help=help_text)
            else:
                sub.add_argument(*flags, type=typ, default=None, dest=dest,
                                 help=help_text)
        sub.add_argument("--config", type=str, default=None,
                         help="key = value config file (flags take precedence)")
    return parser


def _effective(args, table):
    """Merge flag > config file > default for one subcommand."""
    cfg = load_config(args.config) if args.config else RunConfig()
    table = {**table, **_COMMON}
    for key in cfg.values:
        if key not in table:
            print(f"warning: unknown config key '{key}' ignored",
                  file=sys.stderr)
    out = {}
    for dest, (typ, default, _help) in table.items():
        value = getattr(args, dest, None)
        if value is None and dest in cfg.values:
            value = _coerce(cfg.values[dest], typ, dest)
        if value is None:
            value = default
        out[dest] = value
    if out["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {out['format']!r}")
    return out


# ---------------------------------------------------------------------------
# output


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.11e}"
    return str(value)


_CSV_BLOCK = 1 << 16
# the longest "%.11e" of a float: -d.ddddddddddde-ddd
_FLOAT_WIDTH = 19
# 10**k is a float64 without rounding for k <= 22
_POW10 = np.array([float(10 ** k) for k in range(23)])
_LOG10_2 = math.log10(2.0)


def _scaled(a, shift):
    """a * 10**shift with one rounding, for |shift| <= 22.

    One of the two table entries is 1, so the product or the quotient
    is exact.  Larger |shift| reads a clipped (wrong) power.
    """
    return (a * _POW10[np.clip(shift, 0, 22)]
            / _POW10[np.clip(-shift, 0, 22)])


def _float_cells(x):
    """The bytes of "%.11e" % v for each v of a float64 array.

    Returns a (len(x), 19) uint8 matrix and the mask of the bytes each
    cell uses.  With e = floor(log10|v|), y = |v| * 10**(11 - e) lies in
    [1e11, 1e12) and rint(y) holds the 12 digits (carried to the next
    exponent at 1e12).  The power is exact for |11 - e| <= 22, so y takes
    one rounding; rounding is monotone and every half-integer below 1e12
    is a float, so rint(y) is the correctly rounded digit string unless
    y itself is a half-integer, where the exact value may lie on either
    side of it.  Those cells, zeros, non-finite values and exponents
    beyond the table are formatted by _fmt instead, so every cell is
    exact by construction.
    """
    a = np.abs(x)
    fast = (a > 0.0) & (a < np.inf)
    a[~fast] = 1.0                    # keeps the arithmetic below finite
    # floor(log10 2**(p - 1)) from the binary exponent p is e or e - 1
    e = np.floor((np.frexp(a)[1] - 1) * _LOG10_2).astype(np.int64)
    e += _scaled(a, 11 - e) >= 1e12
    y = _scaled(a, 11 - e)
    n = np.rint(y)
    fast &= (np.abs(11 - e) <= 22) & (np.abs(y - n) != 0.5)
    n[~fast] = 1e11
    carry = n == 1e12
    n[carry] = 1e11
    e += carry
    digits = np.empty((12, len(x)), np.uint8)
    for place in range(11, -1, -1):
        q = np.floor(n / 10.0)        # exact: n < 2**53
        digits[place] = n - 10.0 * q + ord("0")
        n = q
    cells = np.empty((len(x), _FLOAT_WIDTH), np.uint8)
    cells[:, 0] = ord("-")
    cells[:, 1] = digits[0]
    cells[:, 2] = ord(".")
    cells[:, 3:14] = digits[1:].T
    cells[:, 14] = ord("e")
    cells[:, 15] = np.where(e < 0, ord("-"), ord("+"))
    e = np.abs(e)                     # two digits: |e| <= 34 if fast
    cells[:, 16] = e // 10 + ord("0")
    cells[:, 17] = e % 10 + ord("0")
    keep = np.ones(cells.shape, bool)
    keep[:, 0] = x < 0.0
    keep[:, 18] = False
    slow = np.flatnonzero(~fast)
    if slow.size:
        text, used = _text_cells(map(_fmt, x[slow].tolist()))
        cells[slow, :text.shape[1]] = text
        keep[slow] = False
        keep[slow, :used.shape[1]] = used
    return cells, keep


def _text_cells(texts):
    """A uint8 matrix of encoded cell strings and the mask of its bytes."""
    raw = [t.encode() for t in texts]
    width = max(map(len, raw), default=0)
    cells = np.frombuffer(b"".join(r.ljust(width, b"\0") for r in raw),
                          np.uint8).reshape(len(raw), width)
    keep = np.arange(width) < np.array([len(r) for r in raw],
                                       dtype=np.intp).reshape(-1, 1)
    return cells, keep


def _all_floats(values):
    if isinstance(values, np.ndarray):
        return values.dtype == np.float64
    return all(isinstance(v, float) for v in values)


def _csv_rows(columns, rows):
    """Bytes of `rows` CSV rows from each column's (cells, keep) pair.

    A short column's missing cells are empty.
    """
    width = sum(cells.shape[1] + 1 for cells, _ in columns)
    block = np.empty((rows, width), np.uint8)
    used = np.zeros((rows, width), bool)
    at = 0
    for cells, keep in columns:
        length, cell_width = cells.shape
        block[:length, at:at + cell_width] = cells
        used[:length, at:at + cell_width] = keep
        at += cell_width + 1
        block[:, at - 1] = ord(",")
        used[:, at - 1] = True
    block[:, -1] = ord("\n")
    return block[used].tobytes()


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    return value


def _render_csv(params, columns, annotations):
    """Yield the CSV document as bytes: metadata and header, then rows.

    Rows go out in blocks, so only one block of cells is alive.  Float
    columns (all values float) are formatted by _float_cells, the others
    cell by cell with _fmt.
    """
    lines = [f"# {key} = {json.dumps(_jsonable(val))}"
             for key, val in params.items()]
    for name, values in (annotations or {}).items():
        lines.append(f"# annotation {name} = "
                     f"[{', '.join(_fmt(v) for v in values)}]")
    lines.append(",".join(columns))
    yield ("\n".join(lines) + "\n").encode()
    floats = [_all_floats(values) for values in columns.values()]
    length = max(map(len, columns.values()), default=0)
    for start in range(0, length, _CSV_BLOCK):
        rows = min(_CSV_BLOCK, length - start)
        yield _csv_rows(
            [_float_cells(np.asarray(values[start:start + rows], np.float64))
             if is_float else
             _text_cells(map(_fmt, values[start:start + rows]))
             for values, is_float in zip(columns.values(), floats)], rows)


def _render_json(params, data):
    payload = {"params": _jsonable(params), "data": _jsonable(data)}
    return json.dumps(payload, indent=2) + "\n"


def _write(path, chunks):
    """Write byte chunks to stdout, or atomically to the file `path`."""
    if path is None:
        for chunk in chunks:
            sys.stdout.write(chunk.decode())
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".coalesce-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(values, params, columns=None, record=None, annotations=None):
    if values["format"] == "json":
        data = dict(columns) if columns is not None else dict(record)
        if annotations:
            data["annotations"] = dict(annotations)
        chunks = [_render_json(params, data).encode()]
    else:
        if columns is None:
            columns = {k: [v] for k, v in record.items()}
        chunks = _render_csv(params, columns, annotations)
    _write(values["output"], chunks)


def _params_echo(name, values, skip=("output", "format")):
    params = {"subcommand": name, "version": __version__}
    params.update({k: v for k, v in values.items() if k not in skip})
    return params


# ---------------------------------------------------------------------------
# subcommands


def _system_from(values):
    if values.get("zeta_m") is None:
        return CavitySystem.empty(values["zeta"])
    return CavitySystem.with_middle(values["zeta"], values["zeta_m"],
                                    values.get("x", 0.0))


def _cmd_spectrum(values):
    ks, ts = spectrum.scan_transmission(_system_from(values),
                                        values["kmin"], values["kmax"],
                                        values["points"])
    return {"k": ks, "T": ts}, None, None


def _cmd_peaks(values):
    system = _system_from(values)
    peaks = spectrum.find_peaks(system, values["kmin"], values["kmax"],
                                grid_per_kappa=values["grid_per_kappa"],
                                refine_tol=values["refine_tol"],
                                prominence=values["prominence"])
    widths = []
    for peak in peaks:
        try:
            widths.append(spectrum.peak_halfwidth(system, peak))
        except EdgeTruncationError:
            widths.append(math.nan)
    columns = {"k_peak": [p.k_peak for p in peaks],
               "T_peak": [p.T_peak for p in peaks],
               "hwhm": widths}
    return columns, None, None


def _cmd_splitting(values):
    two_delta = closed_form.mode_splitting(values["zeta_m"])
    return None, {"two_delta": two_delta, "delta": 0.5 * two_delta}, None


def _cmd_threshold(values):
    star = closed_form.coalescence_threshold(values["zeta"])
    record = {"zeta_m_star": star}
    if values["numeric"]:
        lo = values["zm_lo"] if values["zm_lo"] is not None else 0.75 * star
        hi = values["zm_hi"] if values["zm_hi"] is not None else 1.25 * star
        record["zeta_m_merge"] = spectrum.find_merge_point(values["zeta"],
                                                           (lo, hi))
    return None, record, None


def _cmd_sweep_x(values):
    xs = np.linspace(values["xmin"], values["xmax"], values["xpoints"])
    tracked = experiments._track_full_grid(values["zeta"], values["zeta_m"],
                                           xs, values["pair_index"])
    columns = {
        "x": [float(x) for x in xs],
        "k_res": [k for k, _ in tracked],
        "T_num": [t for _, t in tracked],
        "T_formula": [closed_form.resonant_transmission(float(x),
                                                        values["zeta_m"], k)
                      for x, (k, _) in zip(xs, tracked)],
    }
    return columns, None, None


def _cmd_branches(values):
    xs = np.linspace(values["xmin"], values["xmax"], values["xpoints"])
    if values["kmin"] is not None and values["kmax"] is not None:
        window = (values["kmin"], values["kmax"])
    else:
        window = spectrum.branch_window(values["zeta"], values["zeta_m"], xs,
                                        values["pair_index"])
    branch = spectrum.track_branches(values["zeta"], values["zeta_m"], xs,
                                     window)
    columns = {
        "x": [b.x for b in branch],
        "k_lower": [b.k_lower for b in branch],
        "k_upper": [b.k_upper for b in branch],
        "T_lower": [b.T_lower for b in branch],
        "T_upper": [b.T_upper for b in branch],
    }
    return columns, None, None


def _cmd_sensitivity(values):
    omega = values["omega"]
    if omega is None:
        try:
            omega = closed_form.pair_center(values["zeta"], values["zeta_m"],
                                            values["pair_index"])
        except AboveThresholdError as exc:
            raise DivergentSensitivityError(str(exc)) from exc
    report = two_mode.readout_sensitivity(values["zeta"], values["zeta_m"],
                                          omega)
    record = {
        "omega": omega,
        "g_m": two_mode.tunneling_rate(values["zeta_m"], omega),
        "g2_base": report.g2_base,
        "g2": report.g2,
        "enhancement": report.enhancement,
        "x_small_bound": report.x_small_bound,
        "lamb_dicke_cap": report.lamb_dicke_cap,
    }
    if values["mass"] is not None:
        if values["mech_freq"] is None:
            raise InvalidParameterError(
                "--mech-freq is required together with --mass")
        membrane = two_mode.MembranePhysical(
            mass=values["mass"], mech_freq=values["mech_freq"],
            temperature=values["temperature"],
            wavelength=values["wavelength"], zeta_m=values["zeta_m"])
        phys = two_mode.physical_enhancement(membrane)
        record.update({
            "x_zpf": phys.x_zpf,
            "x_rms": phys.x_rms,
            "nbar": phys.nbar,
            "eta": phys.eta,
            "physical_lamb_dicke_cap": phys.lamb_dicke_cap,
            "attainable_enhancement": phys.attainable_enhancement,
        })
    return None, record, None


def _cmd_stack(values):
    n = values["n_layers"]
    z_el = values["zeta_element"]
    if values["spacing"] is not None:
        spacing = values["spacing"]
        elements = [(0.1 + i * spacing, z_el) for i in range(n)]
        zeta_eff = effective_polarizability(elements, values["k"])
    else:
        zeta_eff, spacing = maximize_stack_polarizability(
            z_el, n, k=values["k"], spacing_max=values["spacing_max"],
            n_grid=values["spacing_grid"])
    record = {"zeta_eff": zeta_eff, "spacing": spacing, "n_layers": n}
    if n >= 2:
        record["threshold_per_element"] = closed_form.multilayer_threshold(
            values["zeta"], n)
    return None, record, None


def _cmd_figures(values, figure):
    if figure == "fig1":
        dataset = experiments.run_fig1_spectra(zeta=values["zeta"])
    elif figure == "fig2":
        dataset = experiments.run_fig2_resonant_transmission(
            zeta=values["zeta"])
    elif figure == "fig3":
        dataset = experiments.run_fig3_mode_pulling(zeta=values["zeta"])
    else:
        dataset = experiments.run_threshold_sweep(zeta=values["zeta"])
    return dataset.columns, None, dataset


def _cmd_report(values):
    rep = closed_form.report(values["zeta"], values["zeta_m"],
                             values["pair_index"])
    record = {"kappa": rep.kappa, "delta": rep.delta,
              "zeta_m_star": rep.zeta_m_star, "eps_plus": rep.eps_plus,
              "eps_minus": rep.eps_minus, "pair_gap": rep.pair_gap,
              "enhancement": None, "omega": None, "g_m": None}
    if rep.pair_gap is not None:
        omega = closed_form.pair_center(values["zeta"], values["zeta_m"],
                                        values["pair_index"])
        record["omega"] = omega
        record["g_m"] = two_mode.tunneling_rate(values["zeta_m"], omega)
        try:
            sens = two_mode.readout_sensitivity(values["zeta"],
                                                values["zeta_m"], omega)
            record["enhancement"] = sens.enhancement
        except DivergentSensitivityError:
            pass  # exactly at threshold: closed forms fine, ratio diverges
    return None, record, None


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        values = _effective(args, _OPTIONS[args.subcommand])
        params = _params_echo(args.subcommand, values)
        if args.subcommand == "figures":
            params["figure"] = args.figure
            columns, record, dataset = _cmd_figures(values, args.figure)
            if dataset is not None:
                params.update(dataset.params)
            _emit(values, params, columns=columns,
                  annotations=dataset.annotations if dataset else None)
            return 0
        handler = {
            "spectrum": _cmd_spectrum,
            "peaks": _cmd_peaks,
            "splitting": _cmd_splitting,
            "threshold": _cmd_threshold,
            "sweep-x": _cmd_sweep_x,
            "branches": _cmd_branches,
            "sensitivity": _cmd_sensitivity,
            "stack": _cmd_stack,
            "report": _cmd_report,
        }[args.subcommand]
        columns, record, _ = handler(values)
        _emit(values, params, columns=columns, record=record)
        return 0
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except CoalescenceError as exc:
        for cls, token in _ERROR_TOKENS:
            if isinstance(exc, cls):
                print(f"error[{token}]: {exc}", file=sys.stderr)
                break
        return 3


def run():
    raise SystemExit(main())
