"""Command-line surface: every computation, reproducibly parameterized.

Subcommands cover the raw scans (spectrum, peaks), the closed forms
(splitting, threshold, report), displacement sweeps (sweep-x, branches),
sensitivity estimates, multilayer stacks, and the figure pipelines.
Output is CSV (with a '#'-prefixed metadata block echoing all effective
parameters) or JSON ({"params": ..., "data": ...}); files are written
atomically.  Effective parameters merge flags > config file > defaults;
a config key that is no flag of its subcommand is ignored with a
warning.  `peaks` takes the peak search's tolerances from `spectrum`.

Exit codes: 0 success, 1 stdout closed early (`| head`; stderr stays
empty), 2 argument/config parse error or an output file that cannot be
written, 3 domain error.  A config, output or domain error is reported
on stderr as one line 'error[<token>]: <message>'; the error's class
names the token.

Importing this module loads neither numpy nor dataclasses: the
package's records are NamedTuples, printed field by field (._asdict()).
`splitting`, `report`, `threshold` (without --numeric), `sensitivity`
and --version run on the standard library alone.  The other commands
load numpy only where core_scatter.grid() builds an array, past
core_scatter.SCALAR_GRID_WORK (a long `spectrum`, a wide `peaks` or
tracker window); a CSV document with an array column goes to csv_rows,
and lists and tuples are formatted cell by cell.  Only `figures` and
`sweep-x` load experiments.  A CLI process (run()) starts numpy with
one OpenBLAS thread, since no module calls BLAS; an OPENBLAS_NUM_THREADS
the user has set is kept.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import __version__, closed_form, two_mode
from .errors import (
    AboveThresholdError,
    CoalescenceError,
    DivergentSensitivityError,
    EdgeTruncationError,
    InvalidParameterError,
)

__all__ = ["load_config", "main", "run"]

# the numeric modules' names the tracking and array subcommands use,
# bound by _load_numerics() on first use
spectrum = experiments = None
CavitySystem = effective_polarizability = maximize_stack_polarizability = None

# Arguments argparse must read as (negative) numbers rather than flags; its
# default matcher misses exponent notation such as -1e3 before Python 3.13.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


class ConfigError(Exception):
    """Malformed or unreadable config file (exit code 2)."""

    token = "config"


class OutputError(Exception):
    """Output file that cannot be written (exit code 2)."""

    token = "output"


def load_config(path) -> dict:
    """Parse a plain-text 'key = value' config file into a dict of strings.

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
    return values


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


# the `figures` targets: their pipelines in `experiments`
_FIGURES = {
    "fig1": "run_fig1_spectra",
    "fig2": "run_fig2_resonant_transmission",
    "fig3": "run_fig3_mode_pulling",
    "threshold-sweep": "run_threshold_sweep",
}


def _load_numerics(pipelines=False):
    """Import the numeric modules into the names above, once.

    `experiments` only with `pipelines`.  Module names rather than
    locals, so that whatever rebinds them afterwards (a mock, a tracer)
    is what the subcommands call.
    """
    global spectrum, experiments, CavitySystem, effective_polarizability
    global maximize_stack_polarizability
    if spectrum is None:
        from . import spectrum
        from .core_scatter import (CavitySystem, effective_polarizability,
                                   maximize_stack_polarizability)
    if pipelines and experiments is None:
        from . import experiments


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
            sub.add_argument("figure", choices=tuple(_FIGURES))
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
    cfg = load_config(args.config) if args.config else {}
    table = {**table, **_COMMON}
    for key in cfg:
        if key not in table:
            print(f"warning: unknown config key '{key}' ignored",
                  file=sys.stderr)
    out = {}
    for dest, (typ, default, _help) in table.items():
        value = getattr(args, dest, None)
        if value is None and dest in cfg:
            value = _coerce(cfg[dest], typ, dest)
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


# rows a block: csv_rows writes 1e6 x 2 floats in 75 ms, in 94 ms at 1 << 16
_CSV_BLOCK = 1 << 14


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):   # a numpy array or scalar
        return _jsonable(value.tolist())
    return value


def _csv_head(params, names, annotations):
    """The metadata block and the header line of a CSV document."""
    lines = [f"# {key} = {json.dumps(_jsonable(val))}"
             for key, val in params.items()]
    for name, values in (annotations or {}).items():
        lines.append(f"# annotation {name} = "
                     f"[{', '.join(_fmt(v) for v in values)}]")
    lines.append(",".join(names))
    return "\n".join(lines) + "\n"


def _render_csv(params, columns, annotations):
    """Yield the CSV document as bytes: metadata and header, then rows.

    Lists and tuples of any length are formatted cell by cell with _fmt
    and take no numpy.  A document with a numpy column (it has a dtype)
    goes to csv_rows, which writes the same bytes in blocks of
    _CSV_BLOCK rows, so one block is alive.
    """
    yield _csv_head(params, columns, annotations).encode()
    if any(hasattr(values, "dtype") for values in columns.values()):
        from . import csv_rows
        yield from csv_rows.render(list(columns.values()), _fmt, _CSV_BLOCK)
        return
    length = max(map(len, columns.values()), default=0)
    cells = [list(map(_fmt, values)) + [""] * (length - len(values))
             for values in columns.values()]
    yield "".join(",".join(row) + "\n" for row in zip(*cells)).encode()


def _render_json(params, data):
    payload = {"params": _jsonable(params), "data": _jsonable(data)}
    return json.dumps(payload, indent=2) + "\n"


def _write(path, chunks):
    """Write byte chunks to stdout, or atomically to the file `path`."""
    if path is None:
        for chunk in chunks:
            sys.stdout.write(chunk.decode())
        sys.stdout.flush()   # a closed pipe raises here, inside main()
        return
    # mode 0o666 lets the umask set the file's mode, as open(path, "w")
    # does; O_EXCL never opens a file that is already there
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".coalesce-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputError(
            f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(values, params, columns=None, record=None, annotations=None):
    if values["format"] == "json":
        data = dict(columns) if columns is not None else dict(record)
        if annotations:
            data["annotations"] = dict(annotations)
        chunks = [_render_json(params, data).encode()]
    else:
        if columns is None:   # a record is a table of one row
            columns = {k: [v] for k, v in record.items()}
        chunks = _render_csv(params, columns, annotations)
    _write(values["output"], chunks)


# ---------------------------------------------------------------------------
# subcommands


def _system_from(values):
    if values["zeta_m"] is not None:
        return CavitySystem.with_middle(values["zeta"], values["zeta_m"],
                                        values["x"])
    if values["x"] != 0.0:   # also refuses NaN
        raise InvalidParameterError(f"--x = {values['x']!r} needs --zeta-m")
    return CavitySystem.empty(values["zeta"])


def _cmd_spectrum(values):
    _load_numerics()
    ks, ts = spectrum.sample_transmission(_system_from(values),
                                          values["kmin"], values["kmax"],
                                          values["points"])
    return {"k": ks, "T": ts}, None


def _cmd_peaks(values):
    _load_numerics()
    system = _system_from(values)
    peaks = spectrum.find_peaks(system, values["kmin"], values["kmax"],
                                grid_per_kappa=values["grid_per_kappa"])
    widths = []
    for peak in peaks:
        try:
            widths.append(spectrum.peak_halfwidth(system, peak))
        except EdgeTruncationError:
            widths.append(math.nan)
    columns = {"k_peak": [p.k_peak for p in peaks],
               "T_peak": [p.T_peak for p in peaks],
               "hwhm": widths}
    return columns, None


def _cmd_splitting(values):
    two_delta = closed_form.mode_splitting(values["zeta_m"])
    return None, {"two_delta": two_delta, "delta": 0.5 * two_delta}


def _cmd_threshold(values):
    star = closed_form.coalescence_threshold(values["zeta"])
    record = {"zeta_m_star": star}
    if values["numeric"]:
        _load_numerics()
        lo = values["zm_lo"] if values["zm_lo"] is not None else 0.75 * star
        hi = values["zm_hi"] if values["zm_hi"] is not None else 1.25 * star
        record["zeta_m_merge"] = spectrum.find_merge_point(values["zeta"],
                                                           (lo, hi))
    return None, record


def _cmd_sweep_x(values):
    _load_numerics(pipelines=True)
    xs = spectrum.linspace(values["xmin"], values["xmax"], values["xpoints"])
    dataset = experiments.run_fig2_resonant_transmission(
        values["zeta"], (values["zeta_m"],), xs, values["pair_index"])
    # the one trace's columns, without fig2's trace suffix
    return {name.removesuffix("_0"): column
            for name, column in dataset.columns.items()}, None


def _cmd_branches(values):
    _load_numerics()
    xs = spectrum.linspace(values["xmin"], values["xmax"], values["xpoints"])
    if (values["kmin"] is None) != (values["kmax"] is None):
        raise InvalidParameterError(
            "--kmin and --kmax must be given together (or neither, for "
            "the closed-form seeds)")
    seeds = window = None
    if values["kmin"] is None:
        pair = closed_form.peak_positions(values["zeta"], values["zeta_m"],
                                          values["pair_index"])
        seeds = (pair.k_even, pair.k_odd)
    else:
        window = (values["kmin"], values["kmax"])
    tracked = spectrum.track(values["zeta"], values["zeta_m"], xs,
                             seeds=seeds, window=window)
    # a merged pair has one peak and no row
    rows = [(x, pair) for x, pair in zip(xs, tracked) if len(pair) == 2]
    columns = {
        "x": [x for x, _ in rows],
        "k_lower": [lower.k_peak for _, (lower, _) in rows],
        "k_upper": [upper.k_peak for _, (_, upper) in rows],
        "T_lower": [lower.T_peak for _, (lower, _) in rows],
        "T_upper": [upper.T_peak for _, (_, upper) in rows],
    }
    return columns, None


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
    record = {"omega": omega,
              "g_m": two_mode.tunneling_rate(values["zeta_m"], omega),
              **report._asdict()}
    if (values["mass"] is None) != (values["mech_freq"] is None):
        raise InvalidParameterError(
            "--mass and --mech-freq must be given together")
    if values["mass"] is not None:
        membrane = two_mode.MembranePhysical(
            mass=values["mass"], mech_freq=values["mech_freq"],
            temperature=values["temperature"],
            wavelength=values["wavelength"], zeta_m=values["zeta_m"])
        phys = two_mode.physical_enhancement(membrane)
        # the membrane's lamb_dicke_cap, in its place, beside the report's
        record.update({"physical_" + k if k in record else k: v
                       for k, v in phys._asdict().items()})
    return None, record


def _cmd_stack(values):
    _load_numerics()
    n = values["n_layers"]
    z_el = values["zeta_element"]
    if values["spacing"] is not None:
        spacing = values["spacing"]
        elements = [(0.1 + i * spacing, z_el) for i in range(n)]
        zeta_eff = effective_polarizability(elements, values["k"])
    else:
        zeta_eff, spacing = maximize_stack_polarizability(z_el, n,
                                                          k=values["k"])
    record = {"zeta_eff": zeta_eff, "spacing": spacing, "n_layers": n}
    if n >= 2:
        record["threshold_per_element"] = closed_form.multilayer_threshold(
            values["zeta"], n)
    return None, record


def _cmd_report(values):
    rep = closed_form.report(values["zeta"], values["zeta_m"],
                             values["pair_index"])
    record = {**rep._asdict(), "enhancement": None, "omega": None,
              "g_m": None}
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
    return None, record


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        values = _effective(args, _OPTIONS[args.subcommand])
        params = {"subcommand": args.subcommand, "version": __version__,
                  **{k: v for k, v in values.items() if k not in _COMMON}}
        if args.subcommand == "figures":
            params["figure"] = args.figure
            _load_numerics(pipelines=True)
            dataset = getattr(experiments, _FIGURES[args.figure])(
                zeta=values["zeta"])
            params.update(dataset.params)
            _emit(values, params, columns=dataset.columns,
                  annotations=dataset.annotations)
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
        columns, record = handler(values)
        _emit(values, params, columns=columns, record=record)
        return 0
    except BrokenPipeError:
        # the reader left (`| head`); Python's documented recipe: stdout
        # to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, OutputError, CoalescenceError) as exc:
        print(f"error[{exc.token}]: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CoalescenceError) else 2


def run():
    # no module calls BLAS or LAPACK, so OpenBLAS's pool of one thread a
    # core only slows numpy's import (0.15 s, 0.08 s without it on two
    # cores); set here, not at import, so a host program keeps its BLAS
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    raise SystemExit(main())


if __name__ == "__main__":
    run()
