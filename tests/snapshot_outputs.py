"""Snapshot the CLI's outputs and compare two snapshots.

    PYTHONPATH=src python tests/snapshot_outputs.py write DIR
    python tests/snapshot_outputs.py compare A B
    PYTHONPATH=src python tests/snapshot_outputs.py counts

``write`` runs each command of :data:`COMMANDS` as ``python -m
coalesce.cli ...`` under the caller's PYTHONPATH, so pointing PYTHONPATH
at another checkout's ``src`` snapshots that tree.  Each command runs
in an empty working directory and leaves ``<name>.out``, ``<name>.err``
and ``<name>.code`` (stdout, stderr, exit code) in DIR.  ``compare``
counts the files of A and B that are identical and, for each CSV or
JSON output that differs, prints the largest absolute and relative
difference of each numeric column; it exits 0 when every file is
identical, else 1.  ``counts`` runs each tracker command of
:data:`COMMANDS` in-process through ``cli.main``, with
``spectrum.s_derivatives`` and ``spectrum.find_peaks`` wrapped to count
their calls, and prints the counts as two Markdown tables: fig2, fig3
and the threshold sweep per zeta, then the other commands.
"""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

# fig2, fig3 and the threshold sweep track peaks at each of these
TRACKER_ZETAS = ("-0.3", "-0.5", "-1", "-2", "-3", "-5", "-10", "-20",
                 "-30", "-100", "-300", "-1000", "-1e4", "-1e5",
                 "0.5", "1", "2", "5", "10", "30", "100")

COMMANDS = (
    [("figures", fig, f"--zeta={zeta}") for zeta in TRACKER_ZETAS
     for fig in ("fig2", "fig3", "threshold-sweep")]
    + [
        ("branches",),
        ("branches", "--zeta=-100", "--zeta-m=-19000", "--xmin=-2e-5",
         "--xmax=2e-5"),
        ("branches", "--kmin=6.13", "--kmax=6.23"),
        ("branches", "--zeta-m=-202", "--kmin=6.13", "--kmax=6.23",
         "--xmin=-0.001", "--xmax=0.001"),
        ("branches", "--zeta-m=-150", "--kmin=6.05", "--kmax=6.3",
         "--xmin=-0.02", "--xmax=0.02", "--xpoints=41"),
        ("sweep-x",),
        ("sweep-x", "--zeta=-100", "--zeta-m=-5000", "--xmin=-0.01",
         "--xmax=0.01", "--xpoints=41"),
        # a lone peak that moves many linewidths per step, and a sweep
        # whose first step away from x = 0 is far from it
        ("sweep-x", "--zeta=-1000", "--zeta-m=-5000"),
        ("sweep-x", "--zeta=-1e4", "--zeta-m=-5000"),
        ("sweep-x", "--xpoints=3"),
    ]
    # the short commands at their defaults
    + [("splitting",), ("report",), ("threshold",),
       ("threshold", "--numeric"), ("sensitivity",), ("stack",),
       ("peaks",), ("spectrum",), ("figures", "fig1")]
    # paths that no command above reaches: effective_polarizability,
    # numpy arrays and annotations in JSON, and a nan half-width
    + [("stack", "--spacing=0.3"), ("spectrum", "--format=json"),
       ("figures", "fig1", "--format=json"),
       ("peaks", "--zeta=-0.3", "--kmin=0.5", "--kmax=3.5")]
    # spectra on the kernel core_scatter.grid() picks: a displaced
    # middle, and two-hop grids below and above SCALAR_GRID_WORK
    + [("spectrum", "--zeta-m=-196.6", "--x=0.001", *fmt)
       for fmt in ((), ("--format=json",))]
    + [("spectrum", "--zeta-m=-50", f"--points={n}") for n in (20000, 40000)]
    # the records with every column: the membrane block, and a report
    # above threshold with its empty cells
    + [("sensitivity", "--zeta=-10", "--zeta-m=-150", "--mass=1e-10",
        "--mech-freq=6e5", "--temperature=4", *fmt)
       for fmt in ((), ("--format=json",))]
    + [("report", "--zeta=-10", "--zeta-m=-250")]
    # membrane arithmetic that under- or overflows on the way
    + [("sensitivity", *flags) for flags in (
        ("--mass=1e-10", "--mech-freq=6e5", "--temperature=1e-320"),
        ("--mass=1e300", "--mech-freq=1e300"),
        ("--mass=1e-200", "--mech-freq=1e-200"),
        ("--zeta-m=-1e-320", "--mass=1e-10", "--mech-freq=6e5"))]
    # a linewidth whose square overflows, and a merge bracket whose
    # product of ends underflows
    + [("figures", "fig2", "--zeta=1e-300"),
       ("threshold", "--numeric", "--zeta=-1e-170")]
    # squares and products that under- or overflow: the enhancement at
    # zeta_m = zeta_m_star / 2, the splitting, and the pulled pair
    + [("sensitivity", f"--zeta={zeta}", f"--zeta-m={zeta_m}",
        "--omega=6.283185307179586")
       for zeta, zeta_m in (("-1e77", "-1e154"), ("-1e100", "-1e200"),
                            ("-1e-170", "-1e-170"))]
    + [("splitting", "--zeta-m=-1e200"),
       ("report", "--zeta=-1e50", "--zeta-m=-1e100")]
    # weak same-sign pairs, whose even member lies on the far side of
    # 2 n pi, and --x with no element to move
    + [("report", "--zeta-m=0"), ("sensitivity", "--zeta-m=0"),
       ("report", "--zeta=-1.5", "--zeta-m=-0.1"),
       ("branches", "--zeta-m=0", "--xpoints=3"),
       ("branches", "--zeta=-1.5", "--zeta-m=-0.1", "--xpoints=3"),
       ("peaks", "--x=0.6")]
    # point counts and indices past a float, and a merge search at
    # zeta = 0, whose default range is (0.0, 0.0)
    + [(command, "--kmin=3", "--kmax=1e308") for command in ("peaks",
                                                           "branches")]
    + [("peaks", f"--grid-per-kappa={10**308}"),
       ("peaks", f"--grid-per-kappa={10**400}")]
    + [(command, f"--pair-index={10**400}")
       for command in ("report", "sensitivity", "branches")]
    + [("threshold", "--numeric", "--zeta=0"),
       ("figures", "threshold-sweep", "--zeta=0")]
    # one command per error token the CLI can reach, and a usage error
    + [
        ("threshold", "--config", "missing.cfg"),
        ("splitting", "-o", "missing/out.csv"),
        ("peaks", "--grid-per-kappa=5"),
        ("threshold", "--numeric", "--zm-lo=-120", "--zm-hi=-150"),
        ("sweep-x", "--zeta=-0.3", "--zeta-m=-0.59", "--xmin=-0.05",
         "--xmax=0.05", "--xpoints=9"),
        ("sensitivity", "--zeta-m=-250"),
        ("sensitivity", "--mech-freq=6e5"),
        ("spectrum", "--no-such-flag"),
    ]
)

_SUFFIXES = (".out", ".err", ".code")
# the pipelines and commands that call spectrum.track
_TRACKERS = {"fig2", "fig3", "threshold-sweep", "branches", "sweep-x"}


def _name(argv):
    """The file stem of a command: its arguments, joined and made safe.

    A run of more than 24 digits reads ``<count>digits``, so that an
    integer past a float keeps the stem within a file name's length.
    """
    stem = re.sub(r"\d{25,}", lambda m: f"{len(m.group())}digits",
                  "_".join(argv))
    return re.sub(r"[^A-Za-z0-9.=+-]", "_", stem)


def write(directory, commands=COMMANDS):
    """Run each command and store its stdout, stderr and exit code."""
    os.makedirs(directory, exist_ok=True)
    env = dict(os.environ)
    # the commands run elsewhere, so a relative PYTHONPATH is resolved here
    env["PYTHONPATH"] = os.pathsep.join(
        os.path.abspath(p) for p in env.get("PYTHONPATH", "").split(os.pathsep)
        if p)
    for argv in commands:
        with tempfile.TemporaryDirectory() as cwd:
            done = subprocess.run(
                [sys.executable, "-m", "coalesce.cli", *argv], cwd=cwd,
                env=env, capture_output=True, check=False)
        stem = os.path.join(directory, _name(argv))
        for suffix, data in zip(_SUFFIXES, (done.stdout, done.stderr,
                                            f"{done.returncode}\n".encode())):
            with open(stem + suffix, "wb") as fh:
                fh.write(data)


def _columns(text):
    """``{column: cells}`` of a CSV or JSON document, metadata dropped."""
    if text.startswith("{"):
        return {name: value if isinstance(value, list) else [value]
                for name, value in json.loads(text)["data"].items()}
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = [ln.split(",") for ln in lines[1:]]
    return {name: [row[j] for row in rows]
            for j, name in enumerate(lines[0].split(",") if lines else [])}


def _number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def drift(a, b):
    """Largest |difference| per column of two CSV or JSON documents.

    Returns ``{column: (absolute, relative)}`` for the columns whose
    cells differ, the relative difference taken against the larger
    |cell|; a column whose cells are not all numbers, or that the two
    documents do not share cell for cell, reads nan.
    """
    cols_a, cols_b = _columns(a), _columns(b)
    if list(cols_a) != list(cols_b) or any(
            len(cols_a[c]) != len(cols_b[c]) for c in cols_a):
        return {"(shape)": (math.nan, math.nan)}
    out = {}
    for column, cells_a in cols_a.items():
        worst = rel = 0.0
        for cell_a, cell_b in zip(cells_a, cols_b[column]):
            if cell_a == cell_b:
                continue
            u, v = _number(cell_a), _number(cell_b)
            if u is None or v is None:
                worst = rel = math.nan
                break
            worst = max(worst, abs(u - v))
            rel = max(rel, abs(u - v) / max(abs(u), abs(v)))
        if worst != 0.0:
            out[column] = (worst, rel)
    return out


def compare(a, b, stream=sys.stdout):
    """Report how many files of snapshots ``a`` and ``b`` are identical."""
    names = sorted(set(os.listdir(a)) | set(os.listdir(b)))
    same = 0
    for entry in names:
        paths = [os.path.join(a, entry), os.path.join(b, entry)]
        if not all(map(os.path.exists, paths)):
            print(f"{entry}: in one snapshot only", file=stream)
            continue
        data = []
        for path in paths:
            with open(path, "rb") as fh:
                data.append(fh.read())
        if data[0] == data[1]:
            same += 1
            continue
        print(f"{entry}: differs", file=stream)
        if entry.endswith(".out"):
            for column, (worst, rel) in drift(
                    *(d.decode() for d in data)).items():
                print(f"  {column}: max |diff| = {worst:.3g}, relative "
                      f"{rel:.3g}", file=stream)
    print(f"{same} of {len(names)} files identical", file=stream)
    return same == len(names)


def counts(commands=COMMANDS, stream=sys.stdout):
    """Print the s_derivatives and find_peaks calls of each tracker command.

    Each cell reads ``s_derivatives / find_peaks``, followed by the exit
    code in brackets when it is not 0.
    """
    from coalesce import cli, spectrum

    tally = {}

    def counted(name):
        inner = getattr(spectrum, name)

        def wrapper(*args, **kwargs):
            tally[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    figures, others = {}, []
    with contextlib.ExitStack() as stack:
        for name in ("s_derivatives", "find_peaks"):
            stack.callback(setattr, spectrum, name, getattr(spectrum, name))
            setattr(spectrum, name, counted(name))
        for argv in commands:
            if not _TRACKERS.intersection(argv[:2]):
                continue
            tally.update(s_derivatives=0, find_peaks=0)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
            cell = f"{tally['s_derivatives']} / {tally['find_peaks']}"
            cell += f" [{code}]" if code else ""
            if argv[0] == "figures" and len(argv) == 3:
                figures.setdefault(argv[2].removeprefix("--zeta="),
                                   {})[argv[1]] = cell
            else:
                others.append((" ".join(argv), cell))
    figs = ("fig2", "fig3", "threshold-sweep")
    print(f"| zeta | {' | '.join(figs)} |", file=stream)
    print("| --- " * (len(figs) + 1) + "|", file=stream)
    for zeta, row in figures.items():
        print(f"| {zeta} | " + " | ".join(row.get(f, "") for f in figs)
              + " |", file=stream)
    print("\n| command | s_derivatives / find_peaks |\n| --- | --- |",
          file=stream)
    for command, cell in others:
        print(f"| `{command}` | {cell} |", file=stream)


def main(argv):
    if len(argv) == 2 and argv[0] == "write":
        write(argv[1])
        return 0
    if argv == ["counts"]:
        counts()
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return 0 if compare(argv[1], argv[2]) else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
