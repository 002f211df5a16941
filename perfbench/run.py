#!/usr/bin/env python3
"""Benchmark of the coalesce command-line program.

Run from anywhere; the program is the checkout that holds this file:

    python3 perfbench/run.py --workload queries --seed 1 --seconds 10 --trace 0

One client drives the real CLI in a closed loop: one subprocess at a
time, with the default environment except ``PYTHONPATH=src`` (so
``COALESCE_THREADS`` falls back to the core count).  Every command's
output is checked by :mod:`oracles`; a nonzero exit or a failed check
counts the command as failed.

``--trace 0`` cycles through the workload's commands until the list
has run once and ``--seconds`` have passed.  ``wall_s`` and ``cpu_s``
are the sum over the commands of each one's median, the cost of one
pass of the list; ``cmd_p50_s`` is the median over the commands of
those medians, so commands that ran twice count once.  ``setup_s`` is
the median of fresh ``import coalesce.cli`` processes timed at evenly
spaced points of the run, between commands.

``--trace 1`` reports the per-layer metrics instead.  It reads the
import cost from ``python -X importtime``, then runs the command list
in this process through ``coalesce.cli.main``, once plainly and once
with :class:`tracer.Tracer` installed.  Such rounds repeat, at least
twice, while the next one is expected to end within ``--seconds``;
metrics are medians over the rounds.  ``trace.overhead_s`` is the
tracer's own bookkeeping time, which it measures inside its wrappers;
the full record also holds ``trace.wall_diff_s``, traced minus plain
wall time, which the noise of the machine can make negative.

The result line carries the metrics that BENCHMARK.json names; those of
a function or layer that a workload does not call (``experiments``,
``two_mode``, ``track_branches`` and the like) are in the full record
only.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (environment, per-command
results, metric definitions and the spans) goes to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.  A checkout
without ``src/coalesce`` is refused with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import oracles
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_CLI = "from coalesce.cli import run; run()"  # what the `coalesce` script runs
IMPORT_CLI = "import coalesce.cli"
PROBE = ("import json, platform, numpy, scipy, coalesce.cli\n"
         "from coalesce.experiments import thread_count\n"
         "print(json.dumps({'python': platform.python_version(),"
         " 'numpy': numpy.__version__, 'scipy': scipy.__version__,"
         " 'coalesce_threads': thread_count()}))")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3


class Fatal(Exception):
    """The checkout cannot be benchmarked at all."""


def child_env():
    env = dict(os.environ)
    env.pop("COALESCE_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


def spawn(args, env, err_path):
    """Run one child to completion; wall, CPU and RSS come from wait4."""
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, cwd=ROOT,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "stderr": stderr[-2000:]}


def check_output(cmd, path, record):
    """Add the oracle verdict on ``path`` to ``record``; delete the file."""
    try:
        record["output_bytes"] = os.path.getsize(path)
        checks = oracles.check(cmd, path)
        record["worst_ratio"] = oracles.worst_ratio(checks)
        record["failed_checks"] = oracles.failed(checks)
    except (OSError, oracles.OracleError) as exc:
        record["failed_checks"] = [("output", str(exc), None)]
    finally:
        if os.path.exists(path):
            os.unlink(path)
    record["ok"] = record["rc"] == 0 and not record["failed_checks"]
    if not record["ok"]:
        print(f"FAILED {' '.join(cmd.argv)}: rc={record['rc']} "
              f"{record['failed_checks']} {record.get('stderr', '')}",
              file=sys.stderr)
    return record


def probe(env):
    """Import the program once (compiling its bytecode) and describe it."""
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise Fatal(f"cannot import coalesce.cli:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_plain(cmds, seconds, tmp):
    env = child_env()
    info = probe(env)
    err = os.path.join(tmp, "stderr")
    setup = []

    def time_import():
        child = spawn(["-c", IMPORT_CLI], env, err)
        if child["rc"] != 0:
            raise Fatal(f"import failed:\n{child['stderr']}")
        setup.append(child["wall_s"])

    out = os.path.join(tmp, "out.csv")
    samples = [[] for _ in cmds]
    start = time.perf_counter()
    i = 0
    # import samples are spread over the run, one whenever another
    # SETUP_SAMPLES-th of it has passed, and their time is not counted
    # against --seconds
    while i < len(cmds) or time.perf_counter() - start - sum(setup) < seconds:
        if len(setup) < SETUP_SAMPLES and (time.perf_counter() - start
                                           >= len(setup) * seconds
                                           / SETUP_SAMPLES):
            time_import()
        cmd = cmds[i % len(cmds)]
        child = spawn(["-c", RUN_CLI, *cmd.argv, f"--output={out}"], env, err)
        samples[i % len(cmds)].append(
            check_output(cmd, out, {"argv": list(cmd.argv), **child}))
        i += 1
    while len(setup) < SETUP_SAMPLES:
        time_import()

    def per_command(key):
        return [statistics.median(r[key] for r in s) for s in samples]

    records = [r for s in samples for r in s]
    metrics = {
        "wall_s": sum(per_command("wall_s")),
        "cpu_s": sum(per_command("cpu_s")),
        "setup_s": statistics.median(setup),
        "cmd_p50_s": statistics.median(per_command("wall_s")),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "oracle.worst_ratio": max(r.get("worst_ratio", 0.0)
                                  for r in records),
    }
    detail = {"env": info, "samples_per_command": [len(s) for s in samples],
              "setup_samples_s": setup}
    return records, metrics, detail, None


def import_profile(env):
    """Self time of one ``import coalesce.cli``, by group, from -X importtime.

    A module's self time goes to ``numpy`` or ``scipy`` when it is, or is
    imported under, that package; otherwise to ``coalesce_self`` for the
    package's own modules and to ``python`` for everything else
    (interpreter start-up and the standard library).
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           IMPORT_CLI], env=env, cwd=ROOT,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise Fatal(f"import failed:\n{proc.stderr}")
    # lines come in completion order: children before their parent
    pending = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        node = (name.strip(), int(self_us), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    roots = pending.get(0, [])
    totals = {"python": 0, "numpy": 0, "scipy": 0, "coalesce_self": 0}

    def visit(node, inherited):
        name, self_us, children = node
        top = name.split(".")[0]
        group = top if top in ("numpy", "scipy") else inherited
        own = group or ("coalesce_self" if top == "coalesce" else "python")
        totals[own] += self_us
        for child in children:
            visit(child, group)

    for node in roots:
        visit(node, None)
    return {f"import.{k}_s": v * 1e-6 for k, v in totals.items()}


def in_process_pass(main, cmds, tmp):
    """Run the command list through ``main``; return (wall, records)."""
    out = os.path.join(tmp, "out.csv")
    wall = 0.0
    records = []
    for cmd in cmds:
        record = {"argv": list(cmd.argv)}
        start = time.perf_counter()
        try:
            record["rc"] = main([*cmd.argv, f"--output={out}"])
        except Exception:  # a crash in the program is a failed command
            record["rc"] = None
            record["stderr"] = traceback.format_exc()
        record["wall_s"] = time.perf_counter() - start
        wall += record["wall_s"]
        records.append(check_output(cmd, out, record))
    return wall, records


def run_traced(cmds, seconds, tmp):
    from tracer import Tracer

    env = child_env()
    info = probe(env)
    profiles = [import_profile(env) for _ in range(IMPORT_SAMPLES)]
    os.environ.pop("COALESCE_THREADS", None)
    sys.path.insert(0, SRC)
    import coalesce
    import coalesce.cli
    if not os.path.abspath(coalesce.__file__).startswith(SRC + os.sep):
        raise Fatal(f"imported coalesce from {coalesce.__file__}, not {SRC}")
    rounds, records, spans = [], [], []
    start = time.perf_counter()
    while True:
        plain_wall, plain = in_process_pass(coalesce.cli.main, cmds, tmp)
        tracer = Tracer()
        tracer.install(coalesce)
        try:
            traced_wall, traced = in_process_pass(
                tracer.wrap("cli.main", coalesce.cli.main), cmds, tmp)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        metrics["trace.wall_diff_s"] = traced_wall - plain_wall
        metrics["cli.output_bytes"] = sum(r.get("output_bytes", 0)
                                          for r in traced)
        rounds.append(metrics)
        records += plain + traced
        spans = tracer.spans
        elapsed = time.perf_counter() - start
        if len(rounds) >= 2 and elapsed + elapsed / len(rounds) > seconds:
            break
    metrics = {key: statistics.median(r[key] for r in rounds)
               for key in rounds[-1] if all(key in r for r in rounds)}
    for key in profiles[0]:
        metrics[key] = statistics.median(p[key] for p in profiles)
    metrics["oracle.worst_ratio"] = max(r.get("worst_ratio", 0.0)
                                        for r in records)
    detail = {"env": info, "rounds": len(rounds),
              "import_profiles": profiles}
    return records, metrics, detail, spans


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise Fatal(f"cannot read {path}: {exc}") from exc


def machine():
    info = {"nproc": os.cpu_count(), "machine": platform.machine(),
            "system": platform.platform(), "loadavg": os.getloadavg()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        info["cpu"] = models[0] if models else None
    except OSError:
        info["cpu"] = None
    return info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coalesce", "cli.py")):
        print(f"error: no program at {SRC}/coalesce", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        cmds = WORKLOADS[args.workload](args.seed)
        scratch = os.path.join(ROOT, ".bench_tmp")
        os.makedirs(scratch, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=scratch)
        try:
            run = run_traced if args.trace else run_plain
            records, measured, detail, spans = run(cmds, args.seconds, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    reported = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                for m in wanted
                if math.isfinite(measured.get(m["name"], math.nan))}
    missing = [m["name"] for m in wanted if m["name"] not in reported]
    if missing:
        print(f"note: metrics absent (not run, or not measurable): {missing}",
              file=sys.stderr)
    failed = sum(not r["ok"] for r in records)
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": reported}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    full = {
        "workload": args.workload, "why": why.get(args.workload),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), **detail,
        "metric_specs": spec["end_to_end"] + spec["per_layer"],
        "all_metrics": measured, "ops": len(records), "ops_failed": failed,
        "commands": records,
    }
    if spans is not None:
        full["spans"] = {"fields": ["id", "name", "start", "end", "parent",
                                    "thread", "error", "extra"],
                         "rows": [list(s) for s in spans]}
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(full, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
