"""The benchmark's traced contract: each workload reports its metrics.

``perfbench/run.py --trace 1`` runs a workload's commands through
``coalesce.cli.main`` with ``perfbench/tracer.Tracer`` installed, and its
result line must carry every per-layer metric that BENCHMARK.json names.
A metric rests on the calls the commands make (``core_scatter.scalar_*``
needs one scalar ``transmission`` call), so a change to the call paths
can drop it.  This test runs the same two passes, each workload in a
fresh interpreter as ``run.py`` does: the tracer wraps a module's own
functions only where another layer module holds that module object, so
a module imported by an earlier case must not supply a binding that the
benchmark's process lacks.  It reads ``perfbench/`` and writes nothing
there.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
# run.py adds these itself, outside the tracer
ADDED_BY_RUNNER = ("import.", "cli.output_bytes", "oracle.worst_ratio")
SEED = 11

# argv: perfbench directory, workload, seed, --output option; prints the
# sorted names of the traced metrics as its last line
TWO_PASSES = """
import json, sys
perfbench, workload, seed, out = sys.argv[1:]
sys.path.insert(0, perfbench)
import tracer as tracer_module, workloads
import coalesce, coalesce.cli
commands = workloads.WORKLOADS[workload](int(seed))
# the plain pass loads the lazy modules, which the tracer then wraps
for cmd in commands:
    assert coalesce.cli.main([*cmd.argv, out]) == 0, cmd.argv
tracer = tracer_module.Tracer()
tracer.install(coalesce)
try:
    main = tracer.wrap("cli.main", coalesce.cli.main)
    for cmd in commands:
        assert main([*cmd.argv, out]) == 0, cmd.argv
finally:
    tracer.uninstall()
print(json.dumps(sorted(tracer.metrics())))
"""


def traced_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer"]
            if not m["name"].startswith(ADDED_BY_RUNNER)}


@pytest.mark.parametrize("workload", ["figures", "queries", "dense-scan"])
def test_traced_pass_reports_every_named_metric(workload, tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", TWO_PASSES, PERFBENCH, workload, str(SEED),
         f"--output={tmp_path / 'out'}"],
        env=env, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = set(json.loads(proc.stdout.splitlines()[-1]))
    assert traced_names() - metrics == set()
