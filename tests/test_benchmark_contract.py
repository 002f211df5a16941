"""The benchmark's traced contract: each workload reports its metrics.

``perfbench/run.py --trace 1`` runs a workload's commands through
``coalesce.cli.main`` with ``perfbench/tracer.Tracer`` installed, and its
result line must carry every per-layer metric that BENCHMARK.json names.
A metric rests on the calls the commands make (``core_scatter.scalar_*``
needs one scalar ``transmission`` call), so a change to the call paths
can drop it.  This test runs the same two passes in-process, reading
``perfbench/`` and changing nothing there.
"""

import json
import os
import sys

import pytest

import coalesce

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
# run.py adds these itself, outside the tracer
ADDED_BY_RUNNER = ("import.", "cli.output_bytes", "oracle.worst_ratio")
SEED = 11


@pytest.fixture(scope="module")
def harness():
    """The tracer and workload modules of perfbench/, imported read-only."""
    sys.path.insert(0, PERFBENCH)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = write_bytecode
    return tracer, workloads


def traced_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer"]
            if not m["name"].startswith(ADDED_BY_RUNNER)}


@pytest.mark.parametrize("workload", ["figures", "queries", "dense-scan"])
def test_traced_pass_reports_every_named_metric(harness, workload, tmp_path):
    tracer_module, workloads = harness
    import coalesce.cli

    out = f"--output={tmp_path / 'out'}"
    commands = workloads.WORKLOADS[workload](SEED)
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
    assert traced_names() - set(tracer.metrics()) == set()
