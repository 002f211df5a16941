"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The oracle tests feed real CLI output through the oracles, then the
same output with one value moved, and require the moved one to fail.
The smoke tests run each workload for one pass.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oracles
import workloads
from tracer import Span, Tracer, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def cli_main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from coalesce.cli import main
    return main


def produce(main, cmd, tmp_path):
    path = tmp_path / "out.csv"
    assert main([*cmd.argv, f"--output={path}"]) == 0
    return path


def perturb(path, column, change):
    """Rewrite one CSV column through change(row_index, value)."""
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    j = lines[head].split(",").index(column)
    for i in range(head + 1, len(lines)):
        parts = lines[i].split(",")
        parts[j] = repr(change(i - head - 1, float(parts[j])))
        lines[i] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


def failed_names(cmd, path):
    return {name for name, _dev, _tol in oracles.failed(oracles.check(cmd, path))}


def command(workload, kind, seed=3):
    return next(c for c in workloads.WORKLOADS[workload](seed) if c.kind == kind)


def test_fig2_oracle_rejects_shifted_column(cli_main, tmp_path):
    cmd = command("figures", "fig2")
    path = produce(cli_main, cmd, tmp_path)
    assert failed_names(cmd, path) == set()
    perturb(path, "T_num_0", lambda _i, t: t + 0.05)
    assert "fig2.T_num_0_vs_formula" in failed_names(cmd, path)


def test_fig3_oracle_rejects_wrong_lossless_gap(cli_main, tmp_path):
    cmd = command("figures", "fig3")
    path = produce(cli_main, cmd, tmp_path)
    assert failed_names(cmd, path) == set()
    perturb(path, "k_lossless_lower", lambda _i, k: k - 1e-9)
    assert failed_names(cmd, path) == {"fig3.lossless_gap_x0"}


def test_peaks_oracle_rejects_wrong_gap(cli_main, tmp_path):
    cmd = command("queries", "peaks")
    path = produce(cli_main, cmd, tmp_path)
    assert failed_names(cmd, path) == set()
    _, columns = oracles.read_csv(path)
    lo, hi = columns["k_peak"][:2]
    perturb(path, "k_peak", lambda i, k: k + 0.1 * (hi - lo) * (i == 1))
    assert "peaks.n1.pair_gap" in failed_names(cmd, path)


@pytest.mark.parametrize("kind,column", [
    ("splitting", "two_delta"), ("threshold", "zeta_m_star"),
    ("report", "pair_gap"), ("sensitivity", "enhancement"),
    ("stack", "threshold_per_element")])
def test_closed_form_oracles_reject_drift(cli_main, tmp_path, kind, column):
    cmd = command("queries", kind)
    path = produce(cli_main, cmd, tmp_path)
    assert failed_names(cmd, path) == set()
    perturb(path, column, lambda _i, v: v * (1.0 + 1e-6))
    assert failed_names(cmd, path)


def test_spectrum_oracle_rejects_kernel_drift(cli_main, tmp_path):
    cmd = workloads.Command("spectrum", (
        "spectrum", "--zeta=-10.0", "--zeta-m=-50.0", "--kmin=5.9",
        "--kmax=6.4", "--points=2001"),
        {"zeta": -10.0, "zeta_m": -50.0, "kmin": 5.9, "kmax": 6.4,
         "points": 2001})
    path = produce(cli_main, cmd, tmp_path)
    assert failed_names(cmd, path) == set()
    perturb(path, "T", lambda _i, t: t * (1.0 + 1e-6))
    assert failed_names(cmd, path) == {"spectrum.T_vs_matrix"}


def test_unreadable_output_is_an_oracle_error(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("# subcommand = \"splitting\"\ntwo_delta,delta\n")
    with pytest.raises(oracles.OracleError):
        oracles.check(command("queries", "splitting"), path)


def write_sweep(path, params):
    """threshold-sweep output at zeta = -10 whose rows pass their check."""
    zeta = -10.0
    lines = [f"# {key} = {json.dumps(value)}" for key, value in params.items()]
    lines.append("zeta_m,n_peaks,k_peak_1,T_peak_1")
    for zeta_m in (-100.0, -150.0):
        t = oracles.transmission(zeta, zeta_m, 0.0, 6.2)
        lines.append(f"{zeta_m!r},2.0,6.2,{t!r}")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("merge", [None, "missing"])
def test_misshapen_output_counts_as_a_failed_command(tmp_path, merge):
    import run
    cmd = command("figures", "threshold-sweep")
    path = tmp_path / "out.csv"
    write_sweep(path, {"zeta": -10.0,
                       "zeta_m_merge": oracles.threshold(-10.0)})
    assert oracles.failed(oracles.check(cmd, path)) == []
    params = {"zeta": -10.0}
    if merge != "missing":
        params["zeta_m_merge"] = merge  # how the CLI writes a NaN
    write_sweep(path, params)
    with pytest.raises(oracles.OracleError):
        oracles.check(cmd, path)
    record = run.check_output(cmd, str(path), {"rc": 0})
    assert not record["ok"]
    assert not path.exists()


def test_nan_deviation_fails():
    assert oracles.failed([("x", math.nan, 1.0)]) == [("x", math.nan, 1.0)]


def test_workloads_are_seeded():
    for name, make in workloads.WORKLOADS.items():
        assert make(7) == make(7), name
    assert workloads.figures(1) == workloads.figures(2)
    assert workloads.queries(1) != workloads.queries(2)
    assert workloads.dense_scan(1) != workloads.dense_scan(2)
    cmds = workloads.queries(5)
    assert len(cmds) == 12
    for cmd in cmds:
        zeta, zeta_m = cmd.params.get("zeta"), cmd.params.get("zeta_m")
        if zeta is not None:
            assert -12.0 <= zeta <= -8.0
        if zeta is not None and zeta_m is not None:
            assert abs(zeta_m) < abs(oracles.threshold(zeta))


# ---------------------------------------------------------------------------
# tracer


def _module(name, source, **bindings):
    module = types.ModuleType(name)
    module.__dict__.update(bindings)
    exec(source, module.__dict__)
    return module


def fake_package(with_find_peaks=True):
    """core_scatter <- spectrum <- cli, with a thread pool in spectrum."""
    core = _module("fake.core_scatter", (
        "import numpy as np\n"
        "def transmission(system, k):\n"
        "    return np.ones_like(k) if np.ndim(k) else 1.0\n"))
    spectrum = _module("fake.spectrum", (
        "def find_peaks(system, k_min, k_max):\n"
        "    transmission(system, np.linspace(k_min, k_max, 100))\n"
        "    transmission(system, k_min)\n"
        "    return [k_min, k_max]\n"
        "def scan(ks):\n"
        "    with ThreadPoolExecutor(2) as pool:\n"
        "        return list(pool.map(lambda k: find_peaks(None, k, k + 1),"
        " ks))\n" if with_find_peaks else
        "def scan(ks):\n"
        "    return [transmission(None, k) for k in ks]\n"),
        np=np, ThreadPoolExecutor=ThreadPoolExecutor,
        transmission=core.transmission)
    cli = _module("fake.cli", "def main(ks):\n    return spectrum.scan(ks)\n",
                  spectrum=spectrum)
    return types.SimpleNamespace(__name__="fake", core_scatter=core,
                                 spectrum=spectrum, cli=cli)


def test_tracer_nests_worker_spans_under_the_driving_span():
    pkg = fake_package()
    original = pkg.spectrum.find_peaks
    tracer = Tracer()
    tracer.install(pkg)
    try:
        tracer.wrap("cli.main", pkg.cli.main)([1.0, 2.0, 3.0])
    finally:
        tracer.uninstall()
    assert pkg.spectrum.find_peaks is original
    by_id = {s.id: s for s in tracer.spans}
    scan = next(s for s in tracer.spans if s.name == "spectrum.scan")
    peaks = [s for s in tracer.spans if s.name == "spectrum.find_peaks"]
    assert len(peaks) == 3
    assert all(s.parent == scan.id for s in peaks)
    assert all(s.thread != scan.thread for s in peaks)
    kernel = [s for s in tracer.spans if s.name == "core_scatter.transmission"]
    assert all(by_id[s.parent].name == "spectrum.find_peaks" for s in kernel)
    m = tracer.metrics()
    assert m["core_scatter.scalar_calls"] == 3
    assert m["core_scatter.grid_calls"] == 3
    assert m["core_scatter.grid_points"] == 300
    assert m["spectrum.find_peaks.calls"] == 3
    assert m["spectrum.peaks_found"] == 6
    assert m["spectrum.t_evals_per_peak"] == pytest.approx(303 / 6)
    assert m["cli.main.calls"] == 1
    assert 0 < m["trace.overhead_s"] < sum(s.end - s.start
                                           for s in tracer.spans)


def test_tracer_leaves_out_metrics_of_missing_functions():
    pkg = fake_package(with_find_peaks=False)
    tracer = Tracer()
    tracer.install(pkg)
    try:
        tracer.wrap("cli.main", pkg.cli.main)([1.0, 2.0])
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["core_scatter.scalar_calls"] == 2
    assert "spectrum.find_peaks.calls" not in m
    assert "spectrum.peaks_found" not in m


def test_self_time_subtracts_the_union_of_children():
    spans = [Span(0, "a", 0.0, 10.0, None, 1, False, None),
             Span(1, "b", 1.0, 3.0, 0, 2, False, None),
             Span(2, "b", 2.0, 6.0, 0, 3, False, None),
             Span(3, "b", 8.0, 12.0, 0, 2, False, None)]
    own = self_times(spans)
    assert own[0] == pytest.approx(3.0)  # 10 - |[1, 6] u [8, 10]|
    assert own[1] == pytest.approx(2.0)


def test_tracer_marks_raised_calls():
    pkg = fake_package()
    tracer = Tracer()
    tracer.install(pkg)
    try:
        with pytest.raises(TypeError):
            pkg.spectrum.find_peaks(None, "a", "b")
    finally:
        tracer.uninstall()
    assert tracer.metrics()["spectrum.raised"] == 1


# ---------------------------------------------------------------------------
# whole runs


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180, check=False)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload):
    proc = bench("--workload", workload, "--seed", "11", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


# in each workload's full record, besides the per-layer metrics of the
# result line: those of functions and layers that only some workloads call
ONLY_IN_RECORD = {
    "figures": {"spectrum.track_branches.self_s",
                "spectrum.find_merge_point.self_s",
                "spectrum.scan_transmission.self_s", "experiments.self_s",
                "experiments.threads", "closed_form.lossless_pair.calls",
                "two_mode.calls", "two_mode.self_s"},
    "queries": {"spectrum.find_merge_point.self_s", "two_mode.calls",
                "two_mode.self_s"},
    "dense-scan": {"spectrum.scan_transmission.self_s"},
}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced_run(workload):
    proc = bench("--workload", workload, "--seed", "11", "--seconds", "1",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(v["value"] > 0 for k, v in result["metrics"].items()
               if k != "spectrum.raised")
    path = os.path.join(ROOT, ".bench_out", f"{workload}-seed11-trace1.json")
    with open(path, encoding="utf-8") as fh:
        measured = json.load(fh)["all_metrics"]
    assert ONLY_IN_RECORD[workload] <= set(measured)
    assert all(measured[k] > 0 for k in ONLY_IN_RECORD[workload])


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    start = time.perf_counter()
    proc = bench("--workload", "figures", "--seed", "1", "--seconds", "1",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert time.perf_counter() - start < 180
