"""CLI contract: output shapes, config precedence, exit codes."""

import ast
import errno
import inspect
import json
import math
import os
import re
import struct
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coalesce
from coalesce import cli, closed_form, core_scatter, csv_rows, errors
from coalesce.cli import load_config, main
from coalesce.cli import ConfigError
from coalesce.core_scatter import CavitySystem

FLOAT_12SIG = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCsv:
    def test_shape_contract(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--zeta", "-10",
                                 "--zeta-m", "-50", "--kmin", "5.8",
                                 "--kmax", "6.4", "--points", "2001",
                                 "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        assert lines[0].startswith("#")          # metadata block first
        assert any("zeta_m" in ln for ln in meta)
        assert any("version" in ln for ln in meta)
        assert body[0] == "k,T"
        assert len(body) == 1 + 2001
        k_str, t_str = body[1].split(",")
        assert FLOAT_12SIG.match(k_str) and FLOAT_12SIG.match(t_str)

    def test_deterministic_output(self, capsys):
        args = ("spectrum", "--zeta", "-10", "--zeta-m", "-50",
                "--points", "101")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_long_document_is_percent_e_of_every_cell(self, tmp_path):
        target = tmp_path / "spec.csv"
        assert main(["spectrum", "--zeta-m=-50", "--points=200000",
                     f"--output={target}"]) == 0
        ks = np.linspace(5.8, 6.4, 200000)
        ts = core_scatter.transmission(CavitySystem.with_middle(-10.0, -50.0),
                                       ks)
        lines = target.read_text().split("\n")
        want = ["%.11e,%.11e" % row for row in zip(ks.tolist(), ts.tolist())]
        assert lines[lines.index("k,T") + 1:] == want + [""]

    def test_file_output_atomic_lf(self, capsys, tmp_path):
        target = tmp_path / "spec.csv"
        code, out, _ = run_cli(capsys, "spectrum", "--points", "51",
                               "--output", str(target))
        assert code == 0 and out == ""
        raw = target.read_bytes()
        assert raw.startswith(b"#")
        assert b"\r" not in raw
        leftovers = [p for p in tmp_path.iterdir() if p != target]
        assert leftovers == []


class TestFileOutput:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask 022", "umask 077"])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        # as open(path, "w") creates a new file: 0o666 without the umask
        target = tmp_path / "split.csv"
        old = os.umask(umask)
        try:
            assert main(["splitting", f"--output={target}"]) == 0
        finally:
            os.umask(old)
        assert target.stat().st_mode & 0o777 == mode

    @pytest.mark.parametrize("error", [errno.ENOENT, errno.EISDIR],
                             ids=["missing directory", "directory"])
    def test_unwritable_path_exits_2(self, capsys, tmp_path, error):
        target = tmp_path / "missing" / "x.csv"
        if error == errno.EISDIR:
            target = tmp_path / "out"
            target.mkdir()
        code, out, err = run_cli(capsys, "splitting", "-o", str(target))
        assert code == 2 and out == ""
        assert err == (f"error[output]: cannot write {target}: "
                       f"{os.strerror(error)}\n")
        assert [p for p in tmp_path.iterdir() if p != target] == []

    def test_failed_render_leaves_no_temporary_file(self, tmp_path,
                                                     monkeypatch):
        def broken(*args):
            yield b"# half a document\n"
            raise RuntimeError("render failed")

        monkeypatch.setattr(cli, "_render_csv", broken)
        with pytest.raises(RuntimeError):
            main(["splitting", f"--output={tmp_path / 'x.csv'}"])
        assert list(tmp_path.iterdir()) == []


class TestJsonOutputs:
    def test_threshold_value(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--zeta", "-10",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["subcommand"] == "threshold"
        assert payload["data"]["zeta_m_star"] == pytest.approx(-200.998,
                                                               abs=5e-4)

    def test_report_values(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--zeta", "-10",
                               "--zeta-m", "-196.6", "--format", "json")
        assert code == 0
        data = json.loads(out)["data"]
        assert data["kappa"] == pytest.approx(4.9752e-3, rel=1e-4)
        assert data["delta"] == pytest.approx(5.0864e-3, rel=1e-4)
        assert data["pair_gap"] == pytest.approx(2.12e-3, abs=1e-5)
        assert data["enhancement"] == pytest.approx(4.78, abs=5e-3)

    def test_report_exactly_at_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--zeta", "-10",
                               "--zeta-m", "-200.9975124224178",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)["data"]
        assert data["pair_gap"] == 0.0
        assert data["enhancement"] is None

    def test_report_above_threshold_returns_nulls(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--zeta", "-10",
                               "--zeta-m", "-300", "--format", "json")
        assert code == 0
        data = json.loads(out)["data"]
        assert data["pair_gap"] is None
        assert data["enhancement"] is None
        assert data["kappa"] > 0

    def test_splitting(self, capsys):
        code, out, _ = run_cli(capsys, "splitting", "--zeta-m", "-1",
                               "--format", "json")
        data = json.loads(out)["data"]
        assert code == 0
        assert data["two_delta"] == pytest.approx(math.pi / 2, rel=1e-12)

    def test_stack(self, capsys):
        code, out, _ = run_cli(capsys, "stack", "--zeta-element", "-1",
                               "--n-layers", "2", "--format", "json")
        data = json.loads(out)["data"]
        assert code == 0
        assert data["zeta_eff"] == pytest.approx(2 * math.sqrt(2), rel=1e-12)
        assert data["threshold_per_element"] == pytest.approx(10.0, rel=1e-9)

    def test_sensitivity_with_membrane_block(self, capsys):
        code, out, _ = run_cli(capsys, "sensitivity", "--mass", "1e-10",
                               "--mech-freq", str(2 * math.pi * 1e5),
                               "--format", "json")
        data = json.loads(out)["data"]
        assert code == 0
        assert data["enhancement"] == pytest.approx(4.783, rel=1e-3)
        assert data["x_zpf"] == pytest.approx(9.1608e-16, rel=1e-4)


class TestRecordContract:
    @pytest.mark.parametrize("argv, header", [
        (("report", "--zeta-m=-250"),
         "kappa,delta,zeta_m_star,eps_plus,eps_minus,pair_gap,enhancement,"
         "omega,g_m"),
        (("sensitivity", "--mass=1e-10", "--mech-freq=6e5"),
         "omega,g_m,g2_base,g2,enhancement,x_small_bound,lamb_dicke_cap,"
         "x_zpf,x_rms,nbar,eta,physical_lamb_dicke_cap,"
         "attainable_enhancement"),
    ], ids=["report", "sensitivity SI"])
    def test_exact_header(self, capsys, argv, header):
        code, out, _ = run_cli(capsys, *argv)
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert code == 0
        assert body[0] == header and len(body) == 2

    @pytest.mark.parametrize("half", ["--mass=1e-10", "--mech-freq=6e5"])
    def test_lone_membrane_flag_refused(self, capsys, half):
        code, out, err = run_cli(capsys, "sensitivity", half)
        assert code == 3 and out == ""
        assert err == ("error[invalid-parameter]: --mass and --mech-freq "
                       "must be given together\n")


class TestBranchesContract:
    def test_exact_header(self, capsys):
        code, out, _ = run_cli(capsys, "branches", "--xpoints", "3",
                               "--xmin", "-0.001", "--xmax", "0.001")
        assert code == 0
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert body[0] == "x,k_lower,k_upper,T_lower,T_upper"
        assert len(body) == 1 + 3

    def test_window_walks_outward_from_zero(self, capsys):
        # above threshold the pair is merged at x = 0 and splits as the
        # element moves; both walks start at x = 0 from the window, so
        # neither loses the pair at the grid's far end
        code, out, err = run_cli(capsys, "branches", "--zeta-m=-300",
                                 "--kmin=6.1", "--kmax=6.3", "--xmin=-0.01",
                                 "--xmax=0.01", "--xpoints=41",
                                 "--format=json")
        assert code == 0 and err == ""
        xs = json.loads(out)["data"]["x"]
        assert len(xs) == 40 and 0.0 not in xs

    @pytest.mark.parametrize("bound", ["--kmin=6.17", "--kmax=6.23"])
    def test_lone_window_bound_refused(self, capsys, bound):
        code, out, err = run_cli(capsys, "branches", "--xpoints", "3", bound)
        assert code == 3 and out == ""
        assert err.startswith("error[invalid-parameter]:")
        assert "--kmin and --kmax" in err


class TestDisplacementGrid:
    @pytest.mark.parametrize("command", ["sweep-x", "branches"])
    def test_out_of_range_grid_names_the_user_x(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--xmin=0.3", "--xmax=0.4",
                                 "--xpoints", "3")
        assert code == 3 and out == ""
        assert err.startswith("error[invalid-parameter]:")
        assert err.strip().endswith("got 0.3")

    @pytest.mark.parametrize("points", [1, 3, 11])
    def test_short_grid_rows_are_the_default_grids(self, capsys, points):
        # each walk starts from x = 0 however far its first x lies, so a
        # row depends on the x alone, not on the grid around it
        def rows(*argv):
            code, out, err = run_cli(capsys, "sweep-x", *argv)
            assert code == 0 and err == ""
            return [ln for ln in out.splitlines()
                    if not ln.startswith("#")][1:]

        default = {row.split(",")[0]: row for row in rows()}
        short = rows(f"--xpoints={points}")
        assert len(short) == points
        assert all(default[row.split(",")[0]] == row for row in short)


class TestPositiveEndMirrors:
    @pytest.mark.parametrize("argv", [
        ("figures", "fig2", "--zeta=10"), ("figures", "fig2", "--zeta=30"),
        ("figures", "fig2", "--zeta=100"),
        ("sweep-x", "--zeta=30", "--zeta-m=-50", "--xpoints=21")],
        ids=" ".join)
    def test_tracked_pair_found(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out.startswith("#")


class TestConfigFile:
    def test_empty_file_uses_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        code, out, _ = run_cli(capsys, "threshold", "--config", str(cfg),
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["params"]["zeta"] == -10.0

    def test_flag_overrides_file(self, capsys, tmp_path):
        cfg = tmp_path / "conf.cfg"
        cfg.write_text("zeta = -10\n")
        code, out, _ = run_cli(capsys, "threshold", "--config", str(cfg),
                               "--zeta", "-12", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["zeta"] == -12.0
        assert payload["data"]["zeta_m_star"] == pytest.approx(
            2 * -12 * math.hypot(12, 1), rel=1e-12)

    def test_file_overrides_default(self, capsys, tmp_path):
        cfg = tmp_path / "conf.cfg"
        cfg.write_text("# comment line\nzeta = -2\n")
        code, out, _ = run_cli(capsys, "threshold", "--config", str(cfg),
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["params"]["zeta"] == -2.0

    def test_malformed_line_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("zeta -10\n")
        code, _, err = run_cli(capsys, "threshold", "--config", str(cfg))
        assert code == 2
        assert "error[config]" in err

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "threshold", "--config",
                               str(tmp_path / "missing.cfg"))
        assert code == 2
        assert "error[config]" in err

    def test_unknown_key_warns_but_succeeds(self, capsys, tmp_path):
        cfg = tmp_path / "odd.cfg"
        cfg.write_text("zeta = -10\nmystery_knob = 7\n")
        code, _, err = run_cli(capsys, "threshold", "--config", str(cfg),
                               "--format", "json")
        assert code == 0
        assert "unknown config key 'mystery_knob'" in err

    def test_retired_stack_scan_keys_warn(self, capsys, tmp_path):
        cfg = tmp_path / "stack.cfg"
        cfg.write_text("spacing-max = 0.24\nspacing_grid = 20001\n")
        code, out, err = run_cli(capsys, "stack", "--config", str(cfg),
                                 "--format", "json")
        assert code == 0
        assert "unknown config key 'spacing_max'" in err
        assert "unknown config key 'spacing_grid'" in err
        assert json.loads(out)["data"]["spacing"] == pytest.approx(0.125)

    def test_retired_peak_tolerance_keys_warn(self, capsys, tmp_path):
        # values that would move or drop peaks, were they read
        cfg = tmp_path / "peaks.cfg"
        cfg.write_text("refine-tol = 1e-3\nprominence = 0.5\n")
        code, out, err = run_cli(capsys, "peaks", "--zeta-m=-50", "--config",
                                 str(cfg), "--format", "json")
        assert code == 0
        assert "unknown config key 'refine_tol'" in err
        assert "unknown config key 'prominence'" in err
        payload = json.loads(out)
        assert "refine_tol" not in payload["params"]
        assert "prominence" not in payload["params"]
        _, plain, _ = run_cli(capsys, "peaks", "--zeta-m=-50", "--format",
                              "json")
        assert payload["data"] == json.loads(plain)["data"]

    @pytest.mark.parametrize("text, numeric", [("yes", True), ("Off", False)])
    def test_bool_value(self, capsys, tmp_path, text, numeric):
        cfg = tmp_path / "numeric.cfg"
        cfg.write_text(f"numeric = {text}\n")
        code, out, _ = run_cli(capsys, "threshold", "--config", str(cfg),
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["numeric"] is numeric
        assert ("zeta_m_merge" in payload["data"]) is numeric
        if numeric:
            assert payload["data"]["zeta_m_merge"] == pytest.approx(
                payload["data"]["zeta_m_star"], rel=1e-9)

    @pytest.mark.parametrize("line, kind", [("numeric = maybe", "bool"),
                                            ("zeta = abc", "float")])
    def test_invalid_value_exits_2(self, capsys, tmp_path, line, kind):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "threshold", "--config", str(cfg))
        assert code == 2 and out == ""
        key, value = line.split(" = ")
        assert err == (f"error[config]: config value {key} = {value!r} "
                       f"is not a valid {kind}\n")

    def test_load_config_roundtrip(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("kmin = 5.9\nrefine-tol = 1e-10\n")
        rc = load_config(str(cfg))
        assert rc == {"kmin": "5.9", "refine_tol": "1e-10"}
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.cfg"))


# each error class, the token main() reports it with, and the exit code
ERROR_TOKENS = [
    (errors.CoalescenceError, "domain-error", 3),
    (errors.InvalidParameterError, "invalid-parameter", 3),
    (errors.AboveThresholdError, "above-threshold", 3),
    (errors.DivergentSensitivityError, "divergent-sensitivity", 3),
    (errors.NotBracketedError, "not-bracketed", 3),
    (errors.EdgeTruncationError, "edge-truncation", 3),
    (errors.PairIdentificationError, "pair-identification", 3),
    (errors.InternalConsistencyError, "internal-consistency", 3),
    (cli.ConfigError, "config", 2),
    (cli.OutputError, "output", 2),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("spectrum", "--no-such-flag", "1"),
        ("peaks", "--refine-tol=1e-10"), ("peaks", "--prominence=1e-9"),
    ], ids=" ".join)
    def test_unknown_flag_exits_2(self, capsys, argv):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2

    def test_domain_error_exits_3_with_token(self, capsys):
        code, _, err = run_cli(capsys, "sensitivity", "--zeta", "-10",
                               "--zeta-m", "-250")
        assert code == 3
        line = err.strip().splitlines()[0]
        assert line.startswith("error[divergent-sensitivity]:")

    def test_invalid_parameter_token(self, capsys):
        code, _, err = run_cli(capsys, "peaks", "--grid-per-kappa", "5")
        assert code == 3
        assert err.startswith("error[invalid-parameter]:")

    def test_not_bracketed_token(self, capsys):
        code, _, err = run_cli(capsys, "threshold", "--numeric",
                               "--zm-lo", "-120", "--zm-hi", "-150")
        assert code == 3
        assert err.startswith("error[not-bracketed]:")

    @pytest.mark.parametrize("argv", [
        ("stack", "--k=nan"), ("stack", "--k=inf"), ("stack", "--k=-1"),
        ("stack", "--k=0"), ("stack", "--n-layers=1", "--k=nan"),
        ("stack", "--spacing=0.1", "--k=-1"),
        ("peaks", "--kmin=nan"), ("peaks", "--kmin=inf"),
        ("peaks", "--kmax=-1"),
    ], ids=" ".join)
    def test_out_of_range_float_exits_3(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error[invalid-parameter]:")

    @pytest.mark.parametrize("command", ["spectrum", "peaks"])
    @pytest.mark.parametrize("x", ["0.6", "1e-3", "nan"])
    def test_displacement_needs_a_middle_element(self, capsys, command, x):
        # the empty cavity has no element for --x to move
        code, out, err = run_cli(capsys, command, f"--x={x}")
        assert code == 3 and out == ""
        assert err.startswith("error[invalid-parameter]:")
        assert "--zeta-m" in err

    @pytest.mark.parametrize("command", ["spectrum", "peaks"])
    def test_zero_displacement_runs_without_a_middle_element(self, capsys,
                                                              command):
        code, out, err = run_cli(capsys, command, "--x=0")
        assert code == 0 and err == ""
        assert "# x = 0.0\n" in out

    def test_truncated_width_is_nan(self, capsys):
        # weak mirrors: the peak near 1.86 does not fall to half height
        # within pi/2, so its width is nan and the command succeeds
        code, out, err = run_cli(capsys, "peaks", "--zeta=-0.3",
                                 "--kmin=0.5", "--kmax=3.5")
        assert code == 0 and err == ""
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert body == ["k_peak,T_peak,hwhm",
                        "1.86225312127e+00,1.00000000000e+00,nan"]

    @pytest.mark.parametrize("cls, token, code", ERROR_TOKENS,
                             ids=[token for _, token, _ in ERROR_TOKENS])
    def test_error_class_names_its_token(self, capsys, monkeypatch, cls,
                                         token, code):
        def fail(_values):
            raise cls("planted failure")

        monkeypatch.setattr(cli, "_cmd_splitting", fail)
        assert run_cli(capsys, "splitting") == (
            code, "", f"error[{token}]: planted failure\n")

    def test_the_table_lists_every_error_class(self):
        domain = {cls for cls in vars(errors).values()
                  if isinstance(cls, type)
                  and issubclass(cls, errors.CoalescenceError)}
        assert domain | {cli.ConfigError, cli.OutputError} == {
            cls for cls, _, _ in ERROR_TOKENS}

    @pytest.mark.parametrize("parent, token", [
        (errors.DivergentSensitivityError, "divergent-sensitivity"),
        (errors.CoalescenceError, "domain-error"),
        (cli.ConfigError, "config"),
    ])
    def test_subclass_inherits_its_parents_token(self, capsys, monkeypatch,
                                                 parent, token):
        class Planted(parent):
            pass

        def fail(_values):
            raise Planted("planted failure")

        monkeypatch.setattr(cli, "_cmd_splitting", fail)
        _, _, err = run_cli(capsys, "splitting")
        assert err == f"error[{token}]: planted failure\n"

    @pytest.mark.parametrize("argv", [
        ("--mass=1e-10", "--mech-freq=6e5", "--temperature=1e-320"),
        ("--mass=1e300", "--mech-freq=1e300"),
        ("--mass=1e-200", "--mech-freq=1e-200"),
        ("--zeta-m=-1e-320", "--mass=1e-10", "--mech-freq=6e5"),
    ], ids=" ".join)
    def test_membrane_out_of_float_range(self, capsys, argv):
        # each ended in a ZeroDivisionError traceback
        code, _, err = run_cli(capsys, "sensitivity", *argv)
        assert (code, err) == (0, "") or (
            code == 3 and err.startswith("error[invalid-parameter]:"))

    def test_lost_peak_is_pair_identification(self, capsys):
        # weak mirrors near the threshold: the broad pair leaves the
        # tracking window as the middle element moves
        code, _, err = run_cli(capsys, "sweep-x", "--zeta=-0.3",
                               "--zeta-m=-0.59", "--xmin=-0.05",
                               "--xmax=0.05", "--xpoints", "9")
        assert code == 3
        assert err.startswith("error[pair-identification]:")


class TestOverflowingMirror:
    @pytest.mark.parametrize("argv", [
        ("peaks", "--zeta=-1e200"),
        ("figures", "fig3", "--zeta=-1e200"),
        ("report", "--zeta=-1e200", "--zeta-m=-5"),
        ("sensitivity", "--zeta=-1e200", "--zeta-m=-5"),
        ("threshold", "--zeta=-1e200"),
    ])
    def test_exits_3_invalid_parameter(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error[invalid-parameter]:")
        assert "overflows" in err

    def test_strong_but_finite_mirror_reports(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--zeta=-1e150",
                               "--zeta-m=-5", "--format", "json")
        assert code == 0
        assert json.loads(out)["data"]["zeta_m_star"] == pytest.approx(
            -2e300, rel=1e-15)

    def test_stack_threshold_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "stack", "--zeta=-1e200")
        assert code == 3 and out == ""
        assert err.startswith("error[invalid-parameter]:")
        assert "overflows" in err

    def test_overflowing_stack_is_inf(self, capsys):
        # JSON writes a non-finite value as null, so read the CSV row
        code, out, _ = run_cli(capsys, "stack", "--zeta-element=-1e200",
                               "--n-layers=3")
        header, row = out.splitlines()[-2:]
        assert code == 0
        assert dict(zip(header.split(","), row.split(",")))["zeta_eff"] == \
            "inf"

    def test_strong_but_finite_stack_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "stack", "--zeta=-1e150",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["data"]["threshold_per_element"] == \
            pytest.approx(1e150, rel=1e-15)


class TestSubnormalMirror:
    @pytest.mark.parametrize("argv", [
        ("report", "--zeta=1e-310", "--zeta-m=-5"),
        ("peaks", "--zeta=1e-310"),
    ])
    def test_exits_3_invalid_parameter(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error[invalid-parameter]:")
        assert "overflows" in err

    def test_weak_but_normal_mirror_reports(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--zeta=1e-300",
                               "--zeta-m=-5", "--format", "json")
        assert code == 0
        assert json.loads(out)["data"]["kappa"] == pytest.approx(5e299,
                                                                 rel=1e-15)

    @pytest.mark.parametrize("argv", [
        ("figures", "fig2", "--zeta=1e-300"),
        ("figures", "fig3", "--zeta=1e-300"),
        ("sweep-x", "--zeta=1e-300", "--zeta-m=-1e-301"),
    ], ids=" ".join)
    def test_squared_linewidth_overflow_exits_3(self, capsys, argv):
        # kappa squared overflows to inf, so there is no pair to identify
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error[pair-identification]:")

    @pytest.mark.parametrize("argv", [
        ("threshold", "--numeric", "--zeta=-1e-170"),
        ("figures", "threshold-sweep", "--zeta=-1e-170"),
    ], ids=" ".join)
    def test_underflowing_bracket_is_not_bracketed(self, capsys, argv):
        # both ends are negative, but their product underflows to 0.0
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error[not-bracketed]:")


class TestExtremePolarizabilities:
    """Closed forms whose squares or products under- or overflow."""

    @pytest.mark.parametrize("zeta", ["-1e77", "-1e100", "-1e-170"])
    def test_sensitivity_at_half_the_threshold(self, capsys, zeta):
        # zeta_m = zeta_m_star / 2, so the enhancement is
        # 2 zeta^2 / (|zeta_m_star| sqrt(3/4)) = |zeta| / sqrt(3/4) here
        zeta_m = 0.5 * closed_form.coalescence_threshold(float(zeta))
        code, out, _ = run_cli(capsys, "sensitivity", f"--zeta={zeta}",
                               f"--zeta-m={zeta_m!r}",
                               "--omega=6.283185307179586", "--format=json")
        assert code == 0
        data = json.loads(out)["data"]
        want = min(abs(float(zeta)), 1.0) / math.sqrt(0.75)
        assert data["enhancement"] == pytest.approx(want, rel=1e-14, abs=0)

    def test_splitting_past_the_square_overflow(self, capsys):
        code, out, _ = run_cli(capsys, "splitting", "--zeta-m=-1e200",
                               "--format=json")
        assert code == 0
        assert json.loads(out)["data"] == {"two_delta": 2e-200,
                                           "delta": 1e-200}

    def test_overflowing_pair_leaves_report_cells_empty(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--zeta=-1e50",
                               "--zeta-m=-1e100", "--format=json")
        assert code == 0
        data = json.loads(out)["data"]
        assert data["omega"] is None and data["pair_gap"] is None
        assert data["kappa"] == pytest.approx(5e-101, rel=1e-15, abs=0)

    def test_overflowing_pair_refuses_sensitivity(self, capsys):
        code, out, err = run_cli(capsys, "sensitivity", "--zeta=-1e50",
                                 "--zeta-m=-1e100")
        assert code == 3 and out == ""
        assert err.startswith("error[invalid-parameter]:")
        assert "too strong" in err


class TestOverflowingCounts:
    """Point counts and indices past a float are refused, not crashed on."""

    @pytest.mark.parametrize("argv", [
        ("peaks", "--kmin=3", "--kmax=1e308"),
        ("branches", "--kmin=3", "--kmax=1e308"),
        ("peaks", "--grid-per-kappa=10**308"),
        ("peaks", "--grid-per-kappa=10**400"),
        ("report", "--pair-index=10**400"),
        ("sensitivity", "--pair-index=10**400"),
        ("branches", "--pair-index=10**400"),
    ], ids=" ".join)
    def test_exits_3_invalid_parameter(self, capsys, argv):
        # argparse reads decimal integers: spell the powers out
        code, out, err = run_cli(capsys, *(
            re.sub(r"10\*\*(\d+)", lambda m: "1" + "0" * int(m[1]), arg)
            for arg in argv))
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error[invalid-parameter]:")

    @pytest.mark.parametrize("argv", [
        ("threshold", "--numeric", "--zeta=0"),
        ("figures", "threshold-sweep", "--zeta=0"),
    ], ids=" ".join)
    def test_zero_mirror_merge_names_zeta(self, capsys, argv):
        # the default range is 0.75 and 1.25 times zeta_m_star = 0
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err == ("error[invalid-parameter]: zeta = 0 has no "
                       "resonances (no mirrors)\n")


class TestNegativeNumbers:
    @pytest.mark.parametrize("text", ["-1e3", "-1E-2", "-.5"])
    def test_both_spellings_parse(self, capsys, text):
        spaced = run_cli(capsys, "splitting", "--zeta-m", text,
                         "--format", "json")
        joined = run_cli(capsys, "splitting", f"--zeta-m={text}",
                         "--format", "json")
        assert spaced[0] == 0 and spaced == joined
        assert json.loads(spaced[1])["params"]["zeta_m"] == float(text)

    def test_negative_flag_like_value_still_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "splitting", "--zeta-m", "-x")
        assert code == 2


class TestFiguresSubcommand:
    def test_fig1_csv_columns(self, capsys):
        code, out, _ = run_cli(capsys, "figures", "fig1")
        assert code == 0
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        header = body[0].split(",")
        assert header[0] == "k"
        assert len(body) == 1 + 2001
        assert any(ln.startswith("# annotation markers_0") for ln in
                   out.splitlines())

    def test_fig1_json_annotations(self, capsys):
        code, out, _ = run_cli(capsys, "figures", "fig1", "--format", "json")
        assert code == 0
        data = json.loads(out)["data"]
        assert set(data["annotations"]) == {f"markers_{i}" for i in range(5)}

    def test_threshold_sweep_json(self, capsys):
        code, out, _ = run_cli(capsys, "figures", "threshold-sweep",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["zeta_m_merge"] == pytest.approx(
            -200.998, rel=0.05)
        assert set(payload["data"]) >= {"zeta_m", "n_peaks", "T_peak_1"}

    @pytest.mark.parametrize("argv", [["threshold", "--numeric"],
                                      ["figures", "threshold-sweep"]],
                             ids=" ".join)
    def test_positive_end_mirrors_merge(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--zeta=10",
                                 "--format=json")
        assert code == 0, err
        payload = json.loads(out)
        star = closed_form.coalescence_threshold(10.0)
        merge = (payload["data"] if argv[0] == "threshold"
                 else payload["params"])["zeta_m_merge"]
        assert merge == pytest.approx(star, rel=1e-9)

    @pytest.mark.parametrize("argv", [("fig3", "--zeta=-9.8"),
                                      ("fig2", "--zeta=-4.9")], ids=" ".join)
    def test_default_middle_elements_follow_the_threshold(self, capsys,
                                                          argv):
        # the paper's -196.6 and -50 lie above these thresholds
        code, out, err = run_cli(capsys, "figures", *argv, "--format=json")
        assert code == 0 and err == ""
        params = json.loads(out)["params"]
        star = closed_form.coalescence_threshold(params["zeta"])
        zms = params.get("zeta_m_list", [params.get("zeta_m")])
        assert all(star < zm < 0.0 for zm in zms)


def per_cell_rows(columns):
    """CSV data rows by the one-call-per-cell rule the renderer replaces."""
    length = max((len(v) for v in columns.values()), default=0)
    return [",".join(cli._fmt(v[i]) if i < len(v) else ""
                     for v in columns.values())
            for i in range(length)]


def render_csv(params, columns, annotations, kernel=True):
    """The CSV document, as one string.

    With ``kernel`` csv_rows writes its data rows, however short the
    document and whatever its columns' type.  Else the CLI renders the
    columns as lists, which it formats cell by cell with _fmt.
    """
    if not kernel:
        lists = {name: values.tolist() if hasattr(values, "dtype")
                 else values for name, values in columns.items()}
        return b"".join(cli._render_csv(params, lists, annotations)).decode()
    return (cli._csv_head(params, columns, annotations)
            + kernel_rows(list(columns.values())).decode())


def kernel_rows(columns):
    """The data rows csv_rows writes for `columns`, as one bytes object."""
    return b"".join(csv_rows.render(columns, cli._fmt, cli._CSV_BLOCK))


def kernel_strings(values):
    return kernel_rows([np.array(values, dtype=np.float64)]).decode().split(
        "\n")[:-1]


def assert_kernel_matches(x):
    """The kernel gives the bytes of "%.11e" for every value of x."""
    got = kernel_rows([x])
    want = "".join("%.11e\n" % v for v in x.tolist()).encode()
    if got != want:
        bad = next(v for v, g, w in zip(x.tolist(), got.split(b"\n"),
                                        want.split(b"\n")) if g != w)
        pytest.fail(f"{bad!r}: kernel {kernel_strings([bad])[0]!r}, "
                    f"%.11e {'%.11e' % bad!r}")


def signed(values):
    return st.builds(lambda v, negative: -v if negative else v, values,
                     st.booleans())


bit_patterns = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
# n.5 * 10**j: the 12-digit ties, exact in binary only for j = 0
decimal_ties = st.builds(lambda n, j: float(f"{n}.5e{j}"),
                         st.integers(10 ** 11, 10 ** 12 - 1),
                         st.one_of(st.just(0), st.integers(-40, 40),
                                   st.integers(-334, 296)))
# 9.99999999999[5-9]...e k rounds up to the next decade
decade_edges = st.builds(lambda first, rest, k: float(
    f"9.99999999999{first}{rest:04d}e{k}"),
    st.integers(5, 9), st.integers(0, 9999), st.integers(-320, 300))
powers = st.one_of(
    st.integers(-323, 308).map(lambda k: float(f"1e{k}")),
    st.integers(-1074, 1023).map(lambda q: math.ldexp(1.0, q)))
cell_values = st.one_of(
    st.floats(), bit_patterns, signed(decimal_ties), signed(decade_edges),
    signed(powers), signed(powers.map(lambda v: math.nextafter(v, 0.0))),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]))


class TestCsvRenderer:
    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-300,
               -1.23456789012345e300, 1.0 / 3.0]
    # a binary and two decimal 12-digit ties, round-ups to the next
    # decade, scaling past the exact powers of ten, 3-digit exponents
    EDGES = [100000000000.5, 1.000000000005, -9.999999999995e5,
             9.9999999999996e-7, 9.99999999999996e22, 1e23, -1.5e25,
             3e-24, 1e-23, 1e100, -2.5e-100, 1.7976931348623157e308,
             2.2250738585072014e-308]

    COLUMNS = [
        {"floats": SPECIAL},
        {"floats": SPECIAL, "short": [1.5, -0.0], "empty": []},
        {"mixed": [None, 3, "peak", 2.5, True, math.nan, -0.0, None],
         "numpy": [np.float64(-0.0), np.float64(math.inf), np.float64(0.1)],
         "ints": [0, -7, 12]},
        {"none_only": [None, None]},
        {"one": [-0.0]},
        {},
        {"edges": EDGES, "array": np.array(SPECIAL + EDGES)},
        {"k": np.linspace(5.8, 6.4, 7), "empty": np.array([]),
         "label": ["a", None, "b"]},
        {"short": [math.nan], "signed": [math.inf, -math.inf, -0.0, 5e-324],
         "cells": [7, False, True, "peak", None, -12]},
    ]

    @pytest.mark.parametrize("columns", COLUMNS)
    def test_matches_per_cell_rule(self, columns):
        text = render_csv({"a": 1}, columns, {"m": [0.5, None]})
        lines = text.split("\n")
        assert text.endswith("\n")
        header = lines.index(",".join(columns))
        assert lines[header + 1:-1] == per_cell_rows(columns)

    @pytest.mark.parametrize("columns", COLUMNS)
    def test_short_document_matches_kernel(self, columns):
        assert render_csv({"a": 1}, columns, {"m": [0.5]},
                          kernel=False) == render_csv(
            {"a": 1}, columns, {"m": [0.5]})

    @given(st.lists(cell_values, max_size=30),
           st.lists(st.one_of(cell_values, st.none(), st.integers(),
                              st.booleans(), st.text(max_size=3)),
                    max_size=30))
    @settings(derandomize=True, max_examples=200)
    def test_short_documents_drawn_match_kernel(self, floats, mixed):
        columns = {"floats": floats, "array": np.array(floats),
                   "mixed": mixed}
        assert render_csv({}, columns, None, kernel=False) == \
            render_csv({}, columns, None)

    def test_only_array_documents_take_the_kernel(self, monkeypatch):
        # the columns' type decides, not the document's length
        documents = []
        kernel = csv_rows.render

        def counted(columns, fmt, block):
            documents.append([type(values) for values in columns])
            return kernel(columns, fmt, block)

        monkeypatch.setattr(csv_rows, "render", counted)
        rows = 2 * cli._CSV_BLOCK
        for columns in ({"x": [0.5] * rows, "y": (0.25,) * rows},
                        {"x": [0.5] * 3, "y": np.full(3, 0.25)}):
            b"".join(cli._render_csv({}, columns, None))
        assert documents == [[list, np.ndarray]]

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, -0.0, 5e-324, None, 0, -7, True,
        False, "peak", np.float64(-0.0), 1.0 / 3.0])
    def test_record_row_matches_column_kernel(self, value):
        # a record goes out as a table of one row, formatted cell by cell
        record = {"v": value, "x": 2.5, "n": None}
        columns = {k: [v] for k, v in record.items()}
        assert render_csv({"a": 1}, columns, None,
                          kernel=False) == render_csv(
            {"a": 1}, columns, None)

    def test_rows_across_blocks(self):
        # a long column spanning several blocks next to a short one, and
        # fallback cells on both sides of a block border
        n = 2 * cli._CSV_BLOCK + 3
        special = np.array([i * 1e-3 - 7.0 for i in range(n)])
        special[cli._CSV_BLOCK - 1:cli._CSV_BLOCK + 1] = [math.nan, -0.0]
        columns = {"k": [i * 0.1 - 7.0 for i in range(n)],
                   "label": ["x"] * (cli._CSV_BLOCK + 1) + [None, 4],
                   "T": special}
        lines = render_csv({}, columns, None).split("\n")
        assert lines == ["k,label,T"] + per_cell_rows(columns) + [""]

    def test_positive_floats_take_no_fallback(self, monkeypatch):
        # 12-digit decimals at exponents -11 to 33 are never ties and never
        # round up to the next decade, so the kernel writes every cell
        rng = np.random.default_rng(2107)
        n = 3 * cli._CSV_BLOCK + 5
        values = [float(f"{m}e{j}") for m, j in zip(
            rng.integers(10 ** 11, 10 ** 12, n).tolist(),
            rng.integers(-22, 23, n).tolist())]
        columns = {"k": np.array(values), "T": values[::-1]}
        want = ["k,T"] + per_cell_rows(columns) + [""]
        calls = []
        fmt = cli._fmt
        monkeypatch.setattr(cli, "_fmt", lambda v: calls.append(v) or fmt(v))
        lines = render_csv({}, columns, None).split("\n")
        assert calls == []
        assert lines == want

    def test_negative_column_and_fallbacks_across_blocks(self):
        # a displacement grid through zero (as in sweep-x), 3-digit
        # exponents of both signs, and fallback cells (non-finite, zero,
        # binary and decimal ties, a round-up to the next decade, an
        # exponent past the exact powers) on both sides of block borders
        block = cli._CSV_BLOCK
        n = 3 * block + 7
        tiny = np.full(n, 2.5e-200)
        tiny[::7] = -1.25e150
        special = [i * 1e-3 + 0.5 for i in range(n)]
        for border in (block, 2 * block, 3 * block):
            special[border - 4:border + 4] = [
                math.nan, 0.0, 100000000000.5, 1.000000000005,
                9.9999999999996e-7, 1e-50, -math.inf, -0.0]
        columns = {"x": np.linspace(-0.1, 0.1, n), "tiny": tiny,
                   "special": special}
        lines = render_csv({}, columns, None).split("\n")
        assert lines == ["x,tiny,special"] + per_cell_rows(columns) + [""]

    @given(st.lists(cell_values, max_size=40))
    @settings(derandomize=True, max_examples=600)
    def test_kernel_matches_percent_e(self, values):
        assert kernel_strings(values) == ["%.11e" % v for v in values]

    @given(st.lists(cell_values, max_size=30),
           st.lists(st.one_of(cell_values, st.none(), st.integers()),
                    max_size=30),
           st.integers(1, 8))
    @settings(derandomize=True, max_examples=200)
    def test_small_blocks_match_per_cell_rule(self, floats, mixed, block):
        columns = {"floats": np.array(floats, dtype=np.float64),
                   "mixed": mixed}
        with mock.patch.object(cli, "_CSV_BLOCK", block):
            text = render_csv({}, columns, None)
        assert text == "\n".join(["floats,mixed"]
                                 + per_cell_rows(columns)) + "\n"

    def test_million_random_bit_patterns(self):
        rng = np.random.default_rng(1304)
        n = 500_000
        anywhere = rng.integers(0, 2 ** 64, n, dtype=np.uint64)
        # exponents of about 1e-12 to 1e34, where the kernel formats
        fast = ((rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
                | (rng.integers(1023 - 40, 1023 + 114, n, dtype=np.uint64)
                   << np.uint64(52))
                | rng.integers(0, 2 ** 52, n, dtype=np.uint64))
        for bits in (anywhere, fast):
            assert_kernel_matches(bits.view(np.float64))

    def test_random_decimal_ties(self):
        # n.5e j for 1000 random n at each scale j, on both sides of the
        # exact powers of ten (|11 - e| <= 22 holds for -33 <= j <= 11)
        rng = np.random.default_rng(1715)
        assert_kernel_matches(np.array(
            [float(f"{n}.5e{j}") for j in range(-40, 41)
             for n in rng.integers(10 ** 11, 10 ** 12, 1000).tolist()]))


def outputs_in_fresh_interpreter(argvs, block_numpy):
    """(exit code, stdout) of each argv, run by main() in one new process.

    With ``block_numpy`` the process makes ``import numpy`` and ``import
    dataclasses`` fail before it imports the package.
    """
    src = os.path.dirname(os.path.dirname(coalesce.__file__))
    block = ("sys.modules['numpy'] = sys.modules['dataclasses'] = None\n"
             if block_numpy else "")
    code = ("import contextlib, io, json, sys\n"
            + block +
            "import coalesce.cli\n"
            "results = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        rc = coalesce.cli.main(argv)\n"
            "    results.append([rc, out.getvalue()])\n"
            "print(json.dumps(results))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [tuple(r) for r in json.loads(proc.stdout)]


class TestRuntimeWithoutNumpy:
    CLOSED_FORMS = [
        ["splitting", "--zeta-m=-20"],
        ["report", "--zeta=-10", "--zeta-m=-150"],
        ["report", "--zeta=-10", "--zeta-m=-250"],
        ["threshold", "--zeta=-8.5"],
        ["sensitivity", "--zeta=-10", "--zeta-m=-150", "--mass=1e-10",
         "--mech-freq=6e5", "--temperature=4"],
    ]

    def test_cli_import_leaves_numpy_out(self):
        src = os.path.dirname(os.path.dirname(coalesce.__file__))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, coalesce.cli\n"
             "print({'numpy', 'dataclasses', 'inspect'} & set(sys.modules))"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "set()\n"

    # the tracking subcommands at their default grids
    TRACKERS = [["figures", "fig2"], ["figures", "fig3"], ["sweep-x"],
                ["branches"]]

    def test_closed_forms_run_with_numpy_blocked(self):
        argvs = [argv + [f"--format={fmt}"] for argv in self.CLOSED_FORMS
                 for fmt in ("csv", "json")] + [["--version"]]
        blocked = outputs_in_fresh_interpreter(argvs, block_numpy=True)
        normal = outputs_in_fresh_interpreter(argvs, block_numpy=False)
        assert blocked == normal
        assert all(rc == 0 and out for rc, out in blocked)
        assert blocked[-1] == (0, coalesce.__version__ + "\n")

    # the short array subcommands: their grids lie below
    # core_scatter.SCALAR_GRID_WORK, and `stack` evaluates its one
    # optimal spacing at any layer count.  The `peaks` window holds a
    # pulled pair and 6 kappa either side of it (684 grid points), as in
    # the benchmark's `queries` workload; the second `spectrum` is the
    # longest two-hop grid on lists.
    SHORT_ARRAYS = [
        ["spectrum"],
        ["spectrum", "--zeta-m=-50",
         f"--points={core_scatter.SCALAR_GRID_WORK // 2}"],
        ["peaks", "--zeta=-10.606371890891051", "--zeta-m=-174.7416361227954",
         "--kmin=6.153278644910792", "--kmax=6.21363650775691"],
        ["threshold", "--zeta=-9.3", "--numeric"],
        ["stack", "--zeta-element=-0.64", "--n-layers=2"],
        ["stack", "--zeta-element=-1.43", "--n-layers=3"],
        ["stack", "--zeta-element=-1.1", "--n-layers=3", "--spacing=0.21"],
        ["stack", "--zeta-element=-1.3", "--n-layers=8"],
        ["figures", "fig1"],
        ["figures", "threshold-sweep"],
    ]

    def test_trackers_run_with_numpy_blocked(self):
        argvs = [argv + [f"--format={fmt}"] for argv in self.TRACKERS
                 for fmt in ("csv", "json")]
        blocked = outputs_in_fresh_interpreter(argvs, block_numpy=True)
        normal = outputs_in_fresh_interpreter(argvs, block_numpy=False)
        assert blocked == normal
        assert all(rc == 0 and out for rc, out in blocked)

    def test_short_array_commands_run_with_numpy_blocked(self):
        argvs = [argv + [f"--format={fmt}"] for argv in self.SHORT_ARRAYS
                 for fmt in ("csv", "json")]
        blocked = outputs_in_fresh_interpreter(argvs, block_numpy=True)
        normal = outputs_in_fresh_interpreter(argvs, block_numpy=False)
        assert blocked == normal
        assert all(rc == 0 and out for rc, out in blocked)

    def test_short_documents_leave_kernel_and_pipelines_out(self, tmp_path):
        # spectrum's 2001 rows are lists; only figures and sweep-x run
        # the pipelines of coalesce.experiments
        src = os.path.dirname(os.path.dirname(coalesce.__file__))
        code = ("import sys, coalesce.cli\n"
                "for argv in (['peaks'], ['threshold', '--numeric'],\n"
                "             ['stack'], ['spectrum']):\n"
                "    assert coalesce.cli.main(argv + sys.argv[1:]) == 0\n"
                "print(sorted({'coalesce.csv_rows', 'coalesce.experiments'}\n"
                "             & set(sys.modules)))\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, f"--output={tmp_path / 'out.csv'}"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("argv", TRACKERS, ids=" ".join)
    def test_tracker_leaves_numpy_out(self, argv, tmp_path):
        src = os.path.dirname(os.path.dirname(coalesce.__file__))
        code = ("import sys, coalesce.cli\n"
                "rc = coalesce.cli.main(sys.argv[1:])\n"
                "print(rc, 'numpy' in sys.modules)\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv,
             f"--output={tmp_path / 'out.csv'}"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 False\n"


class TestRuntimeWithoutScipy:
    def test_cli_imports_and_runs_with_scipy_blocked(self):
        src = os.path.dirname(os.path.dirname(coalesce.__file__))
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "import coalesce.cli\n"
                "sys.exit(coalesce.cli.main(['splitting', '--zeta-m=-20']))\n")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "scipy" not in proc.stderr
        assert proc.stdout.startswith("#")


class TestModuleEntryPoint:
    @staticmethod
    def run_module(*argv):
        src = os.path.dirname(os.path.dirname(coalesce.__file__))
        return subprocess.run(
            [sys.executable, "-m", "coalesce.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)

    def test_prints_fig1_csv(self):
        proc = self.run_module("figures", "fig1")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert '# figure = "fig1"' in lines
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header.startswith("k,T_0,")

    def test_unknown_target_exits_nonzero(self):
        proc = self.run_module("figures", "fig9")
        assert proc.returncode != 0
        assert proc.stdout == ""

    def test_closed_pipe_exits_quietly(self):
        # the reader takes one line and leaves, as `| head -1` does; the
        # rest of fig1 (about 200 kB) overflows the pipe
        src = os.path.dirname(os.path.dirname(coalesce.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "coalesce.cli", "figures", "fig1"],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"# ")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert b"Traceback" not in err
        assert err == b""


class TestProcessEntryPoint:
    """run() starts numpy with one OpenBLAS thread: no module calls BLAS."""

    @staticmethod
    def run_with(monkeypatch, code=0):
        seen = []
        monkeypatch.setattr(cli, "main", lambda: seen.append(
            os.environ.get("OPENBLAS_NUM_THREADS")) or code)
        with pytest.raises(SystemExit) as exit_:
            cli.run()
        return seen, exit_.value.code

    def test_unset_thread_count_becomes_one(self, monkeypatch):
        # setenv first, so that the teardown unsets the variable again
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert self.run_with(monkeypatch) == (["1"], 0)

    def test_user_thread_count_is_kept(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert self.run_with(monkeypatch) == (["3"], 0)

    def test_exits_with_the_code_of_main(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert self.run_with(monkeypatch, 3) == (["1"], 3)

    def test_import_leaves_the_environment_alone(self):
        src = os.path.dirname(os.path.dirname(coalesce.__file__))
        code = ("import os\n"
                "before = dict(os.environ)\n"
                "import coalesce, coalesce.cli\n"
                "print(dict(os.environ) == before)\n")
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("OPENBLAS_NUM_THREADS", None)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n"


class TestOptionDefaults:
    def test_library_keywords_share_the_cli_defaults(self):
        # every `kw=values["dest"]` argument that a `_cmd_<name>` handler
        # passes to a library keyword with a default: the flag's default
        # is that keyword's default, so the two copies cannot drift apart
        cli._load_numerics(pipelines=True)
        tree = ast.parse(inspect.getsource(cli))
        checked = set()
        for handler in tree.body:
            if not (isinstance(handler, ast.FunctionDef)
                    and handler.name.startswith("_cmd_")):
                continue
            name = handler.name.removeprefix("_cmd_").replace("_", "-")
            for call in ast.walk(handler):
                keywords = {
                    kw.arg: kw.value.slice.value
                    for kw in getattr(call, "keywords", ())
                    if isinstance(kw.value, ast.Subscript)
                    and getattr(kw.value.value, "id", None) == "values"}
                if not keywords:
                    continue
                func = call.func   # a name of cli, or module.name
                if isinstance(func, ast.Attribute):
                    func = getattr(getattr(cli, func.value.id), func.attr)
                else:
                    func = getattr(cli, func.id)
                params = inspect.signature(func).parameters
                for arg, dest in keywords.items():
                    if params[arg].default is inspect.Parameter.empty:
                        continue
                    assert cli._OPTIONS[name][dest][1] == \
                        params[arg].default, (name, dest)
                    checked.add((name, dest, func.__name__))
        assert checked == {
            ("peaks", "grid_per_kappa", "find_peaks"),
            ("stack", "k", "maximize_stack_polarizability")}
