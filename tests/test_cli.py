"""CLI contract: output shapes, config precedence, exit codes."""

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
from coalesce import cli
from coalesce.cli import load_config, main
from coalesce.cli import ConfigError

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
                               "--n-layers", "2", "--spacing-grid", "2001",
                               "--format", "json")
        data = json.loads(out)["data"]
        assert code == 0
        assert data["zeta_eff"] == pytest.approx(2 * math.sqrt(2), rel=1e-4)
        assert data["threshold_per_element"] == pytest.approx(10.0, rel=1e-9)

    def test_sensitivity_with_membrane_block(self, capsys):
        code, out, _ = run_cli(capsys, "sensitivity", "--mass", "1e-10",
                               "--mech-freq", str(2 * math.pi * 1e5),
                               "--format", "json")
        data = json.loads(out)["data"]
        assert code == 0
        assert data["enhancement"] == pytest.approx(4.783, rel=1e-3)
        assert data["x_zpf"] == pytest.approx(9.1608e-16, rel=1e-4)


class TestBranchesContract:
    def test_exact_header(self, capsys):
        code, out, _ = run_cli(capsys, "branches", "--xpoints", "3",
                               "--xmin", "-0.001", "--xmax", "0.001")
        assert code == 0
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert body[0] == "x,k_lower,k_upper,T_lower,T_upper"
        assert len(body) == 1 + 3


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

    def test_load_config_roundtrip(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("kmin = 5.9\nrefine-tol = 1e-10\n")
        rc = load_config(str(cfg))
        assert rc.values == {"kmin": "5.9", "refine_tol": "1e-10"}
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.cfg"))


class TestExitCodes:
    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--no-such-flag", "1")
        assert code == 2

    def test_domain_error_exits_3_with_token(self, capsys):
        code, _, err = run_cli(capsys, "sensitivity", "--zeta", "-10",
                               "--zeta-m", "-250")
        assert code == 3
        line = err.strip().splitlines()[0]
        assert line.startswith("error[divergent-sensitivity]:")

    def test_invalid_parameter_token(self, capsys):
        code, _, err = run_cli(capsys, "peaks", "--refine-tol", "1e-3")
        assert code == 3
        assert err.startswith("error[invalid-parameter]:")

    def test_not_bracketed_token(self, capsys):
        code, _, err = run_cli(capsys, "threshold", "--numeric",
                               "--zm-lo", "-120", "--zm-hi", "-150")
        assert code == 3
        assert err.startswith("error[not-bracketed]:")

    def test_lost_peak_is_pair_identification(self, capsys):
        # weak mirrors near the threshold: the broad pair leaves the
        # tracking window as the middle element moves
        code, _, err = run_cli(capsys, "sweep-x", "--zeta=-0.3",
                               "--zeta-m=-0.59", "--xmin=-0.05",
                               "--xmax=0.05", "--xpoints", "9")
        assert code == 3
        assert err.startswith("error[pair-identification]:")


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

    def test_threshold_sweep_json(self, capsys):
        code, out, _ = run_cli(capsys, "figures", "threshold-sweep",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["zeta_m_merge"] == pytest.approx(
            -200.998, rel=0.05)
        assert set(payload["data"]) >= {"zeta_m", "n_peaks", "T_peak_1"}


def per_cell_rows(columns):
    """CSV data rows by the one-call-per-cell rule the renderer replaces."""
    length = max((len(v) for v in columns.values()), default=0)
    return [",".join(cli._fmt(v[i]) if i < len(v) else ""
                     for v in columns.values())
            for i in range(length)]


def render_csv(params, columns, annotations):
    """The CSV document the renderer streams, as one string."""
    return b"".join(cli._render_csv(params, columns, annotations)).decode()


def kernel_strings(values):
    cells, keep = cli._float_cells(np.array(values, dtype=np.float64))
    return [bytes(row[used]).decode() for row, used in zip(cells, keep)]


def assert_kernel_matches(x):
    """_float_cells gives the bytes of "%.11e" for every value of x."""
    got = cli._csv_rows([cli._float_cells(x)], len(x))
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

    @pytest.mark.parametrize("columns", [
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
    ])
    def test_matches_per_cell_rule(self, columns):
        text = render_csv({"a": 1}, columns, {"m": [0.5, None]})
        lines = text.split("\n")
        assert text.endswith("\n")
        header = lines.index(",".join(columns))
        assert lines[header + 1:-1] == per_cell_rows(columns)

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
