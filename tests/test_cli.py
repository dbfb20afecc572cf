import os
import subprocess
import sys
from pathlib import Path

import pytest

import distest
from distest import cli
from distest.cli import (SIMULATE_HEADER, parse_config, run_bounds,
                         run_simulate, run_verify)
from distest.errors import ConfigError

ONEBIT_CONF = """
protocol = onebit
family = bounded_two_point
d = 4
theta = 0.0
m = 10
m = 20
n = 1
trials = 50
seed = 3
"""

# a grid point whose local probit Hessian is singular on some trial
SINGULAR_PROBIT_CONF = """
protocol = probit_avg
family = probit
d = 2
m = 3
n = 4
theta = 0.9
trials = 50
seed = 11
"""


SRC = str(Path(distest.__file__).resolve().parents[1])


def run_cli(args, cwd=None, env=None):
    """Run ``python -m distest`` on the imported package's sources; env
    (default: this process's environment) gets PYTHONPATH set to them."""
    env = dict(os.environ if env is None else env, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "distest", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


class TestConfigParsing:
    def test_repeated_keys_form_grids(self):
        cfg = parse_config(ONEBIT_CONF)
        assert cfg["m"] == ["10", "20"]
        assert cfg["protocol"] == ["onebit"]

    def test_comments_and_blank_lines(self):
        cfg = parse_config("a = 1  # trailing\n\n# full comment\nb = 2\n")
        assert cfg == {"a": ["1"], "b": ["2"]}

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config("just words\n")
        with pytest.raises(ConfigError):
            parse_config("")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            run_simulate(parse_config(ONEBIT_CONF + "wibble = 3\n"))

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            run_simulate(parse_config("protocol = onebit\nfamily = bounded_two_point\n"
                                      "trials = 10\nd = 2\nm = 4\n"))  # no n

    def test_bad_trials(self):
        with pytest.raises(ConfigError):
            run_simulate(parse_config(ONEBIT_CONF.replace("trials = 50", "trials = 1")))


class TestSimulate:
    def test_grid_rows_and_header(self):
        lines = run_simulate(parse_config(ONEBIT_CONF))
        assert lines[0] == SIMULATE_HEADER
        assert len(lines) == 3
        cols = lines[1].split(",")
        assert len(cols) == SIMULATE_HEADER.count(",") + 1
        assert cols[0] == "onebit"
        assert cols[4] == "10" and lines[2].split(",")[4] == "20"
        assert cols[-1] == ""  # no error

    def test_row_error_recorded_and_run_continues(self):
        # n = 2 is invalid for the one-bit scheme: error lands in the row
        conf = ONEBIT_CONF.replace("n = 1", "n = 1\nn = 2")
        lines = run_simulate(parse_config(conf))
        assert len(lines) == 5
        good = [ln for ln in lines[1:] if ln.endswith(",")]
        bad = [ln for ln in lines[1:] if not ln.endswith(",")]
        assert len(good) == 2 and len(bad) == 2
        assert "one-bit" in bad[0]

    def test_pool_has_no_more_workers_than_points(self, monkeypatch):
        """DISTEST_THREADS above the grid size asks for one worker per
        point; the recording pool maps serially and starts no process."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("DISTEST_THREADS", "1")
        serial = run_simulate(parse_config(ONEBIT_CONF))
        assert sizes == []
        monkeypatch.setenv("DISTEST_THREADS", "64")
        assert run_simulate(parse_config(ONEBIT_CONF)) == serial
        assert sizes == [2]

    def test_row_order_d_slowest_theta_fastest(self):
        conf = ("protocol = onebit\nfamily = bounded_two_point\nn = 1\n"
                "d = 1\nd = 2\nm = 10\nm = 20\ntheta = 0.0\ntheta = 0.5\n"
                "trials = 5\nseed = 3\n")
        rows = [ln.split(",") for ln in run_simulate(parse_config(conf))[1:]]
        assert [(r[3], r[4], r[7]) for r in rows] == [
            (d, m, theta) for d in ("1", "2") for m in ("10", "20")
            for theta in ("0.0", "0.5")]

    def test_quantizer_over_62_bits_is_a_row_error(self):
        single = ("protocol = single_mean\nfamily = bounded_uniform\nd = 1\n"
                  "m = 1\nn = 1\ntheta = 0.3\nbudget_bits = 62\n"
                  "budget_bits = 64\ntrials = 20\nseed = 3\n")
        fine, wide = run_simulate(parse_config(single))[1:]
        assert fine.endswith(",")
        assert wide.endswith(",bit count must be <= 62")
        # sigma = 1e-9 asks for a 66-bit grid
        gauss = ("protocol = gauss_qavg\nfamily = gaussian\nd = 2\nm = 4\n"
                 "n = 8\nsigma = 1e-9\ntrials = 20\nseed = 3\n")
        row = run_simulate(parse_config(gauss))[1]
        assert row.endswith(",bit count must be <= 62")

    def test_gnuplot_hints_are_comments(self):
        lines = run_simulate(parse_config(ONEBIT_CONF), gnuplot_hints=True)
        hints = [ln for ln in lines if ln.startswith("#")]
        assert hints and all("gnuplot" in h for h in hints)

    def test_gauss_row_reproduces_protocol_numbers(self):
        conf = ("protocol = gauss_qavg\nfamily = gaussian\nd = 4\n"
                "theta = 0.3;-0.2;0.1;0.4\nm = 16\nn = 64\nsigma = 1.0\n"
                "trials = 500\nseed = 42\n")
        row = run_simulate(parse_config(conf))[1].split(",")
        mse, bits_max = float(row[12]), int(row[15])
        central = float(row[17])
        assert central == pytest.approx(4 / 1024)
        assert 0.7 <= mse / central <= 1.45
        assert bits_max == 16 * 48


class TestBoundsCommand:
    def test_worked_rows(self):
        text = ("formula,d,m,n,sigma2,budget_total,budgets_per_machine\n"
                "thm2,4,16,64,1.0,16,\n"
                "prop3_budget,2,4,8,,,\n")
        lines = run_bounds(text)
        assert len(lines) == 3
        thm2 = lines[1].split(",")
        value_col = len(cli.BOUNDS_INPUT_COLUMNS)
        assert abs(float(thm2[value_col]) - 0.004508) <= 1e-6
        budget = lines[2].split(",")
        assert abs(float(budget[value_col]) - 60.05) <= 0.01
        assert "log2_reading=76.0" in budget[value_col + 1]

    def test_malformed_field_is_row_error(self):
        text = ("formula,d,m,n,sigma2,budget_total\n"
                "thm2,4,sixteen,64,1.0,16\n"
                "thm2,4,16,64,1.0,16\n")
        lines = run_bounds(text)
        assert len(lines) == 3
        assert lines[1].split(",")[-1] != ""
        assert lines[2].endswith(",")

    def test_bad_header(self):
        with pytest.raises(ConfigError):
            run_bounds("formula,unknown_col\nthm2,1\n")


class TestVerifyCommand:
    def test_all_hold_and_exit_zero(self):
        rows, violations = run_verify(["pinsker", "tensor"], count=40, seed=5)
        assert violations == 0
        assert len(rows) == 1 + 80
        assert rows[0] == "suite,seed,lhs,rhs,slack,holds"
        assert all(row.endswith(",1") for row in rows[1:])

    def test_violation_exits_one(self, monkeypatch, capsys, tmp_path):
        # the real inequalities hold, so force one failing row to exercise
        # the exit-1 path
        from distest import sweeps

        def fake_suite(name, count, seed):
            return [sweeps.SuiteRow(name, seed, lhs=1.0, rhs=0.5, holds=False)]

        monkeypatch.setattr(cli, "run_suite", fake_suite)
        code = cli.main(["verify", "pinsker", "--count", "1", "--seed", "0",
                         "--out", str(tmp_path / "v.csv")])
        assert code == 1
        assert (tmp_path / "v.csv").read_text().splitlines()[1].endswith(",0")


class TestEndToEnd:
    def test_simulate_deterministic_bytes(self, tmp_path):
        conf = tmp_path / "sweep.conf"
        conf.write_text(ONEBIT_CONF)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1 = run_cli(["simulate", str(conf), "--out", str(out1)])
        r2 = run_cli(["simulate", str(conf), "--out", str(out2)])
        assert r1.returncode == 0 and r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_exit_codes(self, tmp_path):
        ok = run_cli(["verify", "pinsker", "--count", "20", "--seed", "1"])
        assert ok.returncode == 0
        bad = run_cli(["verify", "nosuch", "--count", "5", "--seed", "1"])
        assert bad.returncode == 2
        assert "unknown suite" in bad.stderr

    def test_config_error_exit_two_no_output(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("protocol = onebit\n")
        out = tmp_path / "never.csv"
        res = run_cli(["simulate", str(conf), "--out", str(out)])
        assert res.returncode == 2
        assert not out.exists()

    def test_missing_file_exit_two(self):
        res = run_cli(["simulate", "/nonexistent/x.conf"])
        assert res.returncode == 2

    def test_threaded_run_matches_serial(self, tmp_path):
        conf = tmp_path / "sweep.conf"
        conf.write_text(ONEBIT_CONF)
        serial = run_cli(["simulate", str(conf)], env={"DISTEST_THREADS": "1"})
        threaded = run_cli(["simulate", str(conf)], env={"DISTEST_THREADS": "2"})
        assert serial.returncode == 0 and threaded.returncode == 0
        assert serial.stdout == threaded.stdout

    def test_singular_probit_hessian_is_a_row_error(self, tmp_path):
        conf = tmp_path / "probit.conf"
        conf.write_text(SINGULAR_PROBIT_CONF)
        res = run_cli(["simulate", str(conf)])
        assert res.returncode == 0 and "Traceback" not in res.stderr
        assert res.stdout.splitlines()[1:] == [
            "probit_avg,probit,orthogonal,2,3,4,,0.9,,50,11,,,,,,,,,,"
            "singular probit Hessian: Singular matrix"]

    def test_import_does_not_load_scipy(self):
        """scipy is imported on the first probit solve, not by the package:
        it is most of the import time."""
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, distest, distest.cli; assert 'scipy' not in sys.modules"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("key", ["m", "n", "d"])
    def test_nonpositive_size_exits_two(self, tmp_path, key):
        conf = tmp_path / "sweep.conf"
        conf.write_text(ONEBIT_CONF + f"{key} = 0\n")
        res = run_cli(["simulate", str(conf)])
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr

    def test_negative_seed_exits_two(self, tmp_path):
        conf = tmp_path / "sweep.conf"
        conf.write_text(ONEBIT_CONF.replace("seed = 3", "seed = -1"))
        for args in (["simulate", str(conf)],
                     ["verify", "pinsker", "--count", "3", "--seed", "-1"]):
            res = run_cli(args)
            assert res.returncode == 2
            assert res.stderr.startswith("error:") and "Traceback" not in res.stderr

    def test_bad_thread_count_exits_two(self, tmp_path):
        conf = tmp_path / "sweep.conf"
        conf.write_text(ONEBIT_CONF)
        res = run_cli(["simulate", str(conf)], env={"DISTEST_THREADS": "abc"})
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
