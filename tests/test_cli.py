import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import distest
from distest import cli, sweeps
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

# a grid point whose local probit Hessian is singular on some trials
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
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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

    def test_each_grid_point_runs_once_in_row_order(self, monkeypatch):
        # one serial loop: _simulate_point sees every (d, m) point exactly
        # once, and its rows come back in the order it was called
        calls = []

        def record(*args):
            calls.append((args[4], args[5]))
            return f"row {len(calls)}"

        monkeypatch.setattr(cli, "_simulate_point", record)
        conf = ONEBIT_CONF.replace("d = 4\n", "d = 4\nd = 2\n")
        lines = run_simulate(parse_config(conf))
        assert calls == [(4, 10), (4, 20), (2, 10), (2, 20)]
        assert lines == [SIMULATE_HEADER, "row 1", "row 2", "row 3", "row 4"]

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

    def test_huge_integer_size_is_a_row_error(self, tmp_path, capsys):
        huge = str(10 ** 400)
        queries = tmp_path / "queries.csv"
        queries.write_text("formula,family,d,m,n,budget_total\n"
                           f"centralized,bounded,{huge},1,1,\n"
                           f"thm2,,{huge},1,1,10\n")
        assert cli.main(["bounds", str(queries)]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert [line.split(",")[-1] for line in out.out.splitlines()[1:]] == [
            "overflow: integer division result too large for a float",
            "overflow: int too large to convert to float"]

    def test_bad_header(self):
        with pytest.raises(ConfigError):
            run_bounds("formula,unknown_col\nthm2,1\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_budget_is_a_row_error(self, value):
        text = ("formula,d,m,n,sigma2,budget_total,budgets_per_machine\n"
                f"thm2,4,16,64,2.0,{value},\n"
                f"thm2,4,16,64,{value},16,\n"
                f"prop3_lower,4,16,64,,{value},\n"
                f"thm1,4,2,64,2.0,,{value};1\n")
        lines = run_bounds(text)
        value_col = len(cli.BOUNDS_INPUT_COLUMNS)
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[value_col] == "" and "finite" in cells[-1]


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
        # verify's own refusals are one-line errors, as every other one is
        bad = run_cli(["verify", "nosuch", "--count", "5", "--seed", "1"])
        assert bad.returncode == 2 and bad.stdout == ""
        assert bad.stderr == (f"error: unknown suite 'nosuch'; choices: "
                              f"{', '.join(sweeps.SUITE_NAMES)}\n")
        empty = run_cli(["verify", " , "])
        assert empty.returncode == 2 and empty.stdout == ""
        assert empty.stderr == "error: no suites named\n"
        # a count over the ceiling is refused before any instance is drawn
        for count in (sweeps.MAX_COUNT + 1, 10 ** 29):
            big = run_cli(["verify", "fano", "--count", str(count)])
            assert big.returncode == 2 and big.stdout == ""
            assert big.stderr == f"error: instance count must be in [1, {sweeps.MAX_COUNT}]\n"

    def test_config_error_exit_two_no_output(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("protocol = onebit\n")
        out = tmp_path / "never.csv"
        res = run_cli(["simulate", str(conf), "--out", str(out)])
        assert res.returncode == 2
        assert not out.exists()

    def test_unknown_design_exits_two_no_output(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("protocol = regress_avg\nfamily = regression\ndesign = foo\n"
                        "d = 2\nm = 3\nn = 4\ntrials = 5\n")
        out = tmp_path / "never.csv"
        assert cli.main(["simulate", str(conf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown design 'foo'") and "orthogonal" in err
        assert not out.exists()

    def test_missing_file_exit_two(self):
        res = run_cli(["simulate", "/nonexistent/x.conf"])
        assert res.returncode == 2

    @pytest.mark.parametrize("command, text", [
        ("simulate", b"protocol = onebit\xff\n"),
        ("bounds", b"formula,d,m,n\nthm2,4,16,\xff\n")], ids=["simulate", "bounds"])
    def test_non_utf8_file_exits_two(self, tmp_path, capsys, command, text):
        # a decode error is a bad input, not exit 1 ("inequality violated")
        path = tmp_path / "bad.txt"
        path.write_bytes(text)
        assert cli.main([command, str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error:") and out.err.count("\n") == 1
        assert "can't decode byte 0xff" in out.err

    @pytest.mark.parametrize("value", ["abc", "2"])
    def test_simulate_reads_no_environment_variable(self, tmp_path, value):
        # a DISTEST_THREADS left in the environment, valid or not, is ignored
        conf = tmp_path / "sweep.conf"
        conf.write_text(ONEBIT_CONF)
        plain = run_cli(["simulate", str(conf)])
        assert plain.returncode == 0 and len(plain.stdout.splitlines()) == 3
        res = run_cli(["simulate", str(conf)],
                      env=dict(os.environ, DISTEST_THREADS=value))
        assert res.returncode == 0 and res.stderr == ""
        assert res.stdout == plain.stdout

    def test_singular_probit_hessian_is_a_flagged_trial(self, tmp_path):
        # a trial whose local Newton system is singular is flagged, like one
        # whose iterate diverges, and the grid point gets a normal row
        conf = tmp_path / "probit.conf"
        conf.write_text(SINGULAR_PROBIT_CONF)
        res = run_cli(["simulate", str(conf)])
        assert res.returncode == 0 and res.stderr == ""
        header, row = res.stdout.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert int(cells["flagged_trials"]) > 0 and cells["error"] == ""

    @pytest.mark.parametrize("conf,flagged", [
        ("protocol = probit_avg\nd = 3\nm = 10\nn = 30\ntheta = 0.3;-0.2;0.1\n", 200),
        ("protocol = centralized\nd = 2\nm = 4\nn = 8\ntheta = 0.3\n", 35)],
        ids=["probit_avg", "centralized"])
    def test_identity_design_probit_rows_flag_their_separated_trials(self, conf, flagged):
        # the identity design's zero rows carry no information: every local
        # problem on it is separated, and so are 35 of the 200 pooled ones
        lines = run_simulate(parse_config(
            conf + "family = probit\ndesign = identity\ntrials = 200\nseed = 7\n"))
        cells = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert cells["error"] == "" and int(cells["flagged_trials"]) == flagged

    def test_probit_avg_on_regression_data_is_a_row_error(self, tmp_path):
        # real-valued regression responses are not probit bits
        conf = tmp_path / "probit.conf"
        conf.write_text(SINGULAR_PROBIT_CONF.replace("family = probit", "family = regression"))
        res = run_cli(["simulate", str(conf)])
        assert res.returncode == 0 and res.stderr == ""
        header, row = res.stdout.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["error"] == "protocol 'probit_avg' does not run on RegressionSpec"
        assert cells["mse_mean"] == ""

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

    @pytest.mark.parametrize("d, m, trials", [(10 ** 51, 2, 2), (1, 10 ** 12, 2),
                                              (1, 1, 10 ** 17)],
                             ids=["huge_d", "huge_m", "huge_trials"])
    def test_huge_size_exits_two(self, tmp_path, d, m, trials):
        # rejected at config time, before np.full(d), one generator per
        # machine or the per-trial error and bit arrays are built
        conf = tmp_path / "huge.conf"
        conf.write_text("protocol = onebit\nfamily = bounded_two_point\n"
                        f"d = {d}\nm = {m}\nn = 1\ntrials = {trials}\n")
        res = run_cli(["simulate", str(conf)])
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr and "ceiling" in res.stderr

    def test_negative_seed_exits_two(self, tmp_path):
        conf = tmp_path / "sweep.conf"
        conf.write_text(ONEBIT_CONF.replace("seed = 3", "seed = -1"))
        for args in (["simulate", str(conf)],
                     ["verify", "pinsker", "--count", "3", "--seed", "-1"]):
            res = run_cli(args)
            assert res.returncode == 2
            assert res.stderr.startswith("error:") and "Traceback" not in res.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["theta", "sigma"])
    def test_non_finite_grid_value_exits_two(self, tmp_path, capsys, key, value):
        conf = tmp_path / "sweep.conf"
        text = ONEBIT_CONF.replace("theta = 0.0", "theta = 0.1;0.0")
        conf.write_text(text.replace("theta = 0.1;", f"theta = {value};")
                        if key == "theta" else text + f"sigma = {value}\n")
        assert cli.main(["simulate", str(conf), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not a finite number" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("protocol, family", [("gauss_qavg", "gaussian"),
                                                  ("centralized", "gaussian"),
                                                  ("regress_avg", "regression")])
    def test_overflowing_sigma_is_a_row_error(self, tmp_path, protocol, family):
        conf = tmp_path / "sweep.conf"
        conf.write_text(f"protocol = {protocol}\nfamily = {family}\nd = 2\nm = 3\n"
                        "n = 4\ntrials = 5\nseed = 1\nsigma = 1e200\n")
        res = run_cli(["simulate", str(conf)])
        assert res.returncode == 0 and res.stderr == ""
        row = res.stdout.splitlines()[1].split(",")
        assert row[11:20] == [""] * 9 and "overflow" in row[20]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_without_warnings(demo):
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC))
    assert res.returncode == 0 and res.stderr == "" and res.stdout


def test_bench_tracer_patches_and_restores_every_hook():
    # entering looks up every name bench/spans.py wraps, so a renamed hook
    # raises here; leaving must put every original back
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from distest import bounds, codec, infotheory, protocols, sweeps
    modules = (bounds, cli, codec, infotheory, protocols, sweeps)
    before = [dict(vars(module)) for module in modules]
    with spans.installed(spans.SpanRecorder()):
        assert infotheory.check_dpi_independent is not before[3]["check_dpi_independent"]
        assert cli.run_suite is not before[1]["run_suite"]
    for module, names in zip(modules, before):
        assert all(getattr(module, name) is value for name, value in names.items())
