"""Golden outputs: the exact CSV bytes of a fixed set of CLI runs.

The files under tests/golden/ pin what the code produces. A change that
moves any of them must say why in CHANGES.md. To regenerate them, run
``PYTHONPATH=src python tests/test_golden.py`` from the root of a checkout.
"""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

import pytest

from distest import cli, protocols

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO_CONFIGS = ROOT / "demos" / "configs"
DEMO_TRIALS = 300
SUITES = "dpi3,dpi5,dpi7,chain,tensor,pinsker,fano"

MATRIX_PROTOCOLS = ("single_mean", "gauss_qavg", "onebit", "uniform_min",
                    "regress_avg", "probit_avg", "centralized")
MATRIX_FAMILIES = ("gaussian", "bounded_two_point", "bounded_uniform",
                   "uniform", "regression", "probit")
MATRIX_GRID = ("d = 2\ntheta = 0.3\nm = 1\nm = 4\nn = 1\nn = 8\n"
               "budget_bits = 6\ntrials = 20\nseed = 11\n")


def _cli(argv, tmp: Path) -> str:
    out = tmp / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def _demo(name: str, tmp: Path) -> str:
    text = (DEMO_CONFIGS / f"{name}.conf").read_text(encoding="utf-8")
    text, hits = re.subn(r"(?m)^trials = \d+$", f"trials = {DEMO_TRIALS}", text)
    assert hits == 1
    conf = tmp / f"{name}.conf"
    conf.write_text(text, encoding="utf-8")
    return _cli(["simulate", str(conf)], tmp)


def _matrix(tmp: Path) -> str:
    lines = [cli.SIMULATE_HEADER]
    for protocol in MATRIX_PROTOCOLS:
        for family in MATRIX_FAMILIES:
            text = f"protocol = {protocol}\nfamily = {family}\n{MATRIX_GRID}"
            lines += cli.run_simulate(cli.parse_config(text))[1:]
    return "\n".join(lines) + "\n"


PRODUCERS = {
    "onebit_sweep.csv": lambda tmp: _demo("onebit_sweep", tmp),
    "single_mean_grid.csv": lambda tmp: _demo("single_mean_grid", tmp),
    "uniform_interactive.csv": lambda tmp: _demo("uniform_interactive", tmp),
    "rate_queries.csv": lambda tmp: _cli(
        ["bounds", str(DEMO_CONFIGS / "rate_queries.csv")], tmp),
    "verify.csv": lambda tmp: _cli(
        ["verify", SUITES, "--count", "20", "--seed", "0"], tmp),
    "matrix.csv": _matrix,
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_golden_bytes(name, tmp_path):
    got = PRODUCERS[name](tmp_path)
    assert got.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_matrix_covers_every_protocol_and_family():
    rows = (GOLDEN / "matrix.csv").read_text(encoding="utf-8").splitlines()[1:]
    pairs = {tuple(row.split(",")[:2]) for row in rows}
    assert pairs == {(p, f) for p in protocols.PROTOCOLS for f in cli.FAMILIES}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, produce in PRODUCERS.items():
            (GOLDEN / name).write_text(produce(Path(tmp)), encoding="utf-8")
            print(f"wrote {GOLDEN / name}")
