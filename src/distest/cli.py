"""Command-line surface: `distest simulate`, `bounds` and `verify`.

Exit codes: 0 success, 1 inequality violation, 2 usage or config error.
Output CSV is byte-deterministic given the inputs; distest reads no
environment variable.

Config files are flat ``key = value`` text; repeating a grid key sweeps the
cartesian product, in the row order (d, m, n, sigma, budget_bits, theta),
theta fastest. ``protocols.PROTOCOLS`` says which spec types a protocol
runs on and may name its lower bound; ``FAMILIES`` says how a family id
becomes a spec and which rate and bound its rows report, the bound taken at
the measured bits. ``FORMULAS`` maps each ``bounds.RateQuery`` formula id
to its rate for both ``simulate`` and ``bounds``.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bounds as bnd
from . import protocols as proto
from .designs import DESIGN_KINDS, build_designs
from .errors import ConfigError, DegenerateDesignError, InvalidArgumentError
from .families import (BoundedProductSpec, GaussianLocationSpec, ProbitSpec,
                       RegressionSpec, UniformLocationSpec, design_eigenbounds)
from .sweeps import SUITE_CSV_HEADER, check_suite, run_suite

GRID_KEYS = ("theta", "d", "m", "n", "sigma", "budget_bits")

# Machines in a simulate config, each with its own generator (about 0.1 ms
# and 1 KB); checked, with protocols.CHUNK_VALUES, before anything is built.
MAX_MACHINES = 10_000

SIMULATE_HEADER = ("protocol,family,design,d,m,n,sigma,theta,budget_bits,"
                   "trials,seed,protocol_kind,mse_mean,mse_stderr,bits_mean,"
                   "bits_max,flagged_trials,centralized_rate,bound_formula,"
                   "bound_value,error")

BOUNDS_INPUT_COLUMNS = ("formula", "family", "d", "m", "n", "sigma2",
                        "budget_total", "budgets_per_machine", "lambda_max2",
                        "lambda_min2", "c", "c1", "c2", "a", "delta")


def parse_config(text: str) -> dict:
    """Flat key-value config; '#' starts a comment, repeated keys append."""
    config = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        config.setdefault(key, []).append(value)
    if not config:
        raise ConfigError("config file is empty")
    return config


def _single(config, key, default=None, cast=str):
    values = config.get(key)
    if values is None:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    if len(values) > 1:
        raise ConfigError(f"key {key!r} must appear once")
    try:
        return cast(values[0])
    except ValueError as err:
        raise ConfigError(f"key {key!r}: {err}") from err


def _grid(config, key, cast):
    values = config.get(key)
    if values is None:
        return [None]
    try:
        return [cast(v) for v in values]
    except ValueError as err:
        raise ConfigError(f"key {key!r}: {err}") from err


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_theta(text: str):
    return tuple(_finite(part) for part in text.split(";"))


def _theta_vector(theta, d: int) -> np.ndarray:
    if len(theta) == 1:
        return np.full(d, theta[0])
    if len(theta) != d:
        raise ConfigError(f"theta has {len(theta)} entries but d = {d}")
    return np.asarray(theta)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


# RateQuery formula id -> rate. Entries look `bnd` up when they run, so
# wrapping the functions on that alias (as bench/spans.py does) sees every call.
FORMULAS = {
    "prop1": lambda q: bnd.prop1_lower(q.need_total(), bnd.unit_interval_entropy_inverse),
    "thm1": lambda q: bnd.theorem1_lower(q),
    "prop2": lambda q: bnd.prop2_lower(q),
    "prop3_lower": lambda q: bnd.prop3_lower(q),
    "prop3_budget": lambda q: bnd.prop3_budget(q.d, q.m, q.n),
    "thm2": lambda q: bnd.theorem2_lower(q),
    "cor1_lower": lambda q: bnd.cor1_rates(q)[0],
    "cor1_upper": lambda q: bnd.cor1_rates(q)[1],
    "cor2_lower": lambda q: bnd.cor2_rates(q)[0],
    "cor2_upper": lambda q: bnd.cor2_rates(q)[1],
}


@dataclass(frozen=True)
class Family:
    """One config family id: its spec and the rates its rows report."""

    spec: Callable              # (theta, sigma, designs or None) -> spec
    rate: str                   # bounds.centralized_rate family id
    bound: str                  # FORMULAS id, unless the protocol overrides it
    uses_sigma: bool = False    # the rates take sigma^2; otherwise sigma^2 = 1
    uses_designs: bool = False  # the spec is built on build_designs(...)


FAMILIES = {
    "gaussian": Family(lambda t, s, a: GaussianLocationSpec(t, s), "gaussian", "thm2",
                       uses_sigma=True),
    "bounded_two_point": Family(lambda t, s, a: BoundedProductSpec(t, "two_point"),
                                "bounded", "prop2"),
    "bounded_uniform": Family(lambda t, s, a: BoundedProductSpec(t, "uniform_interval"),
                              "bounded", "prop2"),
    "uniform": Family(lambda t, s, a: UniformLocationSpec(t), "uniform", "prop3_lower"),
    "regression": Family(lambda t, s, a: RegressionSpec(a, t, s), "regression", "cor1_lower",
                         uses_sigma=True, uses_designs=True),
    "probit": Family(lambda t, s, a: ProbitSpec(a, t), "regression", "cor2_lower",
                     uses_designs=True),
}


def _error_cell(err: Exception) -> str:
    """A row error as one CSV cell: no comma, no newline."""
    # Python's float OverflowError reads "(34, 'Numerical result out of range')"
    text = f"overflow: {err}" if isinstance(err, OverflowError) else str(err)
    return text.replace(",", ";").replace("\n", " ")


def _simulate_point(protocol, family, design_kind, theta, d, m, n, sigma,
                    budget_bits, trials, seed) -> str:
    fam = FAMILIES[family]
    base = (f"{protocol},{family},{design_kind if fam.uses_designs else ''},"
            f"{d},{m},{n},{_fmt(sigma)},{';'.join(repr(v) for v in theta)},"
            f"{_fmt(budget_bits)},{trials},{seed}")
    try:
        theta_vec = _theta_vector(theta, d)
        sigma_or_1 = sigma if sigma is not None else 1.0
        designs = build_designs(design_kind, m, n, d, seed) if fam.uses_designs else None
        spec = fam.spec(theta_vec, sigma_or_1, designs)
        with np.errstate(all="raise", under="ignore"):  # an overflow raises, not warns
            report = proto.estimate_risk(protocol, spec, trials, seed, m=m, n=n,
                                         budget_bits=budget_bits)
        s2 = sigma_or_1 ** 2 if fam.uses_sigma else 1.0
        central = bnd.centralized_rate(fam.rate, d, m, n, s2)
        lmax2, lmin2 = design_eigenbounds(designs) if designs else (None, None)
        bits = report.bits_mean
        query = bnd.RateQuery(d=d, m=m, n=n, sigma2=s2, budget_total=bits,
                              budgets_per_machine=(bits / m,) * m,
                              lambda_max2=lmax2, lambda_min2=lmin2)
        bound = FORMULAS[proto.PROTOCOLS[protocol].bound or fam.bound](query)
        if not all(map(math.isfinite, (report.mse_mean, report.mse_stderr, central))):
            raise InvalidArgumentError("the risk or the centralized rate is not finite")
        return (f"{base},{report.protocol_kind},{report.mse_mean!r},"
                f"{report.mse_stderr!r},{bits!r},{report.bits_max},"
                f"{report.flagged_trials},{central!r},{bound.formula_id},"
                f"{bound.value!r},")
    except (InvalidArgumentError, ConfigError, DegenerateDesignError,
            np.linalg.LinAlgError, OverflowError, FloatingPointError) as err:
        return f"{base},,,,,,,,,,{_error_cell(err)}"


def run_simulate(config: dict, gnuplot_hints: bool = False):
    """The CSV lines of a simulate run on a parse_config dict: the header,
    then one row per grid point. Raises ConfigError on a bad config; a grid
    point that fails gets a row error."""
    protocol = _single(config, "protocol")
    if protocol not in proto.PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}")
    family = _single(config, "family")
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; choices: {tuple(FAMILIES)}")
    design_kind = _single(config, "design", default="orthogonal")
    if design_kind not in DESIGN_KINDS:
        raise ConfigError(f"unknown design {design_kind!r}; choices: {DESIGN_KINDS}")
    trials = _single(config, "trials", cast=int)
    if trials < 2:
        raise ConfigError("trials must be >= 2")
    if trials > proto.CHUNK_VALUES:
        raise ConfigError(f"trials = {trials} is above the ceiling of {proto.CHUNK_VALUES}")
    seed = _single(config, "seed", default=0, cast=int)
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    thetas = _grid(config, "theta", _parse_theta)
    if thetas == [None]:
        thetas = [(0.0,)]
    ds = _grid(config, "d", int)
    ms = _grid(config, "m", int)
    ns = _grid(config, "n", int)
    sigmas = _grid(config, "sigma", _finite)
    budgets = _grid(config, "budget_bits", int)
    known = set(GRID_KEYS) | {"protocol", "family", "design", "trials", "seed"}
    for key in config:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    if None in ds or None in ms or None in ns:
        raise ConfigError("d, m and n are required")
    if min(ds + ms + ns) < 1:
        raise ConfigError("d, m and n must be >= 1")
    if max(ms) > MAX_MACHINES:
        raise ConfigError(f"m = {max(ms)} is above the ceiling of {MAX_MACHINES} machines")
    if max(ms) * max(ds) * max(ns) > proto.CHUNK_VALUES:
        raise ConfigError(f"m * d * n = {max(ms) * max(ds) * max(ns)} values per trial "
                          f"is above the ceiling of {proto.CHUNK_VALUES}")

    rows = [_simulate_point(protocol, family, design_kind, theta, d, m, n, sigma,
                            budget_bits, trials, seed)
            for d in ds for m in ms for n in ns for sigma in sigmas
            for budget_bits in budgets for theta in thetas]
    lines = [SIMULATE_HEADER] + rows
    if gnuplot_hints:
        lines.append("# gnuplot: set datafile separator ','")
        lines.append("# gnuplot: set logscale xy")
        lines.append("# gnuplot: plot 'out.csv' every ::1 using 5:13 with linespoints"
                     " title 'mse vs m'")
    return lines


# ---------------------------------------------------------------------------
# bounds tables

def _parse_bounds_row(cells: dict) -> bnd.RateResult:
    def fnum(key, default=None):
        text = cells.get(key, "")
        if text == "":
            return default
        return float(text)

    def inum(key, default=None):
        text = cells.get(key, "")
        if text == "":
            return default
        return int(text)

    formula = cells.get("formula", "")
    constants = {"c": fnum("c", 1.0), "c1": fnum("c1", 1.0), "c2": fnum("c2", 1.0)}
    d, m, n = inum("d", 1), inum("m", 1), inum("n", 1)
    budgets = cells.get("budgets_per_machine", "")
    per_machine = tuple(float(x) for x in budgets.split(";")) if budgets else None
    query = bnd.RateQuery(d=d, m=m, n=n, sigma2=fnum("sigma2", 1.0),
                          budget_total=fnum("budget_total"),
                          budgets_per_machine=per_machine,
                          lambda_max2=fnum("lambda_max2"),
                          lambda_min2=fnum("lambda_min2"),
                          constants=constants)
    if formula == "centralized":
        value = bnd.centralized_rate(cells.get("family", ""), d, m, n,
                                     fnum("sigma2", 1.0))
        return bnd.RateResult(value, "centralized", {"value": value})
    if formula == "pstar":
        value = bnd.tail_pstar(fnum("a", 0.0), fnum("delta", 0.0), n,
                               math.sqrt(fnum("sigma2", 1.0)))
        return bnd.RateResult(value, "pstar", {"value": value})
    if formula not in FORMULAS:
        raise InvalidArgumentError(f"unknown formula id {formula!r}")
    return FORMULAS[formula](query)


def run_bounds(text: str):
    """The CSV lines of a bounds run on a query file's text: the header,
    then one row per query. Raises ConfigError on an empty file or a bad
    header; a query that fails gets a row error."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError("empty query file")
    header = [h.strip() for h in lines[0].split(",")]
    unknown = [h for h in header if h not in BOUNDS_INPUT_COLUMNS]
    if "formula" not in header or unknown:
        raise ConfigError(f"bad query header; unknown columns {unknown}")
    out = [",".join(BOUNDS_INPUT_COLUMNS) + ",value,terms,error"]
    for raw in lines[1:]:
        cells_list = [c.strip() for c in raw.split(",")]
        if len(cells_list) != len(header):
            echo = ",".join([""] * len(BOUNDS_INPUT_COLUMNS))
            out.append(f"{echo},,,row has {len(cells_list)} cells; expected {len(header)}")
            continue
        cells = dict(zip(header, cells_list))
        echo = ",".join(cells.get(col, "") for col in BOUNDS_INPUT_COLUMNS)
        try:
            result = _parse_bounds_row(cells)
            terms = ";".join(f"{k}={result.terms[k]!r}" for k in sorted(result.terms))
            out.append(f"{echo},{result.value!r},{terms},")
        except (ValueError, InvalidArgumentError, OverflowError) as err:
            out.append(f"{echo},,,{_error_cell(err)}")
    return out


def run_verify(suites, count: int, seed: int):
    """(CSV lines, violation count) of `count` instances of each named suite."""
    rows = [SUITE_CSV_HEADER]
    violations = 0
    for name in suites:
        for row in run_suite(name, count, seed):
            rows.append(row.csv_row())
            violations += int(not row.holds)
    return rows, violations


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    """Run the command line argv (sys.argv[1:] when None); returns the exit
    code, printing a usage or config error to stderr."""
    parser = argparse.ArgumentParser(prog="distest")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a protocol risk sweep")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--gnuplot-hints", action="store_true")

    p_bnd = sub.add_parser("bounds", help="evaluate bound formulas from a query CSV")
    p_bnd.add_argument("queries")
    p_bnd.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run inequality verification suites")
    p_ver.add_argument("suites")
    p_ver.add_argument("--count", type=int, default=1000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            with open(args.config, encoding="utf-8") as fh:
                config = parse_config(fh.read())
            lines = run_simulate(config, gnuplot_hints=args.gnuplot_hints)
            _emit(lines, args.out)
            return 0
        if args.command == "bounds":
            with open(args.queries, encoding="utf-8") as fh:
                text = fh.read()
            _emit(run_bounds(text), args.out)
            return 0
        suites = [s.strip() for s in args.suites.split(",") if s.strip()]
        for name in suites:
            check_suite(name)
        if not suites:
            raise InvalidArgumentError("no suites named")
        rows, violations = run_verify(suites, args.count, args.seed)
        _emit(rows, args.out)
        return 1 if violations else 0
    except (ConfigError, InvalidArgumentError, OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
