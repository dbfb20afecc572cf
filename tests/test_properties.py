"""Property tests: codec round trips, quantizer laws, bit accounting, the
pmf entry checks of the information quantities, the stack form of the
inequality checks, and the guards on extreme CLI inputs.

The examples are derandomized, so every run checks the same inputs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distest import cli, codec, sweeps
from distest import infotheory as it
from distest.codec import (QuantizerSpec, bits_for_accuracy, ceil_log2,
                           decode_improvement_message, dequantize,
                           encode_improvement_message, pack_fields, quantize,
                           transcript_total_bits, unpack_fields)
from distest.designs import build_designs
from distest.errors import ConfigError, InvalidArgumentError
from distest.families import (TAG_PROTOCOL, BoundedProductSpec,
                              GaussianLocationSpec, RegressionSpec,
                              UniformLocationSpec, draw_trials, machine_streams)
from distest.protocols import (PROTOCOLS, gauss_qavg_message_bits,
                               regress_avg_message_bits, run_chunks, run_trial,
                               uniform_min_value_bits)

PROPERTY = settings(derandomize=True, database=None, deadline=None)
MODES = st.sampled_from([codec.ROUND_DOWN, codec.ROUND_NEAREST])


@PROPERTY
@given(width=st.integers(1, 40), data=st.data())
def test_pack_unpack_round_trip(width, data):
    values = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=12))
    payload = pack_fields(values, width)
    assert payload.length == width * len(values)
    assert unpack_fields(payload, width, len(values)) == tuple(values)


@PROPERTY
@given(d=st.integers(1, 70), value_bits=st.integers(0, 30), data=st.data())
def test_improvement_message_round_trip(d, value_bits, data):
    indices = sorted(data.draw(st.sets(st.integers(0, d - 1), max_size=12)))
    values = data.draw(st.lists(st.integers(0, (1 << value_bits) - 1),
                                min_size=len(indices), max_size=len(indices)))
    payload = encode_improvement_message(indices, values, d, value_bits)
    assert payload.length == len(indices) * (ceil_log2(d) + value_bits)
    if ceil_log2(d) + value_bits:   # otherwise every list encodes to no bits
        assert decode_improvement_message(payload, d, value_bits) == (
            tuple(indices), tuple(values))


@PROPERTY
@given(lo=st.floats(-1e6, 1e6), width=st.floats(1e-3, 1e6), bits=st.integers(0, 40),
       mode=MODES, a=st.floats(-1e7, 1e7), b=st.floats(-1e7, 1e7))
def test_quantizer_clamps_and_is_monotone(lo, width, bits, mode, a, b):
    spec = QuantizerSpec(lo, lo + width, bits, mode)
    ia, ib = quantize(a, spec), quantize(b, spec)
    assert 0 <= ia < spec.cells
    if a <= spec.lo:
        assert ia == 0
    if a >= spec.hi:
        assert ia == spec.cells - 1
    if a <= b:
        assert ia <= ib
    assert spec.lo <= dequantize(ia, spec) <= spec.hi


def pmfs(size: int):
    """Normalized nonnegative vectors of `size` entries, zeros included."""
    weights = st.lists(st.floats(0.0, 10.0), min_size=size, max_size=size)
    return weights.filter(lambda w: sum(w) > 0).map(lambda w: np.array(w) / sum(w))


# each way to break a pmf by an amount x in (0, 1]
SPOILERS = {
    "negative": lambda p, x: np.concatenate([[-x], p[1:]]),
    "over_one": lambda p, x: p * (1.0 + x),
    "under_one": lambda p, x: p * (1.0 - x),
    "nan": lambda p, x: np.concatenate([[math.nan], p[1:]]),
    "inf": lambda p, x: np.concatenate([[math.inf], p[1:]]),
    "wrong_rank": lambda p, x: p[None],
    "empty": lambda p, x: p[:0],
}


@PROPERTY
@given(n=st.integers(1, 8), data=st.data())
def test_pmf_quantities_check_their_input_and_stay_in_range(n, data):
    p = data.draw(pmfs(n))
    assert it.entropy(p) >= 0
    kind = data.draw(st.sampled_from(sorted(SPOILERS)))
    bad = SPOILERS[kind](p, data.draw(st.floats(1e-9, 1.0)))
    with pytest.raises(InvalidArgumentError):
        it.entropy(bad)


@PROPERTY
@given(n=st.integers(1, 8), data=st.data())
def test_two_point_test_error_is_le_cams(n, data):
    # at d = 1, t = 0 the exact Hamming test is the Bayes test between two
    # pmfs, whose error is (1 - TV) / 2; the Pinsker report's lhs is TV^2.
    # Both are exact up to float rounding, hence the 1e-12 margins.
    pair = 0.5 * np.array([data.draw(pmfs(n)), data.draw(pmfs(n))])
    dist = math.sqrt(it.check_pinsker_consequence(pair)["lhs"])
    assert 0 <= dist <= 1 + 1e-12
    err = sweeps.exact_min_hamming_test_error(pair, 1, 0)
    assert -1e-12 <= err <= 0.5 + 1e-12
    assert err == pytest.approx(0.5 * (1 - dist), abs=1e-12)


def _stochastic_stack(rng, size, shape, zeros):
    """`size` random tables of `shape`, stochastic over the last axis, with
    about a `zeros` share of zero entries (never a whole row)."""
    raw = rng.uniform(size=(size,) + shape) * (rng.uniform(size=(size,) + shape) >= zeros)
    raw[..., 0] += 0.05
    return raw / raw.sum(axis=-1, keepdims=True)


def _report_row(report):
    """A report's numbers as one float array, a nested report flattened."""
    if not isinstance(report, dict):
        return np.atleast_1d(np.asarray(report, dtype=float))
    return np.hstack([_report_row(v) for v in report.values() if v is not None])


# each stacked body on a dict of stacks; `v` is the instances' v_dim
STACKED_BODIES = {
    "likelihood_ratio": lambda s, v: it._max_log_ratio(s["channel"]),
    "dpi_independent": lambda s, v: it._dpi_independent(v, s["channel"], s["quantizer"]),
    "dpi_map": lambda s, v: it._dpi_independent(v, s["channel"], s["map"]),
    "dpi_truncated": lambda s, v: it._dpi_truncated(v, s["channel"], s["quantizer"],
                                                    s["keep"]),
    "tensorization": lambda s, v: it._tensorization(v, [s["channel"], s["channel2"]],
                                                    [s["quantizer"], s["map"]]),
    "pinsker": lambda s, v: it._pinsker_consequence(s["pair"]),
    "chaining": lambda s, v: it._information_chaining(s["model"]),
    "fano": lambda s, v: sweeps._hamming_test_errors(
        it._product_channel(s["channel"], 2)[0] / 4, 2, 1),
}


@settings(PROPERTY, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 5),
       zeros=st.sampled_from([0.0, 0.4]))
def test_an_instance_gets_the_same_floats_in_a_stack_as_alone(seed, size, zeros):
    rng = np.random.default_rng(seed)
    k, v_dim, n_out = (int(x) for x in rng.integers((2, 1, 1), (4, 3, 4)))
    maps = rng.integers(0, n_out, size=(size, k ** v_dim))
    maps[:, 0] = n_out - 1                     # every map of the stack is n_out wide
    keep = rng.uniform(size=(size, k)) < 0.7
    keep[:, 0] = True
    stacks = {"channel": _stochastic_stack(rng, size, (2, k), zeros),
              "channel2": _stochastic_stack(rng, size, (2, k), zeros),
              "quantizer": _stochastic_stack(rng, size, (k ** v_dim, n_out), zeros),
              # a deterministic map as its 0/1 table: zero cells in every row
              "map": np.eye(n_out)[maps], "keep": keep,
              "pair": 0.5 * _stochastic_stack(rng, size, (2, k + 1), zeros),
              "model": np.stack([sweeps.random_chain_model(rng) for _ in range(size)])}
    for name, body in STACKED_BODIES.items():
        together = body(stacks, v_dim)
        for i in range(size):
            alone = body({key: t[i:i + 1] for key, t in stacks.items()}, v_dim)
            assert np.array_equal(_report_row(alone[0]), _report_row(together[i]),
                                  equal_nan=True), (name, i)


@PROPERTY
@given(m=st.integers(1, 1 << 12), n=st.integers(1, 1 << 12), data=st.data())
def test_interactive_grid_cells_quantize_back_to_themselves(m, n, data):
    # the batched interactive-minimum kernel relies on this for its state
    spec = QuantizerSpec(-2.0, 2.0, uniform_min_value_bits(m, n), codec.ROUND_DOWN)
    j = data.draw(st.integers(0, spec.cells - 1))
    assert quantize(dequantize(j, spec), spec) == j


@PROPERTY
@given(lo=st.floats(-1e6, 1e6), width=st.floats(1e-6, 1e6), eps=st.floats(1e-9, 1e6))
def test_bits_for_accuracy_delivers_eps(lo, width, eps):
    hi = lo + width
    b = bits_for_accuracy(lo, hi, eps)
    assert QuantizerSpec(lo, hi, b).cell_width <= eps


@settings(PROPERTY, max_examples=40)
@given(d=st.integers(1, 6), m=st.integers(1, 12), n=st.integers(1, 12),
       seed=st.integers(0, 1 << 16))
def test_kernel_bits_match_transcripts_and_formulas(d, m, n, seed):
    trials = 4

    def kernel_bits(protocol, spec, n):
        proto_gens = (machine_streams(seed, m, TAG_PROTOCOL)
                      if PROTOCOLS[protocol].randomized(spec) else None)
        _, bits, _ = next(run_chunks(protocol, spec, n, [trials],
                                     machine_streams(seed, m), proto_gens))
        return bits, draw_trials(spec, machine_streams(seed, m), n, trials)

    spec = GaussianLocationSpec(np.zeros(d), 0.9)
    bits, blocks = kernel_bits("gauss_qavg", spec, n)
    ref = [transcript_total_bits(run_trial("gauss_qavg", spec, blocks[t])[1])
           for t in range(trials)]
    assert list(bits) == ref == [m * gauss_qavg_message_bits(d, 0.9, m, n)] * trials

    spec = BoundedProductSpec(np.zeros(d), "two_point")
    bits, blocks = kernel_bits("onebit", spec, 1)
    uniforms = np.stack([g.random((trials, d))
                         for g in machine_streams(seed, m, TAG_PROTOCOL)], axis=1)
    ref = [transcript_total_bits(run_trial("onebit", spec, blocks[t], uniforms[t])[1])
           for t in range(trials)]
    assert list(bits) == ref == [m * d] * trials

    spec = UniformLocationSpec(np.zeros(d))
    bits, blocks = kernel_bits("uniform_min", spec, n)
    vbits = uniform_min_value_bits(m, n)
    for t in range(trials):
        _, transcript, _ = run_trial("uniform_min", spec, blocks[t])
        improvements = sum(len(decode_improvement_message(msg.payload, d, vbits)[0])
                           for msg in transcript.messages[1:])
        assert bits[t] == transcript_total_bits(transcript) == (
            d * vbits + improvements * (ceil_log2(d) + vbits))

    rows = max(n, d)
    spec = RegressionSpec(build_designs("orthogonal", m, rows, d, seed), np.zeros(d), 1.0)
    bits, blocks = kernel_bits("regress_avg", spec, rows)
    ref = [transcript_total_bits(run_trial("regress_avg", spec, blocks[t])[1])
           for t in range(trials)]
    assert list(bits) == ref == [m * regress_avg_message_bits(d, m, rows)] * trials


# Extreme cells for the bounds guard: empty, non-finite, negative, 0, huge.
EXTREME = ["", "nan", "inf", "-inf", "-1", "0", "1e308"]


@st.composite
def bounds_query(draw):
    """One bounds query row: a valid query with up to three numeric cells
    replaced by extreme ones."""
    m = draw(st.integers(1, 4))
    row = {"formula": draw(st.sampled_from([*cli.FORMULAS, "centralized", "pstar"])),
           "family": draw(st.sampled_from(["gaussian", "bounded", "uniform", "regression"])),
           "d": str(draw(st.integers(1, 8))), "m": str(m),
           "n": str(draw(st.integers(1, 4))), "sigma2": "1.5",
           "budget_total": "16", "budgets_per_machine": ";".join(["4"] * m),
           "lambda_max2": "1.5", "lambda_min2": "0.5", "c": "", "c1": "", "c2": "",
           "a": "40", "delta": "0.1"}
    for col in draw(st.lists(st.sampled_from(cli.BOUNDS_INPUT_COLUMNS[2:]), max_size=3)):
        cell = draw(st.sampled_from(EXTREME))
        row[col] = f"{cell};4" if cell and col == "budgets_per_machine" else cell
    return row


@settings(PROPERTY, max_examples=100)
@given(rows=st.lists(bounds_query(), min_size=1, max_size=12))
def test_bounds_rows_are_finite_and_nonnegative_or_errors(rows):
    cols = cli.BOUNDS_INPUT_COLUMNS
    text = "\n".join([",".join(cols)] + [",".join(r[c] for c in cols) for r in rows])
    out = cli.run_bounds(text)
    assert len(out) == 1 + len(rows)
    for row, line in zip(rows, out[1:]):
        cells = line.split(",")
        if cells[-1]:
            continue
        # a and delta are read by pstar alone
        read = [c for c in cols[2:] if row["formula"] == "pstar" or c not in ("a", "delta")]
        assert all(math.isfinite(float(x)) for c in read for x in row[c].split(";") if x), line
        assert 0 <= float(cells[len(cols)]) < math.inf, line


# Extreme cells for the simulate guard. The finite ones can reach a row;
# a non-finite or non-integer cell, or a size below 1, is a config error.
SIMULATE_EXTREME = ["nan", "inf", "-inf", "-1", "0", "1e200", "1e308"]


def assert_finite_or_error(config):
    """run_simulate raises ConfigError or gives rows whose numeric cells are
    finite unless the row's error column is set."""
    try:
        lines = cli.run_simulate(config)
    except ConfigError:
        return
    header = cli.SIMULATE_HEADER.split(",")
    text = {"protocol", "family", "design", "protocol_kind", "bound_formula", "error"}
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(header), line
        if cells[-1]:
            continue
        for col, cell in zip(header, cells):
            if col not in text:
                assert all(math.isfinite(float(x)) for x in cell.split(";") if x), line


@pytest.mark.parametrize("family", cli.FAMILIES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(PROPERTY, max_examples=5)
@given(data=st.data())
def test_simulate_rows_are_finite_or_errors(protocol, family, data):
    def grid(*values):
        return data.draw(st.lists(st.sampled_from(values), min_size=1, max_size=2,
                                  unique=True))
    config = {"protocol": [protocol], "family": [family], "trials": ["2"],
              "seed": [str(data.draw(st.integers(0, 3)))],
              **{key: [str(data.draw(st.integers(1, 3)))] for key in ("d", "m", "n")},
              "sigma": grid("1.5", "-1", "0", "1e200", "1e308"),
              "theta": grid("0.2", "-1", "0", "1e200", "1e308"),
              "budget_bits": grid("3", "-1", "0")}
    assert_finite_or_error(config)
    key = data.draw(st.sampled_from(["sigma", "theta", "budget_bits", "d", "m", "n"]))
    assert_finite_or_error({**config, key: [data.draw(st.sampled_from(SIMULATE_EXTREME))]})
