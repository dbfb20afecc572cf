import warnings

import numpy as np
import pytest

from distest import codec
from distest.codec import (BitString, Message, QuantizerSpec, Transcript,
                           bits_for_accuracy, ceil_log2,
                           decode_improvement_message, dequantize,
                           encode_improvement_message, pack_fields, quantize,
                           transcript_total_bits, unpack_fields)
from distest.errors import InvalidArgumentError


class TestBitsForAccuracy:
    def test_unit_interval_log2n(self):
        assert bits_for_accuracy(0.0, 1.0, 1.0 / 1024) == 10

    def test_wide_interval_double_log(self):
        m, n = 4, 8
        assert bits_for_accuracy(-2.0, 2.0, 1.0 / (m * n) ** 2) == 12

    def test_single_cell(self):
        assert bits_for_accuracy(0.0, 1.0, 1.0) == 0
        assert bits_for_accuracy(0.0, 1.0, 5.0) == 0

    def test_monotone_in_eps_and_consistent(self):
        prev = None
        for eps in np.geomspace(2.0, 1e-6, 40):
            b = bits_for_accuracy(-1.0, 1.0, eps)
            assert 2.0 / 2**b <= eps
            if prev is not None:
                assert b >= prev
            prev = b

    def test_invalid(self):
        with pytest.raises(InvalidArgumentError):
            bits_for_accuracy(1.0, 0.0, 0.1)
        with pytest.raises(InvalidArgumentError):
            bits_for_accuracy(0.0, 1.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            bits_for_accuracy(0.0, float("inf"), 0.1)


class TestQuantizer:
    def test_left_edge(self):
        spec = QuantizerSpec(-1.0, 1.0, 4, codec.ROUND_DOWN)
        assert quantize(-1.0, spec) == 0

    def test_formula_example(self):
        spec = QuantizerSpec(-1.0, 1.0, 3, codec.ROUND_DOWN)
        assert quantize(0.3, spec) == 5

    def test_right_edge_clamps(self):
        spec = QuantizerSpec(-1.0, 1.0, 3, codec.ROUND_DOWN)
        assert quantize(1.0, spec) == 7
        assert quantize(250.0, spec) == 7
        assert quantize(-250.0, spec) == 0

    def test_dequantize_examples(self):
        spec = QuantizerSpec(-1.0, 1.0, 3, codec.ROUND_DOWN)
        assert dequantize(5, spec) == 0.25
        near = QuantizerSpec(-1.0, 1.0, 3, codec.ROUND_NEAREST)
        assert dequantize(0, near) == -1.0 + near.cell_width / 2

    def test_dequantize_range_check(self):
        spec = QuantizerSpec(0.0, 1.0, 2)
        with pytest.raises(InvalidArgumentError):
            dequantize(4, spec)
        with pytest.raises(InvalidArgumentError):
            dequantize(-1, spec)

    def test_non_finite_rejected(self):
        spec = QuantizerSpec(0.0, 1.0, 2)
        with pytest.raises(InvalidArgumentError):
            quantize(float("nan"), spec)

    def test_round_trip_error_bounds(self):
        # 1e4 random in-range values per mode; round_down error is one-sided
        rng = np.random.default_rng(42)
        values = rng.uniform(-3.0, 5.0, 10000)
        for bits in (1, 4, 9):
            down = QuantizerSpec(-3.0, 5.0, bits, codec.ROUND_DOWN)
            near = QuantizerSpec(-3.0, 5.0, bits, codec.ROUND_NEAREST)
            back_down = dequantize(quantize(values, down), down)
            back_near = dequantize(quantize(values, near), near)
            assert np.all(back_down <= values + 1e-12)
            assert np.all(np.abs(back_down - values) <= down.cell_width + 1e-12)
            assert np.all(np.abs(back_near - values) <= near.cell_width / 2 + 1e-12)

    def test_invalid_spec(self):
        with pytest.raises(InvalidArgumentError):
            QuantizerSpec(1.0, 1.0, 3)
        with pytest.raises(InvalidArgumentError):
            QuantizerSpec(0.0, 1.0, -1)
        with pytest.raises(InvalidArgumentError):
            QuantizerSpec(0.0, 1.0, 3, "round_up")

    def test_widest_grid_is_62_bits(self):
        # floor(frac * 2**bits) is cast to int64, which 2**63 overflows
        spec = QuantizerSpec(0.0, 1.0, 62)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert quantize(1.0, spec) == spec.cells - 1
            assert list(quantize(np.array([0.0, 1.0]), spec)) == [0, spec.cells - 1]
        with pytest.raises(InvalidArgumentError, match="<= 62"):
            QuantizerSpec(0.0, 1.0, 63)


class TestBitString:
    def test_empty(self):
        empty = BitString()
        assert len(empty) == 0
        assert empty.bits() == ()
        assert empty.to_hex() == ""

    def test_from_bits_round_trip(self):
        bs = BitString.from_bits([1, 0, 1, 1, 0])
        assert bs.value == 0b10110 and bs.length == 5
        assert bs.bits() == (1, 0, 1, 1, 0)

    def test_concat(self):
        a = BitString.from_bits([1, 0])
        b = BitString.from_bits([1, 1, 1])
        assert (a + b).bits() == (1, 0, 1, 1, 1)

    def test_hex_msb_first_padded(self):
        bs = BitString.from_bits([1, 0, 1, 1, 0])  # value 22, 5 bits -> 2 digits
        assert bs.to_hex() == "16"
        assert BitString.from_hex("16", 5) == bs

    def test_value_must_fit(self):
        with pytest.raises(InvalidArgumentError):
            BitString(4, 2)

    def test_pack_unpack_fields(self):
        bs = pack_fields([3, 0, 7], 3)
        assert bs.length == 9
        assert unpack_fields(bs, 3) == (3, 0, 7)
        with pytest.raises(InvalidArgumentError):
            pack_fields([8], 3)


class TestTranscript:
    def test_empty_total(self):
        t = Transcript((), codec.INDEPENDENT)
        assert transcript_total_bits(t) == 0

    def test_two_messages(self):
        t = Transcript((Message(1, 1, BitString(0, 3)),
                        Message(2, 1, BitString(0, 5))), codec.INDEPENDENT)
        assert transcript_total_bits(t) == 8

    def test_additive_under_concatenation(self):
        rng = np.random.default_rng(5)
        msgs = tuple(Message(i + 1, i + 1, BitString(0, int(rng.integers(0, 30))))
                     for i in range(12))
        whole = Transcript(msgs, codec.INTERACTIVE)
        left = Transcript(msgs[:5], codec.INTERACTIVE)
        right = Transcript(msgs[5:], codec.INTERACTIVE)
        assert transcript_total_bits(whole) == (
            transcript_total_bits(left) + transcript_total_bits(right))

    def test_independent_constraints(self):
        dup = (Message(1, 1, BitString(0, 1)), Message(1, 1, BitString(0, 1)))
        with pytest.raises(InvalidArgumentError):
            Transcript(dup, codec.INDEPENDENT)
        multi_round = (Message(1, 2, BitString(0, 1)),)
        with pytest.raises(InvalidArgumentError):
            Transcript(multi_round, codec.INDEPENDENT)
        # the same messages are fine interactively
        Transcript(dup, codec.INTERACTIVE)


class TestImprovementMessages:
    def test_empty_list(self):
        bs = encode_improvement_message([], [], 5, 12)
        assert bs.length == 0
        assert decode_improvement_message(bs, 5, 12) == ((), ())

    def test_bit_count_example(self):
        bs = encode_improvement_message([1, 3], [100, 4000], 5, 12)
        assert bs.length == 2 * ceil_log2(5) + 2 * 12 == 30

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.integers(1, 40))
            value_bits = int(rng.integers(1, 20))
            size = int(rng.integers(0, d + 1))
            idx = np.sort(rng.choice(d, size=size, replace=False))
            vals = rng.integers(0, 1 << value_bits, size=size)
            payload = encode_improvement_message(idx, vals, d, value_bits)
            assert payload.length == size * (ceil_log2(d) + value_bits)
            got_idx, got_vals = decode_improvement_message(payload, d, value_bits)
            assert got_idx == tuple(int(j) for j in idx)
            assert got_vals == tuple(int(v) for v in vals)

    def test_errors(self):
        with pytest.raises(InvalidArgumentError):
            encode_improvement_message([5], [0], 5, 4)  # index >= d
        with pytest.raises(InvalidArgumentError):
            encode_improvement_message([2, 1], [0, 0], 5, 4)  # not increasing
        with pytest.raises(InvalidArgumentError):
            encode_improvement_message([1], [0, 1], 5, 4)  # length mismatch
