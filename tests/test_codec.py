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

    @pytest.mark.parametrize("mode", [codec.ROUND_DOWN, codec.ROUND_NEAREST])
    def test_in_place_steps_give_the_formula_bytes(self, mode):
        """quantize and dequantize apply the formula's steps in one buffer,
        in its order, so each value gets the bytes of the formula written as
        one expression; a read-only input is read, never written."""
        spec = QuantizerSpec(-2.0, 2.0, 11, mode)
        values = np.random.default_rng(3).uniform(-3.0, 3.0, (4, 50, 3))
        before = values.copy()
        values.flags.writeable = False
        lo, hi, cells = spec.lo, spec.hi, spec.cells
        want_idx = np.clip(np.floor((np.clip(values, lo, hi) - lo) / (hi - lo) * cells)
                           .astype(np.int64), 0, cells - 1)
        idx = quantize(values, spec)
        assert idx.dtype == np.int64 and idx.tobytes() == want_idx.tobytes()
        idx.flags.writeable = False
        offset = 0.0 if mode == codec.ROUND_DOWN else 0.5
        want = lo + (hi - lo) * (want_idx + offset) / cells
        assert dequantize(idx, spec).tobytes() == want.tobytes()
        assert values.tobytes() == before.tobytes() and idx.tobytes() == want_idx.tobytes()
        for scalar in (0.3, np.float64(0.3), np.array(0.3)):
            assert type(quantize(scalar, spec)) is int
        for cell in (5, np.int64(5), np.array(5)):
            assert type(dequantize(cell, spec)) is float

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
        assert len(BitString()) == 0

    def test_concat(self):
        assert BitString(0b10, 2) + BitString(0b111, 3) == BitString(0b10111, 5)

    def test_value_must_fit(self):
        with pytest.raises(InvalidArgumentError):
            BitString(4, 2)

    def test_pack_unpack_fields(self):
        bs = pack_fields([3, 0, 7], 3)
        assert bs.length == 9
        assert unpack_fields(bs, 3, 3) == (3, 0, 7)
        with pytest.raises(InvalidArgumentError):
            pack_fields([8], 3)
        for width, count in ((3, 2), (3, 4), (2, 4), (-1, 0), (3, -3)):
            with pytest.raises(InvalidArgumentError, match="is not"):
                unpack_fields(bs, width, count)

    def test_zero_width_fields_unpack_to_zeros(self):
        # a field on a one-cell grid takes no bits, and there are still count of them
        assert unpack_fields(pack_fields([0, 0, 0], 0), 0, 3) == (0, 0, 0)
        assert unpack_fields(BitString(), 0, 0) == ()
        with pytest.raises(InvalidArgumentError):
            unpack_fields(BitString(1, 1), 0, 3)


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
