"""Bit-exact fixed-point quantization and message/transcript accounting.

Everything here is a pure function on immutable values. Quantizer cells are
uniform over [lo, hi) with floor indexing; out-of-range inputs clamp to the
range instead of raising, which keeps every protocol total. Bit counts come
from integer ceilings of log2 expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, check_integer

ROUND_DOWN = "round_down"
ROUND_NEAREST = "round_nearest"

INDEPENDENT = "independent"
INTERACTIVE = "interactive"


def ceil_log2(k: int) -> int:
    """Smallest b >= 0 with 2**b >= k, by exact integer arithmetic (an
    integer k >= 1)."""
    check_integer(k, "ceil_log2's k")
    if k < 1:
        raise InvalidArgumentError(f"ceil_log2 needs k >= 1, got {k}")
    return (int(k) - 1).bit_length()


@dataclass(frozen=True)
class BitString:
    """A fixed-length bit sequence as (value, length), the first bit most
    significant: the empty string is (0, 0) and concatenation a shift-or."""

    value: int = 0
    length: int = 0

    def __post_init__(self):
        check_integer(self.value, "BitString value")
        check_integer(self.length, "BitString length")
        if self.length < 0:
            raise InvalidArgumentError("negative BitString length")
        if not 0 <= self.value < (1 << self.length):
            raise InvalidArgumentError("BitString value does not fit in length bits")

    def __add__(self, other: "BitString") -> "BitString":
        return BitString((self.value << other.length) | other.value,
                         self.length + other.length)


def pack_fields(values, width: int) -> BitString:
    """Concatenate fixed-width unsigned fields into one BitString."""
    check_integer(width, "field width")
    if width < 0:
        raise InvalidArgumentError("field width must be >= 0")
    acc = 0
    n = 0
    cap = 1 << width
    for v in values:
        v = int(v)
        if not 0 <= v < cap:
            raise InvalidArgumentError(f"field value {v} does not fit in {width} bits")
        acc = (acc << width) | v
        n += width
    return BitString(acc, n)


def unpack_fields(payload: BitString, width: int, count: int) -> tuple:
    """Inverse of pack_fields: the count width-bit fields of payload, which
    must be exactly count * width bits long. Zero-width fields are zeros."""
    check_integer(width, "field width")
    check_integer(count, "field count")
    if width < 0 or count < 0 or payload.length != width * count:
        raise InvalidArgumentError(f"a {payload.length}-bit payload is not {count} "
                                   f"fields of {width} bits")
    mask = (1 << width) - 1
    return tuple((payload.value >> (width * (count - 1 - i))) & mask for i in range(count))


@dataclass(frozen=True)
class Message:
    """One message: its 1-based sender and round, and its payload."""

    machine: int
    round: int
    payload: BitString

    def __post_init__(self):
        check_integer(self.machine, "machine index")
        check_integer(self.round, "round")
        if self.machine < 1:
            raise InvalidArgumentError("machine index is 1-based")
        if self.round < 1:
            raise InvalidArgumentError("round is 1-based")


@dataclass(frozen=True)
class Transcript:
    """Ordered, bit-accounted record of the messages in one protocol run."""

    messages: tuple
    protocol_kind: str

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        if self.protocol_kind not in (INDEPENDENT, INTERACTIVE):
            raise InvalidArgumentError(f"unknown protocol kind {self.protocol_kind!r}")
        if self.protocol_kind == INDEPENDENT:
            seen = set()
            for msg in self.messages:
                if msg.round != 1:
                    raise InvalidArgumentError("independent transcripts are single-round")
                if msg.machine in seen:
                    raise InvalidArgumentError(
                        f"machine {msg.machine} sends more than one independent message")
                seen.add(msg.machine)


def transcript_total_bits(transcript: Transcript) -> int:
    """Total communication cost: the sum of all payload lengths."""
    return sum(msg.payload.length for msg in transcript.messages)


@dataclass(frozen=True)
class QuantizerSpec:
    """Uniform fixed-point grid of 2**bits cells over [lo, hi)."""

    lo: float
    hi: float
    bits: int
    mode: str = ROUND_NEAREST

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidArgumentError("quantizer endpoints must be finite")
        if not self.lo < self.hi:
            raise InvalidArgumentError("quantizer needs lo < hi")
        check_integer(self.bits, "bit count")
        if self.bits < 0:
            raise InvalidArgumentError("bit count must be >= 0")
        if self.bits > 62:  # quantize's floor(frac * 2**bits) must fit in int64
            raise InvalidArgumentError("bit count must be <= 62")
        if self.mode not in (ROUND_DOWN, ROUND_NEAREST):
            raise InvalidArgumentError(f"unknown rounding mode {self.mode!r}")

    @property
    def cells(self) -> int:
        return 1 << self.bits


def bits_for_accuracy(lo: float, hi: float, eps: float) -> int:
    """Bits needed so the cell width of a grid on [lo, hi] is <= eps:
    ceil(log2((hi - lo) / eps)), clamped below at 0."""
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(eps)):
        raise InvalidArgumentError("bits_for_accuracy needs finite inputs")
    if not lo < hi:
        raise InvalidArgumentError("bits_for_accuracy needs lo < hi")
    if eps <= 0:
        raise InvalidArgumentError("accuracy must be positive")
    width = hi - lo
    ratio = width / eps
    if ratio <= 1.0:
        return 0
    b = max(0, math.ceil(math.log2(ratio) - 1e-12))
    # float-safety: the returned count must actually deliver the accuracy
    while width / (1 << b) > eps:
        b += 1
    return b


def quantize(value, spec: QuantizerSpec):
    """Cell index of value, a scalar or array, on the grid: an int or an
    int64 array, floor((clip(value) - lo) / (hi - lo) * cells), its steps
    applied in that order to one new float array. Raises
    InvalidArgumentError on a non-finite value."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("cannot quantize non-finite values")
    frac = np.clip(arr, spec.lo, spec.hi, out=np.empty_like(arr))
    frac -= spec.lo
    frac /= spec.hi - spec.lo
    frac *= spec.cells
    np.floor(frac, out=frac)
    idx = frac.astype(np.int64)
    np.clip(idx, 0, spec.cells - 1, out=idx)
    if np.isscalar(value) or arr.ndim == 0:
        return int(idx)
    return idx


def dequantize(index, spec: QuantizerSpec):
    """Representative value of a cell, (index + offset) * (hi - lo) / cells
    + lo in that order, offset 0 (round_down, the left edge) or 1/2 (the
    midpoint), on one new float array."""
    idx = np.asarray(index)
    if np.any(idx < 0) or np.any(idx >= spec.cells):
        raise InvalidArgumentError(f"cell index out of range [0, {spec.cells})")
    offset = 0.0 if spec.mode == ROUND_DOWN else 0.5
    val = idx + offset
    val *= spec.hi - spec.lo
    val /= spec.cells
    val += spec.lo
    if np.isscalar(index) or idx.ndim == 0:
        return float(val)
    return val


def encode_improvement_message(indices, values, d: int, value_bits: int) -> BitString:
    """Pack an improvement list, the index fields first, then the value
    fields: len(indices) * (ceil_log2(d) + value_bits) bits."""
    indices = [int(j) for j in indices]
    values = [int(v) for v in values]
    if len(indices) != len(values):
        raise InvalidArgumentError("index and value lists must have equal length")
    if d < 1:
        raise InvalidArgumentError("dimension must be >= 1")
    prev = -1
    for j in indices:
        if not 0 <= j < d:
            raise InvalidArgumentError(f"coordinate index {j} out of range [0, {d})")
        if j <= prev:
            raise InvalidArgumentError("coordinate indices must be strictly increasing")
        prev = j
    index_bits = ceil_log2(d)
    return pack_fields(indices, index_bits) + pack_fields(values, value_bits)


def decode_improvement_message(payload: BitString, d: int, value_bits: int):
    """Inverse of encode_improvement_message; returns (indices, values)."""
    if d < 1:
        raise InvalidArgumentError("dimension must be >= 1")
    index_bits = ceil_log2(d)
    per_entry = index_bits + value_bits
    if per_entry == 0:
        if payload.length:
            raise InvalidArgumentError("nonempty payload with zero-width entries")
        return (), ()
    if payload.length % per_entry:
        raise InvalidArgumentError("payload length inconsistent with entry width")
    count = payload.length // per_entry
    # at d == 1 the indices take no bits: the only coordinate is implicit
    head = BitString(payload.value >> (count * value_bits), count * index_bits)
    tail = BitString(payload.value & ((1 << (count * value_bits)) - 1), count * value_bits)
    return unpack_fields(head, index_bits, count), unpack_fields(tail, value_bits, count)
