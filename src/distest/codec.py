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

from .errors import InvalidArgumentError

ROUND_DOWN = "round_down"
ROUND_NEAREST = "round_nearest"

INDEPENDENT = "independent"
INTERACTIVE = "interactive"


def ceil_log2(k: int) -> int:
    """Smallest b >= 0 with 2**b >= k, by exact integer arithmetic (k >= 1)."""
    if k < 1:
        raise InvalidArgumentError(f"ceil_log2 needs k >= 1, got {k}")
    return (int(k) - 1).bit_length()


@dataclass(frozen=True)
class BitString:
    """A fixed-length bit sequence.

    Stored as (value, length) with the first bit most significant, so an
    empty string is (0, 0) and concatenation is a shift-or.
    """

    value: int = 0
    length: int = 0

    def __post_init__(self):
        if self.length < 0:
            raise InvalidArgumentError("negative BitString length")
        if not 0 <= self.value < (1 << self.length):
            raise InvalidArgumentError("BitString value does not fit in length bits")

    def __len__(self) -> int:
        return self.length

    def bits(self) -> tuple:
        """Bits as a tuple of 0/1 ints, most significant first."""
        return tuple((self.value >> (self.length - 1 - i)) & 1 for i in range(self.length))

    @classmethod
    def from_bits(cls, bits) -> "BitString":
        value = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise InvalidArgumentError(f"bit symbol must be 0 or 1, got {b!r}")
            value = (value << 1) | b
            n += 1
        return cls(value, n)

    def __add__(self, other: "BitString") -> "BitString":
        return BitString((self.value << other.length) | other.value,
                         self.length + other.length)

    def to_hex(self) -> str:
        """Hex text, MSB first, zero-padded to cover the full bit length."""
        if self.length == 0:
            return ""
        ndigits = (self.length + 3) // 4
        return format(self.value, f"0{ndigits}x")

    @classmethod
    def from_hex(cls, text: str, length: int) -> "BitString":
        value = int(text, 16) if text else 0
        return cls(value, length)


def pack_fields(values, width: int) -> BitString:
    """Concatenate fixed-width unsigned fields into one BitString."""
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


def unpack_fields(payload: BitString, width: int) -> tuple:
    """Inverse of pack_fields; payload length must be a multiple of width."""
    if width <= 0:
        if payload.length:
            raise InvalidArgumentError("cannot unpack nonempty payload with width 0")
        return ()
    if payload.length % width:
        raise InvalidArgumentError("payload length is not a multiple of the field width")
    count = payload.length // width
    mask = (1 << width) - 1
    return tuple((payload.value >> (width * (count - 1 - i))) & mask for i in range(count))


@dataclass(frozen=True)
class Message:
    machine: int
    round: int
    payload: BitString

    def __post_init__(self):
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

    def total_bits(self) -> int:
        return transcript_total_bits(self)


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
        if self.bits < 0:
            raise InvalidArgumentError("bit count must be >= 0")
        if self.bits > 62:  # quantize's floor(frac * 2**bits) must fit in int64
            raise InvalidArgumentError("bit count must be <= 62")
        if self.mode not in (ROUND_DOWN, ROUND_NEAREST):
            raise InvalidArgumentError(f"unknown rounding mode {self.mode!r}")

    @property
    def cells(self) -> int:
        return 1 << self.bits

    @property
    def cell_width(self) -> float:
        return (self.hi - self.lo) / self.cells


def bits_for_accuracy(lo: float, hi: float, eps: float) -> int:
    """Bits needed so the cell width of a grid on [lo, hi] is <= eps.

    Returns ceil(log2((hi - lo) / eps)) clamped below at 0.
    """
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
    """Cell index of value on the grid; out-of-range values clamp first.

    Accepts a scalar or ndarray; returns an int or int64 ndarray to match.
    """
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("cannot quantize non-finite values")
    clamped = np.clip(arr, spec.lo, spec.hi)
    idx = np.floor((clamped - spec.lo) / (spec.hi - spec.lo) * spec.cells).astype(np.int64)
    idx = np.clip(idx, 0, spec.cells - 1)
    if np.isscalar(value) or arr.ndim == 0:
        return int(idx)
    return idx


def dequantize(index, spec: QuantizerSpec):
    """Representative value of a cell: left edge (round_down) or midpoint."""
    idx = np.asarray(index)
    if np.any(idx < 0) or np.any(idx >= spec.cells):
        raise InvalidArgumentError(f"cell index out of range [0, {spec.cells})")
    offset = 0.0 if spec.mode == ROUND_DOWN else 0.5
    val = spec.lo + (spec.hi - spec.lo) * (idx + offset) / spec.cells
    if np.isscalar(index) or idx.ndim == 0:
        return float(val)
    return val


def encode_improvement_message(indices, values, d: int, value_bits: int) -> BitString:
    """Pack an improvement list: the index fields first, then the value fields.

    The payload is exactly len(indices) * (ceil_log2(d) + value_bits) bits and
    decodes losslessly with decode_improvement_message.
    """
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
    head = BitString(payload.value >> (count * value_bits), count * index_bits)
    tail = BitString(payload.value & ((1 << (count * value_bits)) - 1), count * value_bits)
    if index_bits == 0:
        indices = (0,) * count  # d == 1: the only coordinate is implicit
    else:
        indices = unpack_fields(head, index_bits)
    if value_bits == 0:
        values = (0,) * count
    else:
        values = unpack_fields(tail, value_bits)
    return indices, values
