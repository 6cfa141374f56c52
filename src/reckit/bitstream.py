"""Bit-exact serialization of codewords.

Wire format (MSB-first within each byte, final byte zero-padded):

    gamma(n)        floor(log2 n) zero bits, then the binary digits of n
    delta(n)        gamma(bit_length(n)), then the low bit_length(n)-1 bits
    exact unit      gamma(D), then the low D-1 bits of the heap index
                    (the index's leading 1 bit is implied by D)
    pfr unit        delta(K) for the 1-based arrival index
    block body      gamma(D), gamma(len + 1), then len codewords of D bits
                    each (gamma cannot carry 0, hence the +1 on length)
    message frame   gamma(mode), gamma(variant), then the body:
                      mode 1 (exact per symbol): gamma(count), count units
                      mode 2 (block tied): one block body
    variant tags    1=AS_STAR 2=AD_STAR 3=PFR 4=DAD_STAR 5=MRC
                    (``coders.CODERS`` holds each coder's tag and unit layout)

Reading past the end of a stream raises MalformedMessageError, which is
how truncation is detected; pad bits are zero and can never start a
well-formed gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coders import CODERS, Code, Unit, Variant, check_budget
from .errors import DomainError, InvalidCodeError, MalformedMessageError
from .tree import MAX_DEPTH

MODE_EXACT = "exact_per_symbol"
MODE_BLOCK = "block_tied"
_MODE_TAGS = {MODE_EXACT: 1, MODE_BLOCK: 2}


class BitWriter:
    """Accumulates bits MSB-first; getvalue() zero-pads the final byte."""

    __slots__ = ("_buf", "_acc", "_nacc")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0
        self._nacc = 0

    def write_bits(self, value: int, width: int) -> None:
        if width < 0:
            raise DomainError(f"width must be >= 0, got {width}")
        if value < 0 or (width < value.bit_length()):
            raise DomainError(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | value
        self._nacc += width
        while self._nacc >= 8:
            self._nacc -= 8
            self._buf.append((self._acc >> self._nacc) & 0xFF)
        self._acc &= (1 << self._nacc) - 1

    def write_bit(self, bit: int) -> None:
        self.write_bits(bit, 1)

    def write_elias_gamma(self, n: int) -> None:
        if n < 1:
            raise DomainError(f"gamma codes need n >= 1, got {n}")
        length = n.bit_length()
        self.write_bits(0, length - 1)
        self.write_bits(n, length)

    def write_elias_delta(self, n: int) -> None:
        if n < 1:
            raise DomainError(f"delta codes need n >= 1, got {n}")
        length = n.bit_length()
        self.write_elias_gamma(length)
        self.write_bits(n - (1 << (length - 1)), length - 1)

    @property
    def bit_length(self) -> int:
        return 8 * len(self._buf) + self._nacc

    def getvalue(self) -> bytes:
        out = bytearray(self._buf)
        if self._nacc:
            out.append((self._acc << (8 - self._nacc)) & 0xFF)
        return bytes(out)


class BitReader:
    """Reads bits MSB-first; running out of bits is a malformed message."""

    __slots__ = ("_data", "_pos", "_nbits")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._nbits = 8 * len(data)

    @property
    def bits_left(self) -> int:
        return self._nbits - self._pos

    def read_bits(self, width: int) -> int:
        if width < 0:
            raise DomainError(f"width must be >= 0, got {width}")
        end = self._pos + width
        if end > self._nbits:
            raise MalformedMessageError("bitstream truncated")
        # the bytes the span touches, as one integer, less the bits past its end
        stop = (end + 7) >> 3
        span = int.from_bytes(self._data[self._pos >> 3:stop], "big")
        self._pos = end
        return (span >> ((stop << 3) - end)) & ((1 << width) - 1)

    def read_bit(self) -> int:
        return self.read_bits(1)

    def read_elias_gamma(self) -> int:
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
            if zeros > 64:
                raise MalformedMessageError("gamma prefix exceeds 64 zeros")
        return (1 << zeros) | self.read_bits(zeros)

    def read_elias_delta(self) -> int:
        length = self.read_elias_gamma()
        if length > 64:
            raise MalformedMessageError("delta length field exceeds 64 bits")
        return (1 << (length - 1)) | self.read_bits(length - 1)


def pack_exact(code: Code, writer: BitWriter | None = None) -> BitWriter:
    """gamma(depth) then the heap index without its leading bit."""
    if CODERS[code.variant].unit is not Unit.HEAP_INDEX:
        raise InvalidCodeError(f"pack_exact takes heap-coded variants, got {code.variant}")
    w = writer or BitWriter()
    depth = code.depth_or_budget
    w.write_elias_gamma(depth)
    w.write_bits(code.payload - (1 << (depth - 1)), depth - 1)
    return w


def unpack_exact(reader: BitReader, variant: Variant = Variant.AD_STAR) -> Code:
    depth = reader.read_elias_gamma()
    if depth > MAX_DEPTH:
        raise MalformedMessageError(f"depth field {depth} exceeds packable range")
    index = (1 << (depth - 1)) | reader.read_bits(depth - 1)
    return Code(variant, depth, index)


def pack_pfr(code: Code, writer: BitWriter | None = None) -> BitWriter:
    """delta(K): the arrival index has a larger dynamic range than depths."""
    if CODERS[code.variant].unit is not Unit.ARRIVAL_INDEX:
        raise InvalidCodeError(f"pack_pfr takes PFR codes, got {code.variant}")
    w = writer or BitWriter()
    w.write_elias_delta(code.payload)
    return w


def unpack_pfr(reader: BitReader, variant: Variant = Variant.PFR) -> Code:
    k = reader.read_elias_delta()
    return Code(variant, k, k)


def pack_block(
    codes: list[Code] | tuple[Code, ...],
    budget: int,
    writer: BitWriter | None = None,
) -> BitWriter:
    """gamma(budget), gamma(len + 1), then fixed-width codewords.

    One header serves the whole block; per-symbol overhead is zero. An
    empty block is legal and writes the header only.
    """
    check_budget(budget)
    w = writer or BitWriter()
    w.write_elias_gamma(budget)
    w.write_elias_gamma(len(codes) + 1)
    for code in codes:
        if not CODERS[code.variant].fixed_width:
            raise InvalidCodeError(
                f"pack_block takes fixed-width variants, got {code.variant}"
            )
        if code.depth_or_budget != budget:
            raise InvalidCodeError(
                f"code budget {code.depth_or_budget} != block budget {budget}"
            )
        w.write_bits(code.payload, budget)
    return w


def unpack_block(
    reader: BitReader, variant: Variant = Variant.DAD_STAR
) -> tuple[int, list[Code]]:
    budget = reader.read_elias_gamma()
    if budget > MAX_DEPTH:
        raise MalformedMessageError(f"budget field {budget} exceeds packable range")
    count = reader.read_elias_gamma() - 1
    codes = [
        Code(variant, budget, reader.read_bits(budget)) for _ in range(count)
    ]
    return budget, codes


# pack and unpack of the units an exact-per-symbol frame can carry
_EXACT_UNITS = {
    Unit.HEAP_INDEX: (pack_exact, unpack_exact),
    Unit.ARRIVAL_INDEX: (pack_pfr, unpack_pfr),
}


@dataclass(frozen=True)
class MessageFrame:
    """A self-delimiting message: mode, variant, and the codewords.

    Exact mode stores one unit per symbol (each self-sized); block mode
    stores one shared budget and fixed-width codewords.
    """

    mode: str
    variant: Variant
    codes: tuple[Code, ...]
    budget: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODE_TAGS:
            raise DomainError(f"unknown frame mode {self.mode!r}")
        if self.mode == MODE_BLOCK and self.budget is None:
            raise DomainError("block frames need a budget")
        object.__setattr__(self, "codes", tuple(self.codes))

    @property
    def symbol_count(self) -> int:
        return len(self.codes)


def write_message(frame: MessageFrame, writer: BitWriter | None = None) -> BitWriter:
    spec = CODERS[frame.variant]
    if spec.fixed_width != (frame.mode == MODE_BLOCK):
        raise InvalidCodeError(f"{frame.variant} cannot appear in a {frame.mode} frame")
    if any(code.variant is not frame.variant for code in frame.codes):
        raise InvalidCodeError("frame variant does not match its codes")
    w = writer or BitWriter()
    w.write_elias_gamma(_MODE_TAGS[frame.mode])
    w.write_elias_gamma(spec.tag)
    if spec.fixed_width:
        pack_block(frame.codes, frame.budget, w)
    else:
        pack = _EXACT_UNITS[spec.unit][0]
        w.write_elias_gamma(len(frame.codes) + 1)
        for code in frame.codes:
            pack(code, w)
    return w


def read_message(reader: BitReader) -> MessageFrame:
    mode_tag = reader.read_elias_gamma()
    variant_tag = reader.read_elias_gamma()
    variant = next((v for v, spec in CODERS.items() if spec.tag == variant_tag), None)
    if variant is None:
        raise MalformedMessageError(f"unknown variant tag {variant_tag}")
    mode = next((m for m, tag in _MODE_TAGS.items() if tag == mode_tag), None)
    if mode is None:
        raise MalformedMessageError(f"unknown mode tag {mode_tag}")
    spec = CODERS[variant]
    if spec.fixed_width != (mode == MODE_BLOCK):
        raise MalformedMessageError(f"{variant} cannot appear in a {mode} frame")
    if spec.fixed_width:
        budget, codes = unpack_block(reader, variant)
        return MessageFrame(mode, variant, tuple(codes), budget)
    unpack = _EXACT_UNITS[spec.unit][1]
    count = reader.read_elias_gamma() - 1
    codes = tuple(unpack(reader, variant) for _ in range(count))
    return MessageFrame(mode, variant, codes)
