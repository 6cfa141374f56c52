"""Bit-exact serialization of codewords.

Wire format (MSB-first within each byte, final byte zero-padded):

    gamma(n)        floor(log2 n) zero bits, then the binary digits of n
    delta(n)        gamma(bit_length(n)), then the low bit_length(n)-1 bits
    heap unit       gamma(D), then the low D-1 bits of the heap index
                    (the index's leading 1 bit is implied by D; D <= 62),
                    which is delta of the index
    arrival unit    delta(K) for the 1-based arrival index (K < 2^64)
    codeword unit   the payload in D bits, D the block's budget (D <= 62)
    message frame   gamma(mode), gamma(variant), then the body:
                      mode 1 (exact per symbol): gamma(count + 1), count
                        heap or arrival units
                      mode 2 (block tied): gamma(D), gamma(count + 1),
                        count codeword units
                    (gamma cannot carry 0, hence the +1 on count)
    variant tags    1=AS_STAR 2=AD_STAR 3=PFR 4=DAD_STAR 5=MRC

``coders.CODERS`` holds each coder's tag and unit layout, and
``coders.Unit`` implements the three unit layouts: it checks, prices,
writes and reads one unit. This module owns the bit codes and the frame.

Reading past the end of a stream raises MalformedMessageError, which is
how truncation is detected; pad bits are zero and can never start a
well-formed gamma. A refused read of bits, a gamma or a delta consumes
nothing.

A gamma is read from one window of at most 17 bytes: the cap of 64 zeros
bounds it at 129 bits, plus up to 7 bits of offset into the first byte.
``int.bit_length`` counts its zero run and one shift takes its value. A
delta, and so a heap or arrival unit, fits in the same window (at most
13 + 63 bits). No read materialises more of the message than that, so
the cost of a read does not grow with the message.
"""

from __future__ import annotations

from .coders import CODERS, Code, Variant, _read_code, check_budget
from .errors import DomainError, Frozen, InvalidCodeError, MalformedMessageError
from .tree import MAX_DEPTH

MODE_EXACT = "exact_per_symbol"
MODE_BLOCK = "block_tied"
_MODE_TAGS = {MODE_EXACT: 1, MODE_BLOCK: 2}
_MODE_OF_TAG = {tag: mode for mode, tag in _MODE_TAGS.items()}
_VARIANT_OF_TAG = {spec.tag: variant for variant, spec in CODERS.items()}
# A gamma spans at most 129 bits (64 zeros and 65 digits), 17 bytes from any bit offset
_WINDOW = 17
_from_bytes = int.from_bytes  # a bound alias skips a ~0.1 us attribute lookup per read
_set = object.__setattr__


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

    def write_elias_gamma(self, n: int) -> None:
        if n < 1:
            raise DomainError(f"gamma codes need n >= 1, got {n}")
        self.write_bits(n, 2 * n.bit_length() - 1)  # the zero run is n's own leading zeros

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

    def _gamma_window(self) -> tuple[int, int, int]:
        """The next bits, at most ``_WINDOW`` bytes' worth less the offset
        into the first, as (bits, their count, the end of the gamma they
        open). Refuses a gamma cut short or of over 64 zeros; nothing is
        consumed."""
        pos = self._pos
        chunk = self._data[pos >> 3:(pos >> 3) + _WINDOW]
        avail = (len(chunk) << 3) - (pos & 7)
        window = _from_bytes(chunk, "big") & ((1 << avail) - 1)
        zeros = avail - window.bit_length()
        end = 2 * zeros + 1
        if end > avail or zeros > 64:
            raise MalformedMessageError(
                "gamma prefix exceeds 64 zeros" if zeros > 64 else "bitstream truncated")
        return window, avail, end

    def read_elias_gamma(self) -> int:
        window, avail, end = self._gamma_window()
        self._pos += end
        return window >> (avail - end)

    def read_elias_delta(self, max_length: int = 64) -> int:
        """A delta code whose length field is at most ``max_length``
        (<= 64): gamma(length), then the value's low length - 1 bits."""
        window, avail, end = self._gamma_window()
        length = window >> (avail - end)
        if length > max_length:
            raise MalformedMessageError(f"delta length field {length} exceeds {max_length} bits")
        end += length - 1
        if end > avail:
            raise MalformedMessageError("bitstream truncated")
        self._pos += end
        top = 1 << (length - 1)
        return top | (window >> (avail - end)) & (top - 1)


class MessageFrame(Frozen):
    """A self-delimiting message: mode, variant, and the codewords.

    Exact mode stores one unit per symbol (each self-sized); block mode
    stores one shared budget and fixed-width codewords.
    """

    __slots__ = _fields = ("mode", "variant", "codes", "budget")

    def __init__(self, mode: str, variant: Variant, codes: tuple[Code, ...],
                 budget: int | None = None) -> None:
        if mode not in _MODE_TAGS:
            raise DomainError(f"unknown frame mode {mode!r}")
        if mode == MODE_BLOCK and budget is None:
            raise DomainError("block frames need a budget")
        _set(self, "mode", mode)  # one call a field: half the cost of _store, once a frame
        _set(self, "variant", variant)
        _set(self, "codes", tuple(codes))
        _set(self, "budget", budget)

    @property
    def symbol_count(self) -> int:
        return len(self.codes)


def write_message(frame: MessageFrame, writer: BitWriter | None = None) -> BitWriter:
    """Write ``frame``: its header, then each code through its coder's ``Unit``."""
    spec = CODERS[frame.variant]
    if spec.fixed_width != (frame.mode == MODE_BLOCK):
        raise InvalidCodeError(f"{frame.variant} cannot appear in a {frame.mode} frame")
    if any(code.variant is not frame.variant for code in frame.codes):
        raise InvalidCodeError("frame variant does not match its codes")
    if spec.fixed_width:
        check_budget(frame.budget)
        if any(code.depth_or_budget != frame.budget for code in frame.codes):
            raise InvalidCodeError(f"a code's budget differs from the block's {frame.budget}")
    w = writer or BitWriter()
    w.write_elias_gamma(_MODE_TAGS[frame.mode])
    w.write_elias_gamma(spec.tag)
    if spec.fixed_width:
        w.write_elias_gamma(frame.budget)
    w.write_elias_gamma(len(frame.codes) + 1)
    write = spec.unit.write
    for code in frame.codes:
        write(w, code.depth_or_budget, code.payload)
    return w


def read_message(reader: BitReader) -> MessageFrame:
    mode_tag = reader.read_elias_gamma()
    variant_tag = reader.read_elias_gamma()
    variant = _VARIANT_OF_TAG.get(variant_tag)
    if variant is None:
        raise MalformedMessageError(f"unknown variant tag {variant_tag}")
    mode = _MODE_OF_TAG.get(mode_tag)
    if mode is None:
        raise MalformedMessageError(f"unknown mode tag {mode_tag}")
    spec = CODERS[variant]
    if spec.fixed_width != (mode == MODE_BLOCK):
        raise MalformedMessageError(f"{variant} cannot appear in a {mode} frame")
    budget = None
    if spec.fixed_width:
        budget = reader.read_elias_gamma()
        if budget > MAX_DEPTH:
            raise MalformedMessageError(f"budget field {budget} exceeds packable range")
    count = reader.read_elias_gamma() - 1
    read = spec.unit.read
    codes = [_read_code(variant, *read(reader, budget)) for _ in range(count)]
    return MessageFrame(mode, variant, codes, budget)
