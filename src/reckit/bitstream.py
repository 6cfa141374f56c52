"""Bit-exact serialization of codewords.

Wire format (MSB-first within each byte, final byte zero-padded):

    gamma(n)        floor(log2 n) zero bits, then the binary digits of n
    delta(n)        gamma(bit_length(n)), then the low bit_length(n)-1 bits
    heap unit       delta(H) of the heap index H: gamma(D), then the low
                    D-1 bits of H, D its depth (D <= 62, the length cap)
    arrival unit    delta(K) of the 1-based arrival index K (K < 2^64,
                    the length cap 64)
    codeword unit   the payload in D bits, D the block's budget (D <= 62)
    message frame   gamma(mode), gamma(variant), then the body:
                      mode 1 (exact per symbol): gamma(count + 1), count
                        heap or arrival units
                      mode 2 (block tied): gamma(D), gamma(count + 1),
                        count codeword units
                    (gamma cannot carry 0, hence the +1 on count)
    message         its frames (one per block of a block vector), then 0
                    to 7 zero pad bits to the end of the byte
    variant tags    1=AS_STAR 2=AD_STAR 3=PFR 4=DAD_STAR 5=MRC

``coders.CODERS`` holds each coder's tag and unit layout, and
``coders.Unit`` implements the unit layouts: it checks, prices and
writes one unit and reads a frame's payloads. This module owns the bit
codes and the frame: ``MessageFrame`` checks a frame when it is built,
and ``read_frame`` and ``read_message`` return only what it admits.
``frame_head`` states a frame's header, its gammas side by side as one
(bits, width); ``write_frame``, the one frame writer and the mirror of
``read_frame``, writes that header and then bare payloads unchecked, for
a caller that vouches for them. ``write_message`` writes a
``MessageFrame`` through it, and the block codec's encode writes its
searches' codewords through it with no object per unit or frame.
``read_frame`` parses a header, and ``match_block_frames`` compares a
whole block message against the headers its model implies, which is how
the block codec's decode reads what its encode wrote. ``_HEADS`` is the
one table of frame layouts: the reader walks it, and the writer and
``frame_head`` read it through its inverse.

Reading past the end of a stream raises MalformedMessageError, which is
how truncation is detected; pad bits are zero and can never start a
well-formed gamma. A decoder of a whole message refuses data after it
with ``BitReader.check_end``: it ends on zero pad bits in its last byte.

``read_frame`` walks a frame in one pass and returns its fields bare;
``read_message`` is that walk with the payloads made ``Code`` objects,
each with the frame's budget, in a ``MessageFrame``. A caller that wants
only the payloads, as the block codec's decode does when a message is not
the one its model implies, reads through ``read_frame`` and builds no
object per unit or frame. ``BitReader.read``
takes n fields of one kind per call: gammas, deltas under a cap on their
length field, or fixed-width words. The header takes two calls (three in
a block frame) and the units one. A refused field is not consumed and the
fields before it stay consumed; a budget field that ``coders.is_budget``
refuses alone is read and then refused.

Each field is cut from one window of at most 17 bytes: the cap of 64
zeros bounds a gamma at 129 bits, plus up to 7 bits of offset into the
first byte. A delta (at most 13 + 63 bits) and a codeword (at most 62
bits) fit as well. The window is what the last field left over, or, when
that is too short, a new slice of the message from the field's first
bit. ``int.bit_length`` counts a gamma's zero run and one shift takes
each value. No read materialises more of the message than one window, so
the cost of a field does not grow with the message. The matcher keeps the
same rule at a frame's scale: it converts each frame, in slices of at
most ``_RUN`` codeword bits, once, and never shifts an int the size of
the message.
"""

from __future__ import annotations

from functools import lru_cache

from .coders import CODERS, Code, Variant, check_budget, is_budget
from .errors import DomainError, Frozen, InvalidCodeError, MalformedMessageError

MODE_EXACT = "exact_per_symbol"
MODE_BLOCK = "block_tied"
_MODE_TAGS = {MODE_EXACT: 1, MODE_BLOCK: 2}
# (mode tag, variant tag) of every frame layout the wire admits
_HEADS = {
    (_MODE_TAGS[mode], spec.tag): (mode, variant, spec.unit)
    for variant, spec in CODERS.items()
    for mode in _MODE_TAGS if spec.fixed_width == (mode == MODE_BLOCK)
}
_TAGS = {(mode, variant): (*tags, unit) for tags, (mode, variant, unit) in _HEADS.items()}
# A gamma spans at most 129 bits (64 zeros and 65 digits), 17 bytes from any bit offset
_WINDOW = 17
# The longest run of codewords ``match_block_frames`` cuts from one int
_RUN = 512
_from_bytes = int.from_bytes  # a bound alias skips a ~0.1 us attribute lookup per read


def _gamma_width(n: int) -> int:
    """gamma(n) is n itself in 2 * bit_length(n) - 1 bits (its zero run is
    n's own leading zeros): that width, refusing n below 1."""
    if n < 1:
        raise DomainError(f"gamma codes need n >= 1, got {n}")
    return 2 * n.bit_length() - 1


def _ends_in_pad(data: bytes, pos: int) -> bool:
    """Whether ``data`` ends on its pad at bit ``pos``: under 8 bits, all zero."""
    left = (len(data) << 3) - pos
    return left < 8 and not (left and data[-1] & ((1 << left) - 1))


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
        self.write_bits(n, _gamma_width(n))

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

    __slots__ = ("_data", "_pos", "_nbits", "_window", "_avail")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._nbits = 8 * len(data)
        self._window = self._avail = 0  # the next _avail bits, what is left of the last window

    @property
    def bits_left(self) -> int:
        return self._nbits - self._pos

    def read(self, n: int, width: int | None = None, max_length: int | None = None) -> list[int]:
        """``n`` gammas; or, given ``max_length``, ``n`` deltas whose length
        field is at most ``max_length`` (<= 64); or, given ``width``, ``n``
        words of ``width`` bits. Each field is cut from one window: what is
        left of the last one, or a new one that starts at the field's first
        bit and spans ``_WINDOW`` bytes (more for a word of over 129 bits)."""
        if width is not None and (width < 0 or max_length is not None):
            raise DomainError(f"read takes a width >= 0 or a max_length, got {width}, {max_length}")
        pos = self._pos
        window = self._window
        avail = self._avail
        cut_at = -1  # where this call last cut a window
        out = []
        try:
            for _ in range(n):
                while True:
                    if width is None:
                        zeros = avail - window.bit_length()  # at least the gamma's zero run
                        if zeros > 64:
                            raise MalformedMessageError("gamma prefix exceeds 64 zeros")
                        end = 2 * zeros + 1
                        if end <= avail and max_length is not None:  # a delta's length field
                            length = window >> (avail - end)
                            if length > max_length:
                                raise MalformedMessageError(
                                    f"delta length field {length} exceeds {max_length} bits")
                            end += length - 1
                    else:
                        end = width
                    if end <= avail:
                        break
                    if cut_at == pos:  # a new window holds no more
                        raise MalformedMessageError("bitstream truncated")
                    cut_at = pos
                    start = pos >> 3
                    chunk = self._data[start:start + (
                        _WINDOW if width is None or width <= 129 else (width + 14) >> 3)]
                    avail = (len(chunk) << 3) - (pos & 7)
                    window = _from_bytes(chunk, "big") & ((1 << avail) - 1)
                avail -= end
                value = window >> avail
                window ^= value << avail
                pos += end
                if max_length is not None:
                    top = 1 << (length - 1)
                    value = top | value & (top - 1)
                out.append(value)
        finally:  # the fields read so far stay consumed
            self._pos = pos
            self._window = window
            self._avail = avail
        return out

    def read_bits(self, width: int) -> int:
        return self.read(1, width)[0]

    def read_elias_gamma(self) -> int:
        return self.read(1)[0]

    def read_elias_delta(self, max_length: int = 64) -> int:
        return self.read(1, None, max_length)[0]

    def check_end(self) -> None:
        """Refuse a whole byte after the read position, or a pad bit of 1."""
        if not _ends_in_pad(self._data, self._pos):
            raise MalformedMessageError(
                f"{self._nbits - self._pos} bits after the last frame are not zero padding")


class MessageFrame(Frozen):
    """A self-delimiting message: mode, variant, and the codewords.

    Exact mode stores one unit per symbol (each self-sized); block mode
    stores one shared budget and fixed-width codewords. This is the one
    place a frame is checked, so a frame that constructs writes, and reads
    back equal: an unknown mode, a budget ``check_budget`` refuses in a
    block frame or any budget in an exact one is a ``DomainError``; a
    (mode, variant) with no layout, a code of another variant or with a
    budget other than the block's is an ``InvalidCodeError``.
    """

    __slots__ = _fields = ("mode", "variant", "codes", "budget")

    def __init__(self, mode: str, variant: Variant, codes: tuple[Code, ...],
                 budget: int | None = None) -> None:
        if mode not in _MODE_TAGS:
            raise DomainError(f"unknown frame mode {mode!r}")
        if (mode, variant) not in _TAGS:
            raise InvalidCodeError(f"{variant} cannot appear in a {mode} frame")
        codes = tuple(codes)
        if any(code.variant is not variant for code in codes):
            raise InvalidCodeError("frame variant does not match its codes")
        if mode == MODE_BLOCK:
            check_budget(budget)
            if any(code.budget != budget for code in codes):
                raise InvalidCodeError(f"a code's budget differs from the block's {budget}")
        elif budget is not None:
            raise DomainError(f"an exact frame carries no budget, got {budget!r}")
        self._store(mode, variant, codes, budget)

    @property
    def symbol_count(self) -> int:
        return len(self.codes)


_new = object.__new__


@lru_cache(maxsize=256, typed=True)  # a block codec states a few shapes over and over
def frame_head(mode: str, variant: Variant, budget: int | None, count: int) -> tuple[int, int]:
    """(bits, width): the header of a frame of ``count`` units, the one
    statement of its layout. Its fields, gamma(mode tag), gamma(variant
    tag), gamma(budget) in a block frame and gamma(count + 1), sit side by
    side, each refused below 1 by ``_gamma_width``."""
    mode_tag, variant_tag, _ = _TAGS[mode, variant]
    fields = ((mode_tag, variant_tag, budget, count + 1) if mode == MODE_BLOCK
              else (mode_tag, variant_tag, count + 1))
    bits = width = 0
    for n in fields:
        w = _gamma_width(n)
        bits = bits << w | n
        width += w
    return bits, width


def write_frame(writer: BitWriter, mode: str, variant: Variant, budget: int | None,
                payloads: list[int]) -> None:
    """Write one frame, the mirror of ``read_frame``: its header
    (``frame_head``) in one call, then each payload through its coder's
    ``Unit``. It writes unchecked: the caller vouches for the frame
    (``write_message`` through ``MessageFrame``, the block codec through its
    search and ``check_budget``), and only ``BitWriter.write_bits`` still
    refuses a codeword wider than its budget."""
    writer.write_bits(*frame_head(mode, variant, budget, len(payloads)))
    write = _TAGS[mode, variant][2].write
    for payload in payloads:
        write(writer, payload, budget)


def write_message(frame: MessageFrame, writer: BitWriter | None = None) -> BitWriter:
    """Write ``frame``, which ``MessageFrame`` checked, through ``write_frame``."""
    w = writer or BitWriter()
    payloads = [code.payload for code in frame.codes]
    write_frame(w, frame.mode, frame.variant, frame.budget, payloads)
    return w


def read_frame(reader: BitReader) -> tuple[str, Variant, int | None, list[int]]:
    """Walk one frame: its header gammas, then its units' payloads through
    its coder's ``Unit``. Returns (mode, variant, budget, payloads), the
    budget None in an exact frame and the payloads bare ints. A refused
    field is not consumed, save a budget field ``is_budget`` refuses, which
    is read and then refused."""
    mode_tag, variant_tag = reader.read(2)
    head = _HEADS.get((mode_tag, variant_tag))
    if head is None:
        raise MalformedMessageError(
            f"no frame layout has mode tag {mode_tag} and variant tag {variant_tag}")
    mode, variant, unit = head
    budget = None
    if mode == MODE_BLOCK:
        (budget,) = reader.read(1)
        if not is_budget(budget):
            raise MalformedMessageError(f"budget field {budget} exceeds packable range")
    (count,) = reader.read(1)
    return mode, variant, budget, unit.read(reader, budget, count - 1)


def match_block_frames(data: bytes, variant: Variant,
                       shapes: list[tuple[int, int]]) -> list[int] | None:
    """The codewords of ``data`` when it is exactly one block frame of
    ``variant`` per (budget, count) of ``shapes``, in order, each its
    header ``frame_head(MODE_BLOCK, variant, budget, count)`` and then
    ``count`` codewords of ``budget`` bits, and the frames are followed by
    fewer than 8 zero pad bits; in every other case None.

    Gamma codes are prefix-free, so the bits equal that header exactly when
    ``read_frame`` would return (MODE_BLOCK, variant, budget, count), and
    the pad rule is ``BitReader.check_end``'s: the match accepts what a walk
    of the frames with those checks accepts, and returns its payloads. A
    budget ``is_budget`` refuses, which no frame carries, matches nothing.

    One linear pass: each slice of a frame, its header and at most
    ``_RUN`` bits of codewords, is one ``int.from_bytes`` of the bytes that
    cover it, and the fields are cut from that int with shifts."""
    nbits = len(data) << 3
    pos = 0
    words: list[int] = []
    append = words.append
    for budget, count in shapes:
        if not is_budget(budget):
            return None
        head, width = frame_head(MODE_BLOCK, variant, budget, count)
        mask = (1 << budget) - 1
        per = _RUN // budget  # codewords a slice
        while True:
            n = count if count <= per else per
            body = n * budget
            end = pos + width + body
            if end > nbits:
                return None
            run = _from_bytes(data[pos >> 3:(end + 7) >> 3], "big") >> (-end & 7)
            if run >> body & ((1 << width) - 1) != head:
                return None
            for shift in range(body - budget, -1, -budget):
                append(run >> shift & mask)
            pos = end
            count -= n
            if not count:
                break
            head = width = 0  # the header is in the first slice alone
    return words if _ends_in_pad(data, pos) else None


def read_message(reader: BitReader) -> MessageFrame:
    """Read one frame as a ``MessageFrame``: ``read_frame``'s walk, with
    its refusals and reader positions, and its payloads made codes with the
    frame's budget. The walk returns only what ``MessageFrame`` and
    ``Unit.check`` admit, so neither checks again."""
    mode, variant, budget, payloads = read_frame(reader)
    codes, store = [], Code._store
    for payload in payloads:
        code = _new(Code)
        store(code, variant, payload, budget)
        codes.append(code)
    frame = _new(MessageFrame)
    frame._store(mode, variant, tuple(codes), budget)
    return frame
