"""Wire format tests.

Golden patterns for the universal codes come from the classic code
tables (gamma: 1->1, 2->010, 5->00101; delta: 5->01101), so any change
to the bit layout fails loudly here. The pack/unpack tests pin each unit
layout as ``coders.Unit`` writes and reads it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reckit.bitstream import (
    BitReader,
    BitWriter,
    MODE_BLOCK,
    MODE_EXACT,
    MessageFrame,
    frame_head,
    match_block_frames,
    read_frame,
    read_message,
    write_frame,
    write_message,
)
from reckit.coders import CODERS, Code, Unit, Variant, decode
from reckit.distributions import Gaussian, Uniform
from reckit.errors import DomainError, InvalidCodeError, MalformedMessageError, RecError
from reckit.tree import MAX_DEPTH

GAMMA_GOLDEN = {1: "1", 2: "010", 3: "011", 4: "00100", 5: "00101",
                6: "00110", 7: "00111", 8: "0001000", 9: "0001001"}
DELTA_GOLDEN = {1: "1", 2: "0100", 3: "0101", 4: "01100", 5: "01101",
                8: "00100000", 9: "00100001", 16: "001010000", 17: "001010001"}


def bits_of(writer: BitWriter) -> str:
    n = writer.bit_length
    data = writer.getvalue()
    return "".join(f"{byte:08b}" for byte in data)[:n]


def test_write_bits_msb_first():
    w = BitWriter()
    w.write_bits(0b1011, 4)
    w.write_bits(1, 1)
    assert bits_of(w) == "10111"
    assert w.getvalue() == bytes([0b10111000])  # zero padded


def test_write_bits_validation():
    w = BitWriter()
    with pytest.raises(DomainError):
        w.write_bits(4, 2)  # value does not fit
    with pytest.raises(DomainError):
        w.write_bits(-1, 3)
    with pytest.raises(DomainError, match="width must be >= 0"):
        w.write_bits(0, -1)


def test_elias_gamma_golden():
    for n, pattern in GAMMA_GOLDEN.items():
        w = BitWriter()
        w.write_elias_gamma(n)
        assert bits_of(w) == pattern, n


def test_elias_delta_golden():
    for n, pattern in DELTA_GOLDEN.items():
        w = BitWriter()
        w.write_elias_delta(n)
        assert bits_of(w) == pattern, n


def test_elias_roundtrip():
    w = BitWriter()
    values = [1, 2, 3, 7, 8, 100, 12345, (1 << 40) + 17]
    for v in values:
        w.write_elias_gamma(v)
        w.write_elias_delta(v)
    r = BitReader(w.getvalue())
    for v in values:
        assert r.read_elias_gamma() == v
        assert r.read_elias_delta() == v


def test_elias_gamma_rejects_zero():
    w = BitWriter()
    with pytest.raises(DomainError):
        w.write_elias_gamma(0)
    with pytest.raises(DomainError):
        w.write_elias_delta(0)


def test_reader_truncation():
    r = BitReader(b"")
    with pytest.raises(MalformedMessageError):
        r.read_bits(1)
    r = BitReader(bytes([0x00]))  # gamma prefix of zeros never terminates
    with pytest.raises(MalformedMessageError):
        r.read_elias_gamma()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.binary(max_size=24), widths=st.lists(st.integers(0, 70), max_size=12))
def test_read_bits_matches_bit_by_bit_reading(data, widths):
    bits = "".join(f"{byte:08b}" for byte in data)
    r = BitReader(data)
    pos = 0
    for width in widths:
        if pos + width > len(bits):
            with pytest.raises(MalformedMessageError):
                r.read_bits(width)
            assert r.bits_left == len(bits) - pos  # a refused read consumes nothing
            continue
        assert r.read_bits(width) == int(bits[pos:pos + width] or "0", 2)
        pos += width
    with pytest.raises(DomainError):
        r.read_bits(-1)
    with pytest.raises(DomainError):  # a word or a delta, not both
        r.read(1, 3, 64)


def reference_gamma(reader: BitReader) -> int:
    """The bit-at-a-time gamma reader that the windowed one replaced."""
    zeros = 0
    while reader.read_bits(1) == 0:
        zeros += 1
        if zeros > 64:
            raise MalformedMessageError("gamma prefix exceeds 64 zeros")
    return (1 << zeros) | reader.read_bits(zeros)


def reference_delta(reader: BitReader, max_length: int = 64) -> int:
    length = reference_gamma(reader)
    if length > max_length:
        raise MalformedMessageError(f"delta length field exceeds {max_length} bits")
    return (1 << (length - 1)) | reader.read_bits(length - 1)


# long zero runs reach the 64-zero cap and the window's far end
_GAMMA_BYTES = st.one_of(
    st.binary(max_size=24),
    st.builds(lambda zeros, tail: bytes(zeros) + tail, st.integers(0, 18), st.binary(max_size=20)),
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(data=_GAMMA_BYTES, start=st.integers(0, 200))
def test_windowed_codes_match_bit_by_bit_reading(data, start):
    """Each windowed read returns the reference's value and consumes the
    same bits, or refuses where the reference does and consumes nothing."""
    start = min(start, 8 * len(data))
    for read, reference in ((BitReader.read_elias_gamma, reference_gamma),
                            (BitReader.read_elias_delta, reference_delta)):
        want = BitReader(data)
        want.read_bits(start)
        try:
            value = reference(want)
        except MalformedMessageError:
            value = None
        got = BitReader(data)
        got.read_bits(start)
        if value is None:
            with pytest.raises(MalformedMessageError):
                read(got)
            assert got.bits_left == 8 * len(data) - start
        else:
            assert read(got) == value
            assert got.bits_left == want.bits_left


@pytest.mark.parametrize("offset", range(8))
def test_widest_gamma_at_every_offset(offset):
    """64 zeros read back from any bit offset; a 65th is refused, as is a
    delta length field above its cap."""
    for n in (1 << 64, (1 << 65) - 1):
        w = BitWriter()
        w.write_bits(0, offset)
        w.write_elias_gamma(n)
        r = BitReader(w.getvalue())
        r.read_bits(offset)
        assert r.read_elias_gamma() == n and r.bits_left < 8
    w = BitWriter()
    w.write_bits((1 << 70) - 1, offset + 65 + 70)  # 65 zeros from the offset, then ones
    for data in (bytes(20), w.getvalue()):
        r = BitReader(data)
        r.read_bits(offset)
        with pytest.raises(MalformedMessageError):
            r.read_elias_gamma()
        assert r.bits_left == 8 * len(data) - offset
    w = BitWriter()
    w.write_bits(0, offset)
    w.write_elias_delta(1 << 62)  # length 63
    w.write_bits(0, 8)
    r = BitReader(w.getvalue())
    r.read_bits(offset)
    with pytest.raises(MalformedMessageError):
        r.read_elias_delta(62)
    assert r.read_elias_delta() == 1 << 62


def _bit_string_read(bits: str, pos: int, kind: tuple) -> tuple[int, int]:
    """One field off a string of '0'/'1' at ``pos``: (value, new pos).
    ``kind`` is ("gamma",), ("delta", max_length) or ("word", width)."""
    if kind[0] == "word":
        if pos + kind[1] > len(bits):
            raise MalformedMessageError("bitstream truncated")
        return int(bits[pos:pos + kind[1]] or "0", 2), pos + kind[1]
    one = bits.find("1", pos)
    zeros = (len(bits) if one < 0 else one) - pos
    if zeros > 64 or pos + 2 * zeros + 1 > len(bits):
        raise MalformedMessageError("bad gamma")
    value, pos = int(bits[pos + zeros:pos + 2 * zeros + 1], 2), pos + 2 * zeros + 1
    if kind[0] == "gamma":
        return value, pos
    if value > kind[1] or pos + value - 1 > len(bits):
        raise MalformedMessageError("bad delta")
    return int("1" + bits[pos:pos + value - 1], 2), pos + value - 1


_KINDS = st.one_of(
    st.just(("gamma",)),
    st.tuples(st.just("delta"), st.sampled_from([1, 5, MAX_DEPTH, 64])),
    st.tuples(st.just("word"), st.integers(0, 70)),
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(data=_GAMMA_BYTES, reads=st.lists(st.tuples(_KINDS, st.integers(0, 12)), max_size=8))
def test_field_runs_match_a_bit_string(data, reads):
    """Runs of n fields of mixed kinds on one reader, each read through the
    window the last one left, equal field-by-field parsing of the bits: a
    refused field stops its run there and consumes nothing, the fields
    before it stay consumed, and the next run carries on from it."""
    bits = "".join(f"{byte:08b}" for byte in data)
    reader = BitReader(data)
    pos = 0
    for kind, n in reads:
        want, refused = [], False
        for _ in range(n):
            try:
                value, pos = _bit_string_read(bits, pos, kind)
            except MalformedMessageError:
                refused = True
                break
            want.append(value)
        width = kind[1] if kind[0] == "word" else None
        max_length = kind[1] if kind[0] == "delta" else None
        if refused:
            with pytest.raises(MalformedMessageError):
                reader.read(n, width, max_length)
        else:
            assert reader.read(n, width, max_length) == want
        assert reader.bits_left == len(bits) - pos


class _RecordingBytes(bytes):
    """Bytes that remember the widest slice taken of them."""

    widest = 0

    def __getitem__(self, key):
        got = super().__getitem__(key)
        if isinstance(key, slice):
            type(self).widest = max(type(self).widest, len(got))
        return got


def test_long_frames_roundtrip_through_fixed_windows():
    """An exact frame of 100 000 heap-index units and a block frame at the
    widest budget read back, and no read slices more than one window."""
    depths = [1 + (7 * i) % MAX_DEPTH for i in range(100_000)]
    codes = tuple(Code(Variant.AD_STAR, (1 << (d - 1)) | (i * 2654435761) % (1 << (d - 1)))
                  for i, d in enumerate(depths))
    frames = [
        MessageFrame(MODE_EXACT, Variant.AD_STAR, codes),
        MessageFrame(MODE_BLOCK, Variant.DAD_STAR,
                     tuple(Code(Variant.DAD_STAR, (1 << MAX_DEPTH) - 1 - i, budget=MAX_DEPTH)
                           for i in range(1000)), MAX_DEPTH),
    ]
    for frame in frames:
        data = _RecordingBytes(write_message(frame).getvalue())
        _RecordingBytes.widest = 0
        reader = BitReader(data)
        assert read_message(reader) == frame
        assert reader.bits_left < 8
        assert _RecordingBytes.widest <= 17


def unit_bits(code: Code) -> str:
    w = BitWriter()
    CODERS[code.variant].unit.write(w, code.payload, code.budget)
    return bits_of(w)


def unit_roundtrip(code: Code) -> Code:
    """``code`` written and read back by its unit, under its own budget."""
    w = BitWriter()
    unit = CODERS[code.variant].unit
    unit.write(w, code.payload, code.budget)
    (payload,) = unit.read(BitReader(w.getvalue()), code.budget, 1)
    return Code(code.variant, payload, budget=code.budget)


def test_pack_exact_golden():
    # depth 1, index 1: bare gamma(1)
    assert unit_bits(Code(Variant.AD_STAR, 1)) == "1"
    # depth 3, index 5: gamma(3) then the two trailing index bits
    assert unit_bits(Code(Variant.AD_STAR, 5)) == "01101"
    assert unit_bits(Code(Variant.AS_STAR, 3)) == "0101"


def test_pack_exact_roundtrip():
    for depth, index in [(1, 1), (2, 2), (2, 3), (5, 21), (20, (1 << 19) + 12345)]:
        code = Code(Variant.AD_STAR, index)
        assert unit_roundtrip(code) == code and code.depth_or_budget == depth


def test_pack_exact_rejects_fixed_width_variants():
    # an exact heap-index frame takes no codeword and no arrival index
    for other in (Code(Variant.DAD_STAR, 5, budget=3), Code(Variant.PFR, 3)):
        with pytest.raises(InvalidCodeError):
            write_message(MessageFrame(MODE_EXACT, Variant.AD_STAR, (other,)))


def test_pack_pfr_golden_and_roundtrip():
    assert unit_bits(Code(Variant.PFR, 5)) == DELTA_GOLDEN[5]
    for k in (1, 2, 3, 17, 1000, (1 << MAX_DEPTH) - 1):
        code = Code(Variant.PFR, k)
        assert unit_roundtrip(code) == code
        # a heap index and an arrival index are one delta code on the wire
        assert unit_bits(code) == unit_bits(Code(Variant.AD_STAR, k))
    # and differ in the cap on its length field alone: MAX_DEPTH for a heap
    # index, 64 for an arrival index
    for k in (1 << (MAX_DEPTH - 1), 1 << MAX_DEPTH, 1 << 63, (1 << 64) - 1):
        w = BitWriter()
        w.write_elias_delta(k)
        data = w.getvalue()
        assert Unit.ARRIVAL_INDEX.read(BitReader(data), None, 1) == [k]
        if k.bit_length() <= MAX_DEPTH:
            assert Unit.HEAP_INDEX.read(BitReader(data), None, 1) == [k]
        else:
            with pytest.raises(MalformedMessageError, match="exceeds 62 bits"):
                Unit.HEAP_INDEX.read(BitReader(data), None, 1)


def test_pack_block_layout():
    codes = (Code(Variant.DAD_STAR, 5, budget=3), Code(Variant.DAD_STAR, 0, budget=3))
    w = write_message(MessageFrame(MODE_BLOCK, Variant.DAD_STAR, codes, 3))
    # gamma(mode 2) + gamma(tag 4) + gamma(3) + gamma(3) + two 3-bit payloads
    assert bits_of(w) == "010" + "00100" + "011" + "011" + "101" + "000"
    assert [unit_bits(code) for code in codes] == ["101", "000"]
    assert unit_roundtrip(codes[0]) == codes[0]
    frame = read_message(BitReader(w.getvalue()))
    assert frame.budget == 3 and frame.codes == codes


def test_pack_block_empty():
    w = write_message(MessageFrame(MODE_BLOCK, Variant.DAD_STAR, (), 4))
    frame = read_message(BitReader(w.getvalue()))
    assert frame.budget == 4 and frame.codes == ()


def test_pack_block_validation():
    with pytest.raises(InvalidCodeError):  # an exact code in a block frame
        write_message(MessageFrame(MODE_BLOCK, Variant.DAD_STAR,
                                   (Code(Variant.AD_STAR, 5),), 3))
    with pytest.raises(InvalidCodeError):
        write_message(MessageFrame(MODE_BLOCK, Variant.DAD_STAR,
                                   (Code(Variant.DAD_STAR, 1, budget=2),), 3))  # budget mismatch
    with pytest.raises(DomainError):
        write_message(MessageFrame(MODE_BLOCK, Variant.DAD_STAR, (), 0))


def test_coder_table_wire_tags():
    # the tags and unit layouts are frozen parts of the wire format
    assert {v: (spec.tag, spec.unit) for v, spec in CODERS.items()} == {
        Variant.AS_STAR: (1, Unit.HEAP_INDEX),
        Variant.AD_STAR: (2, Unit.HEAP_INDEX),
        Variant.PFR: (3, Unit.ARRIVAL_INDEX),
        Variant.DAD_STAR: (4, Unit.CODEWORD),
        Variant.MRC: (5, Unit.CODEWORD),
    }
    # each layout reads back its own unit: heap index, arrival index, codeword
    for code, mode, budget in [
        (Code(Variant.AS_STAR, 9), MODE_EXACT, None),
        (Code(Variant.PFR, 7), MODE_EXACT, None),
        (Code(Variant.DAD_STAR, 0, budget=3), MODE_BLOCK, 3),
        (Code(Variant.MRC, 11, budget=4), MODE_BLOCK, 4),
    ]:
        data = write_message(MessageFrame(mode, code.variant, (code,), budget)).getvalue()
        frame = read_message(BitReader(data))
        assert (frame.mode, frame.variant, frame.codes) == (mode, code.variant, (code,))
        assert_write_frame_is_write_message(frame)


def assert_write_frame_is_write_message(frame: MessageFrame) -> None:
    """``write_frame`` over ``frame``'s bare payloads writes the bits that
    ``write_message`` writes, and ``read_frame`` returns those payloads and
    stops at the bit where ``read_message`` stops."""
    payloads = [code.payload for code in frame.codes]
    bare = BitWriter()
    write_frame(bare, frame.mode, frame.variant, frame.budget, payloads)
    framed = write_message(frame)
    assert (bare.getvalue(), bare.bit_length) == (framed.getvalue(), framed.bit_length)
    tail = b"\x5a"  # a next frame's bits must stay unread
    reader, reference = BitReader(bare.getvalue() + tail), BitReader(framed.getvalue() + tail)
    assert read_frame(reader) == (frame.mode, frame.variant, frame.budget, payloads)
    assert read_message(reference) == frame
    assert reader.bits_left == reference.bits_left


@pytest.mark.parametrize("variant,codes", [
    (Variant.AD_STAR, [Code(Variant.AD_STAR, 5), Code(Variant.AD_STAR, 1)]),
    (Variant.AS_STAR, [Code(Variant.AS_STAR, 2)]),
    (Variant.PFR, [Code(Variant.PFR, 4), Code(Variant.PFR, 1)]),
])
def test_message_exact_roundtrip(variant, codes):
    w = write_message(MessageFrame(MODE_EXACT, variant, tuple(codes)))
    frame = read_message(BitReader(w.getvalue()))
    assert frame.mode == MODE_EXACT
    assert frame.variant is variant
    assert list(frame.codes) == codes


@pytest.mark.parametrize("variant", [Variant.DAD_STAR, Variant.MRC])
def test_message_block_roundtrip(variant):
    codes = tuple(Code(variant, p, budget=5) for p in (0, 1, 31, 16))
    w = write_message(MessageFrame(MODE_BLOCK, variant, codes, budget=5))
    frame = read_message(BitReader(w.getvalue()))
    assert frame.mode == MODE_BLOCK
    assert frame.budget == 5
    assert frame.codes == codes


def test_message_empty_exact():
    w = write_message(MessageFrame(MODE_EXACT, Variant.AD_STAR, ()))
    frame = read_message(BitReader(w.getvalue()))
    assert frame.symbol_count == 0


def test_messages_concatenate():
    w = BitWriter()
    write_message(MessageFrame(MODE_EXACT, Variant.AD_STAR, (Code(Variant.AD_STAR, 5),)), w)
    mrc = Code(Variant.MRC, 3, budget=2)
    write_message(MessageFrame(MODE_BLOCK, Variant.MRC, (mrc,), budget=2), w)
    r = BitReader(w.getvalue())
    first = read_message(r)
    second = read_message(r)
    assert first.mode == MODE_EXACT and second.mode == MODE_BLOCK
    assert second.codes[0].payload == 3


def test_message_frame_validation():
    """``MessageFrame`` is the one place a frame is checked, so a frame that
    ``write_message`` could not write back equal never builds."""
    with pytest.raises(DomainError):
        MessageFrame("weird", Variant.AD_STAR, ())
    with pytest.raises(DomainError):
        MessageFrame(MODE_BLOCK, Variant.DAD_STAR, ())  # no budget
    with pytest.raises(InvalidCodeError):
        MessageFrame(MODE_EXACT, Variant.AD_STAR, (Code(Variant.AS_STAR, 2),))
    for budget in (5, 0, 3.0):  # an exact frame's header has no budget field
        with pytest.raises(DomainError):
            MessageFrame(MODE_EXACT, Variant.AS_STAR, [Code(Variant.AS_STAR, 5)], budget)
    for budget in (3.0, True, None, MAX_DEPTH + 1):
        with pytest.raises(DomainError):
            MessageFrame(MODE_BLOCK, Variant.DAD_STAR, [Code(Variant.DAD_STAR, 1, budget=1)],
                         budget)


def test_message_rejects_unknown_tags():
    w = BitWriter()
    w.write_elias_gamma(3)  # no such mode
    w.write_elias_gamma(1)
    with pytest.raises(MalformedMessageError, match="mode tag 3 and variant tag 1"):
        read_message(BitReader(w.getvalue()))
    w = BitWriter()
    w.write_elias_gamma(1)
    w.write_elias_gamma(6)  # no such variant
    w.write_elias_gamma(1)
    with pytest.raises(MalformedMessageError, match="mode tag 1 and variant tag 6"):
        read_message(BitReader(w.getvalue()))


def test_read_rejects_frame_of_the_wrong_layout():
    for mode_tag, variant_tag in ((1, 4), (1, 5), (2, 1), (2, 3)):
        w = BitWriter()
        w.write_elias_gamma(mode_tag)
        w.write_elias_gamma(variant_tag)
        w.write_elias_gamma(2)
        w.write_elias_gamma(2)
        with pytest.raises(MalformedMessageError):
            read_message(BitReader(w.getvalue()))


def test_unpack_depth_cap_is_the_tree_cap():
    for mode_tag, variant_tag in ((1, 2), (2, 4)):  # an AD_STAR depth, a DAD_STAR budget
        w = BitWriter()
        w.write_elias_gamma(mode_tag)
        w.write_elias_gamma(variant_tag)
        if mode_tag == 1:
            w.write_elias_gamma(2)  # one unit
        w.write_elias_gamma(MAX_DEPTH + 1)
        w.write_bits(0, 64 + 8)
        with pytest.raises(MalformedMessageError):
            read_message(BitReader(w.getvalue()))
    w = BitWriter()
    w.write_elias_gamma(MAX_DEPTH + 1)
    w.write_bits(0, 64 + 8)
    with pytest.raises(MalformedMessageError):
        Unit.HEAP_INDEX.read(BitReader(w.getvalue()), None, 1)
    code = Code(Variant.AD_STAR, (1 << (MAX_DEPTH - 1)) + 5)
    assert unit_roundtrip(code) == code


def test_pack_block_refuses_budgets_unpack_cannot_read():
    # the writer stops where read_message's budget cap does, so no block
    # message can be written that its own reader refuses
    code = Code(Variant.DAD_STAR, (1 << MAX_DEPTH) - 1, budget=MAX_DEPTH)
    data = write_message(MessageFrame(MODE_BLOCK, Variant.DAD_STAR, (code,), MAX_DEPTH))
    assert read_message(BitReader(data.getvalue())).codes == (code,)
    for budget in (MAX_DEPTH + 1, 70, 2.5):
        with pytest.raises(DomainError):
            write_message(MessageFrame(MODE_BLOCK, Variant.DAD_STAR, (), budget))


def test_block_mode_rejects_exact_variants():
    with pytest.raises((InvalidCodeError, MalformedMessageError)):
        write_message(MessageFrame(MODE_BLOCK, Variant.AD_STAR,
                                   (Code(Variant.AD_STAR, 5),), budget=3))


def _near_extremes(width):
    """Payloads at and around the edges of every layout at ``width``."""
    near = [0, 1, width - 1, width, width + 1]  # an arrival index is its own width
    if width <= 70:
        near += [(1 << width) - 1, 1 << width, 1 << max(width - 1, 0)]
    return st.one_of(st.sampled_from(near), st.integers(0, 2**70))


_WIDTHS = st.one_of(st.integers(0, 70), st.sampled_from([2**62, 2**63, 2**64 - 1, 2**64]))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(variant=st.sampled_from(list(Variant)),
       case=_WIDTHS.flatmap(lambda w: st.tuples(st.just(w), _near_extremes(w))))
def test_every_code_that_constructs_roundtrips(variant, case):
    """``Code`` admits exactly what the frame reader can return."""
    width, payload = case
    try:
        code = Code(variant, payload, budget=width if CODERS[variant].fixed_width else None)
    except InvalidCodeError:
        return
    budget = code.budget
    frame = MessageFrame(MODE_BLOCK if budget else MODE_EXACT, variant, (code,), budget)
    assert read_message(BitReader(write_message(frame).getvalue())) == frame


@st.composite
def _frame_parts(draw):
    """(mode, variant, codes, budget) of a frame, valid or not: codes of the
    frame's variant or of any other, at widths on both sides of a budget,
    and budgets the wire cannot carry."""
    variant = draw(st.sampled_from(list(Variant)))
    mode = draw(st.sampled_from([MODE_EXACT, MODE_BLOCK, "weird"]))
    budget = draw(st.sampled_from([None, 0, 1, 3, 5, MAX_DEPTH, MAX_DEPTH + 1, 3.0, True]))
    codes = []
    for _ in range(draw(st.integers(0, 3))):
        code_variant = draw(st.sampled_from([variant, *Variant]))
        width = draw(st.sampled_from([1, 3, 5, MAX_DEPTH]))
        unit = CODERS[code_variant].unit
        if unit is Unit.CODEWORD:
            payload = draw(st.integers(0, (1 << width) - 1))
        elif unit is Unit.HEAP_INDEX:
            payload = draw(st.integers(1 << (width - 1), (1 << width) - 1))
        else:
            payload = width
        codes.append(Code(code_variant, payload,
                          budget=width if unit is Unit.CODEWORD else None))
    return mode, variant, codes, budget


@settings(max_examples=600, deadline=None, derandomize=True)
@given(parts=_frame_parts())
def test_every_frame_that_constructs_roundtrips(parts):
    """A ``MessageFrame`` that builds writes, and reads back equal: every
    frame the wire cannot carry is refused when it is built, with a RecError.
    Its bare payloads write through ``write_frame`` and read back through
    ``read_frame`` alike, in every layout: heap, arrival, DAD* and MRC."""
    try:
        frame = MessageFrame(*parts)
    except RecError:
        return
    assert read_message(BitReader(write_message(frame).getvalue())) == frame
    assert_write_frame_is_write_message(frame)


# Well-formed message heads of every coder, so that fuzzed tails also reach
# the unit readers and the decoders past the tag checks.
_FUZZ_HEADS = [
    write_message(MessageFrame(MODE_EXACT, Variant.AD_STAR, (Code(Variant.AD_STAR, 5),))),
    write_message(MessageFrame(MODE_EXACT, Variant.AS_STAR, ())),
    write_message(MessageFrame(MODE_EXACT, Variant.PFR, (Code(Variant.PFR, 4),))),
    write_message(MessageFrame(MODE_BLOCK, Variant.DAD_STAR, (), budget=3)),
    write_message(MessageFrame(MODE_BLOCK, Variant.MRC, (), budget=5)),
]
_FUZZ_BYTES = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda head, cut, tail: head.getvalue()[:cut] + tail,
        st.sampled_from(_FUZZ_HEADS), st.integers(0, 3), st.binary(max_size=48),
    ),
)


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(data=_FUZZ_BYTES)
def test_malformed_messages_raise_only_rec_errors(data):
    """Arbitrary bytes either read and decode, or fail with a RecError."""
    try:
        frame = read_message(BitReader(data))
    except RecError:
        return
    for code in frame.codes:
        for proposal in (Gaussian(0.0, 1.0), Uniform(0.5, 1.0)):
            try:
                decode(proposal, code, 7)
            except RecError:
                pass


_VARIANT_OF_TAG = {spec.tag: variant for variant, spec in CODERS.items()}


def reference_read_message(data: bytes, start: int = 0) -> tuple[object, int]:
    """The field-by-field frame reader that the one-pass walk replaced,
    built only on ``reference_gamma``, ``reference_delta`` and
    ``read_bits``, from bit ``start`` of ``data``: (the frame, or the class
    of the error that refused it, and the bits left). Each field is read
    on a fresh reader, so a refused field consumes nothing; a budget field
    above MAX_DEPTH is consumed and then refused."""
    total = 8 * len(data)
    pos = start

    def field(read, *args):
        nonlocal pos
        reader = BitReader(data)
        reader.read_bits(pos)
        value = read(reader, *args)
        pos = total - reader.bits_left
        return value

    try:
        mode_tag, variant_tag = field(reference_gamma), field(reference_gamma)
        variant = _VARIANT_OF_TAG.get(variant_tag)
        mode = {1: MODE_EXACT, 2: MODE_BLOCK}.get(mode_tag)
        if variant is None or mode is None:
            raise MalformedMessageError("unknown tag")
        unit = CODERS[variant].unit
        if (unit is Unit.CODEWORD) != (mode == MODE_BLOCK):
            raise MalformedMessageError("wrong layout")
        budget = None
        if mode == MODE_BLOCK:
            budget = field(reference_gamma)
            if budget > MAX_DEPTH:
                raise MalformedMessageError("budget field exceeds MAX_DEPTH")
        codes = []
        for _ in range(field(reference_gamma) - 1):
            if unit is Unit.CODEWORD:
                codes.append(Code(variant, field(BitReader.read_bits, budget), budget=budget))
            elif unit is Unit.HEAP_INDEX:
                codes.append(Code(variant, field(reference_delta, MAX_DEPTH)))
            else:
                codes.append(Code(variant, field(reference_delta)))
        return MessageFrame(mode, variant, tuple(codes), budget), total - pos
    except MalformedMessageError:
        return MalformedMessageError, total - pos


def assert_reads_as_reference(data: bytes, start: int = 0):
    """``read_message`` from bit ``start`` gives the reference's frame or
    error class and leaves the same bits, and so does ``read_frame``, with
    the frame's fields and bare payloads; returns what ``read_message``
    read."""
    want, want_left = reference_read_message(data, start)
    fields = want if isinstance(want, type) else (
        want.mode, want.variant, want.budget, [code.payload for code in want.codes])
    got = []
    for read, expect in ((read_message, want), (read_frame, fields)):
        reader = BitReader(data)
        reader.read_bits(start)
        try:
            got.append(read(reader))
        except RecError as exc:
            got.append(type(exc))
        assert got[-1] == expect
        assert reader.bits_left == want_left
    return got[0]


def _header(mode_tag: int, variant_tag: int, budget: int | None, count: int) -> BitWriter:
    w = BitWriter()
    for n in (mode_tag, variant_tag, budget, count + 1):
        if n is not None:
            w.write_elias_gamma(n)
    return w


# Frame heads of every tag pair, the valid ones included, with budgets on
# both sides of MAX_DEPTH and small counts, then arbitrary bytes.
_RAW_FRAMES = st.builds(
    lambda w, tail: w.getvalue() + tail,
    st.builds(_header, st.integers(1, 3), st.integers(1, 6),
              st.one_of(st.none(), st.integers(1, MAX_DEPTH + 8)), st.integers(0, 40)),
    st.binary(max_size=400),
)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(data=st.one_of(_FUZZ_BYTES, _RAW_FRAMES), start=st.integers(0, 16))
def test_read_message_matches_the_reference_reader_on_fuzzed_bytes(data, start):
    assert_reads_as_reference(data, min(start, 8 * len(data)))


@pytest.mark.parametrize("variant_tag", [4, 5])
@pytest.mark.parametrize("budget", [MAX_DEPTH + 1, MAX_DEPTH + 2, 70, 1 << 20, (1 << 65) - 1])
def test_a_budget_field_above_max_depth_is_consumed_then_refused(variant_tag, budget):
    w = _header(2, variant_tag, budget, 3)
    w.write_bits(5, 64)
    data = w.getvalue()
    assert assert_reads_as_reference(data) is MalformedMessageError
    reader = BitReader(data)
    with pytest.raises(MalformedMessageError):
        read_message(reader)
    assert reader.bits_left == 8 * len(data) - 3 - 5 - (2 * budget.bit_length() - 1)


def _random_code(rnd, variant: Variant, budget: int) -> Code:
    """A code of ``variant``, at one of its layout's extremes or in between."""
    unit = CODERS[variant].unit
    if unit is Unit.CODEWORD:
        payload = rnd.choice([0, (1 << budget) - 1, rnd.getrandbits(budget)])
        return Code(variant, payload, budget=budget)
    if unit is Unit.HEAP_INDEX:
        depth = rnd.choice([1, MAX_DEPTH, rnd.randint(1, MAX_DEPTH)])
        return Code(variant, (1 << (depth - 1)) | rnd.getrandbits(depth - 1))
    return Code(variant, rnd.choice([1, (1 << 64) - 1, 1 + rnd.getrandbits(rnd.randint(0, 63))]))


@st.composite
def _well_formed_frames(draw):
    variant = draw(st.sampled_from(list(Variant)))
    budget = draw(st.sampled_from([1, MAX_DEPTH]) | st.integers(1, MAX_DEPTH))
    rnd = draw(st.randoms(use_true_random=False))
    codes = tuple(_random_code(rnd, variant, budget) for _ in range(draw(st.integers(0, 300))))
    if CODERS[variant].fixed_width:
        return MessageFrame(MODE_BLOCK, variant, codes, budget)
    return MessageFrame(MODE_EXACT, variant, codes)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(frame=_well_formed_frames(), shift=st.integers(0, 15), cut=st.integers(0, 1 << 16),
       tail=st.binary(max_size=4))
def test_read_message_matches_the_reference_reader_on_well_formed_frames(frame, shift, cut, tail):
    """Frames of every coder, 0-300 units at depths and budgets up to
    MAX_DEPTH and arrival indices up to 2^64 - 1, from any bit offset: whole
    ones read back, and cut ones fail where the reference does."""
    w = BitWriter()
    w.write_bits(0, shift)
    write_message(frame, w)
    data = w.getvalue() + tail
    assert assert_reads_as_reference(data, shift) == frame
    cut %= 8 * len(data) + 1
    assert_reads_as_reference(data[:cut >> 3], min(shift, 8 * (cut >> 3)))


# Heads of the five frame layouts with counts up to 60 over long arbitrary tails,
# so that frames of many units read
_RAW_RUNS = st.builds(
    lambda head, budget, count, tail: _header(*head, budget if head[0] == 2 else None,
                                               count).getvalue() + tail,
    st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 4), (2, 5)]), st.integers(1, MAX_DEPTH),
    st.integers(0, 60), st.binary(min_size=200, max_size=600),
)


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(data=st.one_of(_RAW_RUNS, _RAW_FRAMES, _FUZZ_BYTES))
def test_every_frame_read_passes_the_checks(data):
    """``read_message`` builds its codes and frame without the checks of
    ``Code`` and ``MessageFrame``, which would refuse nothing: every frame
    it reads off arbitrary bytes rebuilds through them and compares equal.
    Frames of every coder, with budgets up to MAX_DEPTH and counts up to
    60, reach this from the raw heads; a run of k units that reads is
    checked whenever a head carries count k."""
    try:
        frame = read_message(BitReader(data))
    except MalformedMessageError:
        return
    codes = tuple(Code(code.variant, code.payload, budget=code.budget) for code in frame.codes)
    assert MessageFrame(frame.mode, frame.variant, codes, frame.budget) == frame
    assert all(type(code) is Code for code in frame.codes)


# ------------------------------------------------ frame headers and the matcher

@pytest.mark.parametrize("mode,variant,budget,payloads", [
    (MODE_EXACT, Variant.AS_STAR, None, [1, 5, 1 << 40]),  # heap units
    (MODE_EXACT, Variant.AD_STAR, None, []),
    (MODE_EXACT, Variant.PFR, None, [1, 2, (1 << 64) - 1]),  # arrival units
    (MODE_BLOCK, Variant.DAD_STAR, 3, [5, 0]),  # codeword units
    (MODE_BLOCK, Variant.DAD_STAR, MAX_DEPTH, list(range(300))),
    (MODE_BLOCK, Variant.MRC, 7, [127]),
])
def test_frame_head_is_the_header_write_frame_writes(mode, variant, budget, payloads):
    """``frame_head`` states the header of every layout, heap, arrival,
    DAD* and MRC: its bits lead what ``write_frame`` writes, and a frame of
    no units is its header alone."""
    bits, width = frame_head(mode, variant, budget, len(payloads))
    w = BitWriter()
    write_frame(w, mode, variant, budget, payloads)
    assert bits_of(w)[:width] == format(bits, f"0{width}b")
    if not payloads:
        assert w.bit_length == width
    assert read_frame(BitReader(w.getvalue()))[:3] == (mode, variant, budget)


def test_frame_head_golden_and_refusals():
    # gamma(2) gamma(4) gamma(3) gamma(3), as test_pack_block_layout pins
    assert frame_head(MODE_BLOCK, Variant.DAD_STAR, 3, 2) == (0b010_00100_011_011, 14)
    # it refuses what write_elias_gamma refuses: a budget field below 1
    for budget in (0, -1):
        with pytest.raises(DomainError, match="^gamma codes need n >= 1"):
            frame_head(MODE_BLOCK, Variant.DAD_STAR, budget, 2)
    with pytest.raises(DomainError, match="^gamma codes need n >= 1"):
        frame_head(MODE_EXACT, Variant.AD_STAR, None, -1)


def block_message(shapes, variant=Variant.DAD_STAR):
    """(bytes, codewords, header spans): one block frame per (budget, count),
    its codewords spread over the budget's range, and the (first bit,
    width) of each frame's header."""
    w, words, heads = BitWriter(), [], []
    for j, (budget, count) in enumerate(shapes):
        payloads = [(i * 2654435761 + j) % (1 << budget) for i in range(count)]
        heads.append((w.bit_length, frame_head(MODE_BLOCK, variant, budget, count)[1]))
        write_frame(w, MODE_BLOCK, variant, budget, payloads)
        words += payloads
    return w.getvalue(), words, heads


def _flip(data, bit):
    out = bytearray(data)
    out[bit >> 3] ^= 0x80 >> (bit & 7)
    return bytes(out)


def flipped_words(shapes, heads, words, bit):
    """What the matcher returns for ``bit`` flipped: the codewords with one
    of their bits flipped, or None for a header or pad bit."""
    index = 0
    for (budget, count), (start, width) in zip(shapes, heads):
        offset = bit - start - width
        if offset < 0:
            return None  # a header bit
        if offset < budget * count:
            k, at = divmod(offset, budget)
            out = list(words)
            out[index + k] ^= 1 << (budget - 1 - at)
            return out
        index += count
    return None  # a pad bit


SHAPES = [
    [(3, 2)],
    [(5, 2), (3, 2), (8, 2)],  # a block_codec vector
    [(1, 1), (62, 3), (7, 4), (2, 5)],
    [(5, 300), (3, 1), (62, 40)],  # frames of several slices
]


@pytest.mark.parametrize("shapes", SHAPES)
def test_match_block_frames_returns_the_codewords_of_a_written_message(shapes):
    """The codewords of a written message, and for damage the walk
    refuses, None: a cut, an appended byte, a changed header or pad bit,
    another variant, a budget or count other than the frame's, a frame
    missing or one too many. A flipped codeword bit is another codeword."""
    data, words, heads = block_message(shapes)
    match = match_block_frames
    assert match(data, Variant.DAD_STAR, shapes) == words
    assert match(data, Variant.MRC, shapes) is None
    for cut in range(len(data)):
        assert match(data[:cut], Variant.DAD_STAR, shapes) is None
    for tail in (b"\x00", b"\x01", b"\xff"):
        assert match(data + tail, Variant.DAD_STAR, shapes) is None
    for bit in range(8 * len(data)):
        assert match(_flip(data, bit), Variant.DAD_STAR, shapes) == \
            flipped_words(shapes, heads, words, bit), bit
    for j, (budget, count) in enumerate(shapes):
        for wrong in ((budget - 1, count), (budget + 1, count), (budget, count - 1),
                      (budget, count + 1)):
            if 1 <= wrong[0] <= MAX_DEPTH and wrong[1] >= 0:
                other = shapes[:j] + [wrong] + shapes[j + 1:]
                assert match(data, Variant.DAD_STAR, other) is None, other
    assert match(data, Variant.DAD_STAR, shapes[:-1]) is None
    assert match(data, Variant.DAD_STAR, shapes + [(3, 1)]) is None


def test_match_block_frames_at_every_bit_offset():
    """A frame longer than one slice, behind a lead frame of 0 to 7 more
    bits, matches from every offset into its first byte."""
    for lead in range(8):
        shapes = [(1, lead + 1), (7, 200)]  # the lead's body moves the second frame
        data, words, _ = block_message(shapes)
        assert match_block_frames(data, Variant.DAD_STAR, shapes) == words


def test_match_block_frames_edges():
    assert match_block_frames(b"", Variant.DAD_STAR, []) == []
    assert match_block_frames(b"\x00", Variant.DAD_STAR, []) is None  # a whole byte left
    data, words, _ = block_message([(MAX_DEPTH, 2)])
    assert match_block_frames(data, Variant.DAD_STAR, [(MAX_DEPTH, 2)]) == words
    # no frame carries a budget of 0 or past MAX_DEPTH, so none is matched
    assert match_block_frames(data, Variant.DAD_STAR, [(MAX_DEPTH + 1, 2)]) is None
    assert match_block_frames(data, Variant.DAD_STAR, [(0, 2)]) is None
