"""The block vector decode equals decoding its coordinates one at a time.

``isokl.decode_block_vector`` reads a vector's frames and decodes every
coordinate of it. The reference below is the scalar loop the codec is
defined by: coordinate i is ``decode_dad`` of its code in the stream
``absorb(seed_state(seed), i)`` (which is ``derive_seed(seed, i)``), in
coordinate order, frame checks interleaved block by block. The samples
must be identical bit for bit, and a refused vector must raise the
refusal the loop meets first: a coordinate's refusal before a later
frame's fault, a frame's fault before the coordinates after it.

The decoder matches a message against the frames its blocks imply and
walks the frames only when that match fails. A damaged message (cut,
extended, a bit flipped, a pad bit set, a header bit changed) must give
what a decode that walks every frame with ``read_frame`` gives
(``walked_decode``): the same samples bit for bit, or a refusal of the
same class with the same message. And the match refuses exactly the
messages whose frame walk refuses, and returns that walk's codewords.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reckit.bitstream import (MODE_BLOCK, BitReader, BitWriter, MessageFrame, frame_head,
                              match_block_frames, read_frame, write_message)
from reckit.coders import Code, Variant, decode_dad
from reckit.errors import DomainError, InvalidCodeError, MalformedMessageError, RecError
from reckit.isokl import BlockCodecConfig, IsoKLGaussianBlock, decode_block_vector
from reckit.randomness import absorb, seed_state
from reckit.tree import MAX_DEPTH

CONFIG = BlockCodecConfig(extra_bits=0)
# 1e-30: every inner dyadic end has one quantile, so inner codes name emptied slots
STDS = (1e-30, 1e-6, 0.5, 1.0, 3.0)


def block_at(budget: int, prior_means, prior_stds) -> IsoKLGaussianBlock:
    """A block whose configured budget is ``budget``: kappa = (budget - 0.5) ln 2.
    ``CONFIG.budget`` refuses a budget past ``MAX_DEPTH``."""
    block = IsoKLGaussianBlock(tuple(prior_means), tuple(prior_stds), tuple(prior_means),
                               (budget - 0.5) * math.log(2.0))
    assert budget > MAX_DEPTH or CONFIG.budget(block.kappa) == budget
    return block


def message(frames) -> bytes:
    """Block frames of (budget, payloads), written as they stand."""
    writer = BitWriter()
    for budget, payloads in frames:
        codes = tuple(Code(Variant.DAD_STAR, h, budget=budget) for h in payloads)
        write_message(MessageFrame(MODE_BLOCK, Variant.DAD_STAR, codes, budget), writer)
    return writer.getvalue()


def outcome(fn, *args):
    try:
        return [x.hex() for x in fn(*args)]
    except RecError as exc:
        return type(exc).__name__


def full_outcome(fn, *args):
    """The samples, or the refusal's class and message."""
    try:
        return [x.hex() for x in fn(*args)]
    except RecError as exc:
        return type(exc).__name__, str(exc)


def walked_decode(blocks, data, seed):
    """Block by block, every frame walked: ``read_frame``, its fields
    checked against the block, its coordinates decoded one at a time with
    ``decode_dad`` (given a seed of None, its codewords collected); then the
    pad bits."""
    reader, samples, index = BitReader(data), [], 0
    for block in blocks:
        _, variant, budget, payloads = read_frame(reader)
        if variant is not Variant.DAD_STAR:
            raise MalformedMessageError("expected a tied-budget block frame")
        configured = CONFIG.budget(block.kappa)
        if budget != configured:
            raise MalformedMessageError(f"frame budget {budget} != configured {configured}")
        if len(payloads) != len(block):
            raise MalformedMessageError(
                f"frame holds {len(payloads)} codes, block has {len(block)}")
        for proposal, h in zip(block.proposals, payloads):
            if seed is None:
                samples.append(h)
                continue
            code = Code(Variant.DAD_STAR, h, budget=budget)
            samples.append(decode_dad(proposal, code, absorb(seed_state(seed), index)))
            index += 1
    reader.check_end()
    return samples


def damaged(data, frames, draw):
    """``data`` cut, extended by a byte, with one bit flipped, with a pad
    bit set (a bit flipped where there is no pad), or with a bit of one
    frame's header changed; the kind drawn."""
    kind = draw(st.sampled_from(("cut", "append", "flip", "pad", "header")))
    nbits = 8 * len(data)
    heads, at = [], 0
    for budget, payloads in frames:
        width = frame_head(MODE_BLOCK, Variant.DAD_STAR, budget, len(payloads))[1]
        heads.append((at, width))
        at += width + budget * len(payloads)
    if kind == "cut":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "append":
        return data + bytes([draw(st.integers(0, 255))])
    if kind == "pad" and at < nbits:
        bit = draw(st.integers(at, nbits - 1))
    elif kind == "header":
        start, width = draw(st.sampled_from(heads))
        bit = draw(st.integers(start, start + width - 1))
    else:
        bit = draw(st.integers(0, nbits - 1))
    out = bytearray(data)
    out[bit >> 3] ^= 0x80 >> (bit & 7)
    return bytes(out)


def scalar_decode(blocks, frames, seed):
    """Each coordinate alone, in order: decode_dad in its derived stream,
    after its frame's budget check."""
    samples, index = [], 0
    for block, (budget, payloads) in zip(blocks, frames):
        if budget != CONFIG.budget(block.kappa):
            raise MalformedMessageError("frame budget differs from the block's")
        for proposal, h in zip(block.proposals, payloads):
            code = Code(Variant.DAD_STAR, h, budget=budget)
            samples.append(decode_dad(proposal, code, absorb(seed_state(seed), index)))
            index += 1
    return samples


@st.composite
def vectors(draw):
    """(blocks, frames, shapes): one to three blocks of one to four
    coordinates at budgets 1-62, with codeword 0, the first and last codes
    and inner ones, and each block's (configured budget, size). Now and
    then a frame carries a budget other than its block's, and now and then
    the block's is past 62, which ``CONFIG.budget`` refuses."""
    blocks, frames, shapes = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        budget = draw(st.integers(1, MAX_DEPTH))
        configured, kind = budget, draw(st.integers(0, 6))
        if kind == 0:
            configured = draw(st.integers(1, MAX_DEPTH))
        elif kind == 1:
            configured = draw(st.integers(MAX_DEPTH + 1, 2 * MAX_DEPTH))
        n = draw(st.integers(1, 4))
        means = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
        stds = draw(st.lists(st.sampled_from(STDS), min_size=n, max_size=n))
        top = (1 << budget) - 1
        payloads = draw(st.lists(
            st.one_of(st.sampled_from((0, 1, top >> 1, (top >> 1) + 1, top)),
                      st.integers(0, top)),
            min_size=n, max_size=n))
        blocks.append(block_at(configured, means, stds))
        frames.append((budget, payloads))
        shapes.append((configured, n))
    return blocks, frames, shapes


@settings(max_examples=300, deadline=None)
@given(vector=vectors(), seed=st.integers(0, 2**64 - 1), data=st.data())
def test_vector_decode_is_the_scalar_loop(vector, seed, data):
    blocks, frames, shapes = vector
    written = message(frames)
    assert (outcome(decode_block_vector, blocks, CONFIG, written, seed)
            == outcome(scalar_decode, blocks, frames, seed))
    bad = damaged(written, frames, data.draw)
    for msg in (written, bad):
        assert (full_outcome(decode_block_vector, blocks, CONFIG, msg, seed)
                == full_outcome(walked_decode, blocks, msg, seed))
        try:
            walked = walked_decode(blocks, msg, None)
        except RecError:
            walked = None
        assert match_block_frames(msg, Variant.DAD_STAR, shapes) == walked


def test_the_loop_covers_every_path():
    """The cases the pin needs, each decoded by both: codeword 0, a walk
    below the closed form's depth and an emptied slot."""
    narrow = block_at(8, [0.5], [1e-30])
    empty = (8, [(1 << 7) + 5])  # an inner depth-8 code: both its ends have quantile 0.5
    with pytest.raises(InvalidCodeError):
        scalar_decode([narrow], [empty], 3)
    assert outcome(decode_block_vector, [narrow], CONFIG, message([empty]), 3) == \
        "InvalidCodeError"
    wide = block_at(MAX_DEPTH, [0.1, -0.4], [1.0, 2.0])
    frames = [(MAX_DEPTH, [0, (1 << 60) + 12345])]  # codeword 0, a depth-61 walk
    for seed in (0, 7, 2**64 - 1):
        decoded = decode_block_vector([wide], CONFIG, message(frames), seed)
        assert [x.hex() for x in decoded] == \
            [x.hex() for x in scalar_decode([wide], frames, seed)]


def test_a_coordinate_refusal_comes_before_a_later_frames_fault():
    """An emptied slot in block 0 and a wrong budget in block 1: the loop
    decodes block 0 before it reads frame 1, so the code's refusal wins."""
    narrow, wide = block_at(8, [0.5], [1e-30]), block_at(5, [0.0], [1.0])
    frames = [(8, [(1 << 7) + 5]), (6, [3])]  # frame 1 says 6, its block 5
    data = message(frames)
    with pytest.raises(InvalidCodeError):
        decode_block_vector([narrow, wide], CONFIG, data, 11)
    # truncated inside frame 1: the code's refusal still comes first
    with pytest.raises(InvalidCodeError):
        decode_block_vector([narrow, wide], CONFIG, data[:len(message(frames[:1]))], 11)
    # a byte after the last frame is that frame's fault, and comes after it too
    with pytest.raises(InvalidCodeError):
        decode_block_vector([narrow], CONFIG, message(frames[:1]) + b"\x00", 11)


def test_a_frame_fault_comes_before_a_later_coordinate_refusal():
    """The reverse: a wrong budget in block 0 and an emptied slot in block
    1. The frame is refused before any code after it is decoded."""
    wide, narrow = block_at(5, [0.0], [1.0]), block_at(8, [0.5], [1e-30])
    data = message([(6, [3]), (8, [(1 << 7) + 5])])
    with pytest.raises(MalformedMessageError):
        decode_block_vector([wide, narrow], CONFIG, data, 11)
    # a block whose configured budget no header carries (63) is refused
    # there, with the encoder's DomainError, before the codes after it
    unframable = IsoKLGaussianBlock((0.0,), (1.0,), (0.0,), (MAX_DEPTH + 0.5) * math.log(2.0))
    with pytest.raises(DomainError, match="^budget must be"):
        decode_block_vector([unframable, narrow], CONFIG, data, 11)
    # and after the refusals of the codes before it
    data = message([(8, [(1 << 7) + 5]), (6, [3])])
    with pytest.raises(InvalidCodeError):
        decode_block_vector([narrow, unframable], CONFIG, data, 11)
