"""Keyed shared randomness and Gumbel transforms.

Encoding and decoding must see the same infinite table of uniforms, so
randomness is counter-based: a draw is a pure function of a
:class:`StreamKey` and nothing else. The key mixes a 64-bit seed, the
heap index of the tree node the draw belongs to, a slot tag separating
the per-node draws, and a counter for chains that need more than one
draw per (node, slot).

The mixing function is part of the wire format. Each field is absorbed
into a 64-bit state with the splitmix64 finalizer:

    state = mix64(seed)
    for field in (node_heap_index, slot, counter):
        state = mix64(state XOR (field + 0x9E3779B97F4A7C15))

    mix64(z): z' = (z + 0x9E3779B97F4A7C15) mod 2^64
              z' = ((z' XOR (z' >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
              z' = ((z' XOR (z' >> 27)) * 0x94D049BB133111EB) mod 2^64
              return z' XOR (z' >> 31)

The uniform is ((state >> 11) + 0.5) * 2^-53, which lies strictly inside
(0, 1), so log(u) and log(-log u) are always finite.

Draws that share a key prefix absorb it once. :func:`absorb` is the one
mixing step and :func:`keyed_uniform` is written on it; a search keeps
the state after (seed, node) to branch both of a node's draws from it,
or the state after (seed, node, slot) to branch a run of counters. The
values, and so the format, are the same as absorbing every field afresh.
Draws take six shapes, each one call with the rounds written out and a
test holding it to its :func:`absorb` chain: :func:`slot_uniform` (a
slot at counter 0 after (seed, node): a decode's node draws and MRC's
selection), :func:`slot_uniform_pair` (two slots at counter 0 after
(seed, node), mixed together: a search node's Gumbel and sample),
:func:`counter_uniform` (a counter after (seed, node, slot): PFR's
arrival draws and MRC's decode), :func:`counter_uniforms` (a run of counters after
(seed, node, slot), mixed together: MRC's encode),
:func:`slot_uniforms` (one slot at counter 0 after (seed, node) for a
list of nodes, mixed together: a sample-split decode's whole path) and
:func:`derived_slot_uniforms` (for i = 0, 1, ..., node i's slot i at
counter 0 in the stream derive_seed(seed, i), mixed together: a block
vector's samples). The last one's lane i absorbs five fields into
mix64(seed): i, the zero field of ``seed_state`` (an XOR of 0), node i,
slot i and counter 0. The packed shapes hold each key in a 128-bit lane
of one int and mask every lane back to 64 bits before a multiply. Which
key each draw uses is said once: ``reckit.tree`` keys the search nodes
and ``reckit.coders`` the PFR arrivals and the MRC candidates.
"""

from __future__ import annotations

import math
import sys
from enum import IntEnum
from typing import NamedTuple

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TO_UNIT = 2.0 ** -53


class DrawSlot(IntEnum):
    """Separates the draws attached to a single node.

    GUMBEL and SAMPLE are the per-node arrival time and location draws.
    The EXTRA_ROOT slots belong to the second root-level candidate of the
    depth-limited coder and use heap index 0.
    """

    GUMBEL = 0
    SAMPLE = 1
    EXTRA_ROOT_GUMBEL = 2
    EXTRA_ROOT_SAMPLE = 3


class StreamKey(NamedTuple):
    seed: int
    node_heap_index: int
    slot: int
    counter: int = 0


def absorb(state: int, field: int) -> int:
    """Absorb one key field into a mixing state:
    mix64(state XOR (field + GOLDEN)). The one copy of mix64."""
    z = ((state ^ ((field + _GOLDEN) & _MASK64)) + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def seed_state(seed: int) -> int:
    """The mixing state of a stream before any key field: mix64(seed)."""
    return absorb(seed & _MASK64, -_GOLDEN)  # the field -GOLDEN XORs in zero


def state_uniform(state: int) -> float:
    """The uniform of a fully absorbed key."""
    return ((state >> 11) + 0.5) * _TO_UNIT


def slot_uniform(key: int, slot: int) -> float:
    """state_uniform(absorb(absorb(key, slot), 0)) in one call."""
    z = ((key ^ ((slot + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF))
         + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    # counter 0 XORs in GOLDEN itself
    z = ((z ^ (z >> 31) ^ 0x9E3779B97F4A7C15) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (((z ^ (z >> 31)) >> 11) + 0.5) * 1.1102230246251565e-16  # 2^-53


# slot_uniform_pair's two lanes: 1 in each, a 64-bit mask in each, GOLDEN in each
_PAIR = 1 | (1 << 128)
_PAIR64 = _MASK64 * _PAIR
_PAIR_GOLDENS = _GOLDEN * _PAIR


def slot_uniform_pair(stream: int, field: int, slot_a: int, slot_b: int) -> tuple[float, float]:
    """(slot_uniform(key, slot_a), slot_uniform(key, slot_b)), key =
    absorb(stream, field), bit for bit, in one call: the field is absorbed
    once on a 64-bit state, which is then copied into two 128-bit lanes of
    one int (lane a low, lane b high) that absorb their own slot, then
    counter 0, together. Each lane is masked back to 64 bits before a
    multiply, as in ``_packed_uniforms``."""
    z = ((stream ^ ((field + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF))
         + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    slots = (((slot_a + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
             | ((slot_b + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF) << 128)
    z = ((((z ^ (z >> 31)) * _PAIR) ^ slots) + _PAIR_GOLDENS) & _PAIR64  # the key in both lanes
    z = (((z ^ (z >> 30)) & _PAIR64) * 0xBF58476D1CE4E5B9) & _PAIR64
    z = (((z ^ (z >> 27)) & _PAIR64) * 0x94D049BB133111EB) & _PAIR64
    # counter 0 XORs in GOLDEN itself
    z = ((z ^ (z >> 31) ^ _PAIR_GOLDENS) + _PAIR_GOLDENS) & _PAIR64
    z = (((z ^ (z >> 30)) & _PAIR64) * 0xBF58476D1CE4E5B9) & _PAIR64
    z = (((z ^ (z >> 27)) & _PAIR64) * 0x94D049BB133111EB) & _PAIR64
    z ^= z >> 31  # lane b's bits shifted into lane a's upper half stay above bit 63
    return ((((z >> 11) & 0x1FFFFFFFFFFFFF) + 0.5) * 1.1102230246251565e-16,  # 2^-53
            (((z >> 139) & 0x1FFFFFFFFFFFFF) + 0.5) * 1.1102230246251565e-16)


def counter_uniform(state: int, counter: int) -> float:
    """state_uniform(absorb(state, counter)) in one call."""
    z = ((state ^ ((counter + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF))
         + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (((z ^ (z >> 31)) >> 11) + 0.5) * 1.1102230246251565e-16


# The packed draws mix up to _LANES keys at once, each in a _WIDTH-bit lane
# of one int: a lane holds a 64-bit state, and the 128-bit product of two
# 64-bit values does not reach the next lane.
_LANES = 256
_WIDTH = 128
_REPEAT = int.from_bytes(b"\1".ljust(_WIDTH // 8, b"\0") * _LANES, "little")  # 1 in every lane
_COUNTERS = int.from_bytes(  # i in lane i
    b"".join(i.to_bytes(_WIDTH // 8, "little") for i in range(_LANES)), "little")
_LANE64 = _MASK64 * _REPEAT
_LANE53 = ((1 << 53) - 1) * _REPEAT
_GOLDENS = _GOLDEN * _REPEAT
_UPPER_HALF = bytes(_WIDTH // 8 - 8)
# Lane i's low word among a packed int's 64-bit words in host byte order: lane 0
# first and low word first if little-endian, top lane and high word first if big.
_LOW_WORDS_OF = {"little": slice(None, None, 2), "big": slice(None, None, -2)}
_LOW_WORDS = _LOW_WORDS_OF[sys.byteorder]


def _packed_uniforms(state: int, rounds: tuple[int, ...], low: int) -> list[float]:
    """The uniforms of the keys in the lanes ``low`` holds (all ones in
    each lane in use), mixed together. Lane i absorbs into ``state`` one
    field a round: each of ``rounds`` holds in lane i the XOR word
    f + GOLDEN of lane i's field f, below 2^66 (taken mod 2^64 below; a
    word of 0 absorbs the field -GOLDEN, the zero field of
    ``seed_state``). So lane i's uniform is state_uniform(absorb(...
    absorb(state, f_1) ..., f_k)) for its fields f_1 .. f_k.

    Each round of mix64 absorbs one field on every lane of the packed int
    at once. Each lane is masked back to 64 bits before a multiply, so no
    product spills into the next lane, and the shifts that pull a
    neighbour's bits into a lane's upper half are masked off with them;
    a round's last shift leaves such bits for the next round's first mask,
    or the uniform's 53-bit mask, to clear.
    """
    goldens, lane64 = _GOLDENS & low, _LANE64
    z = (state & _MASK64) * (_REPEAT & low)
    for word in rounds:
        z = ((z ^ word) + goldens) & lane64
        z = (((z ^ (z >> 30)) & lane64) * 0xBF58476D1CE4E5B9) & lane64
        z = (((z ^ (z >> 27)) & lane64) * 0x94D049BB133111EB) & lane64
        z ^= z >> 31
    words = memoryview(((z >> 11) & _LANE53).to_bytes(low.bit_length() // 8, sys.byteorder))
    return [(k + 0.5) * 1.1102230246251565e-16 for k in words.cast("Q")[_LOW_WORDS]]  # 2^-53


def _run_word(start: int, low: int) -> int:
    """The XOR word of the fields start, start + 1, ..., one a lane of ``low``."""
    return (_COUNTERS & low) + ((start & _MASK64) + _GOLDEN) * (_REPEAT & low)


def _field_word(fields: list[int], goldens: int) -> int:
    """The XOR word of a list of fields below 2^64, one a lane, given
    GOLDEN in each of those lanes."""
    packed = int.from_bytes(_UPPER_HALF.join([f.to_bytes(8, "little") for f in fields]), "little")
    return packed + goldens


def counter_uniforms(state: int, start: int, n: int) -> list[float]:
    """[counter_uniform(state, start + i) for i in range(n)], bit for bit:
    a packed draw (``_packed_uniforms``) per batch of up to 256 counters."""
    out: list[float] = []
    for first in range(0, n, _LANES):
        low = (1 << (_WIDTH * min(_LANES, n - first))) - 1
        out += _packed_uniforms(state, (_run_word(start + first, low),), low)
    return out


def slot_uniforms(stream: int, fields: list[int], slot: int) -> list[float]:
    """[slot_uniform(absorb(stream, f), slot) for f in fields], bit for bit,
    for fields below 2^64: a packed draw (``_packed_uniforms``) per batch
    of up to 256 fields, each lane absorbing its own field, then ``slot``
    and counter 0."""
    if len(fields) > _LANES:
        return (slot_uniforms(stream, fields[:_LANES], slot)
                + slot_uniforms(stream, fields[_LANES:], slot))
    low = (1 << (_WIDTH * len(fields))) - 1
    goldens = _GOLDENS & low
    slot_word = ((slot + _GOLDEN) & _MASK64) * (_REPEAT & low)
    return _packed_uniforms(stream, (_field_word(fields, goldens), slot_word, goldens), low)


def derived_slot_uniforms(stream: int, nodes: list[int], slots: list[int]) -> list[float]:
    """[slot_uniform(absorb(seed_state(absorb(stream, i)), nodes[i]), slots[i])
    for i in range(len(nodes))], bit for bit, for nodes and slots below
    2^64: with ``stream`` = seed_state(seed), lane i draws node i's slot
    in the stream derive_seed(seed, i). A packed draw (``_packed_uniforms``)
    per batch of up to 256 lanes, lane i absorbing i, ``seed_state``'s zero
    field, nodes[i], slots[i] and counter 0."""
    out: list[float] = []
    for first in range(0, len(nodes), _LANES):
        batch = nodes[first:first + _LANES]
        low = (1 << (_WIDTH * len(batch))) - 1
        goldens = _GOLDENS & low  # counter 0's XOR word
        rounds = (_run_word(first, low), 0, _field_word(batch, goldens),
                  _field_word(slots[first:first + _LANES], goldens), goldens)
        out += _packed_uniforms(stream, rounds, low)
    return out


def keyed_uniform(key: StreamKey) -> float:
    """Deterministic uniform in the open interval (0, 1) for a key."""
    seed, node_heap_index, slot, counter = key
    return state_uniform(
        absorb(absorb(absorb(seed_state(seed), node_heap_index), slot), counter)
    )


def derive_seed(seed: int, index: int) -> int:
    """Child seed for an independent stream (used per coordinate in
    block coding). Also splitmix64-based and part of the wire format:
    mix64(mix64(seed) XOR (index + GOLDEN))."""
    return absorb(seed_state(seed), index)


def trunc_gumbel(u: float, location: float, bound: float) -> float:
    """Gumbel(location) conditioned to lie below ``bound``.

    Inverse-CDF form: value = location - log(exp(-(bound - location)) - log u).
    Evaluated as -logaddexp(-g, -bound) with g the untruncated variate,
    which stays stable when bound - location is very large or very
    negative. An infinite bound gives the plain Gumbel(location) variate
    g = location - log(-log u).
    """
    g = location - math.log(-math.log(u))
    if bound == math.inf:
        return g
    a = -g
    b = -bound
    if a > b:
        return -(a + math.log1p(math.exp(b - a)))
    return -(b + math.log1p(math.exp(a - b)))
