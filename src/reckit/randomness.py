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
Draws take four shapes, each one call with the rounds written out and a
test holding it to its :func:`absorb` chain:

* :func:`seed_uniform`: a whole key from the seed, all four rounds (a
  decode's single draws: PFR's arrival, MRC's candidate and
  ``tree.locate``'s node, and a shrinkage descent's samples);
* :func:`counter_uniform`: a counter after (seed, node, slot) (PFR's
  arrival draws and MRC's selection);
* :func:`slot_uniform_pair`: two slots at counter 0 after (seed, node),
  mixed together (a search node's sample and Gumbel); the two slots come
  as one slot word, :func:`slot_pair`, which ``reckit.tree`` packs once
  at import;
* :func:`packed_uniforms`: n keys that share a state, mixed together,
  lane i absorbing its field of each round in order; a round is one
  field for every lane (an int), consecutive fields (a ``range``) or a
  field a lane (a list). MRC's candidates are the counters ``range(n)``
  after (seed, 0, SAMPLE); a sample-split decode's path is its heap
  indices, then SAMPLE and counter 0; a block vector's samples are
  ``range(n), SEED_FIELD, indices, slots, 0`` after mix64(seed), lane i
  drawing in the stream derive_seed(seed, i).

:func:`derive_seed` is written out the same way, its two rounds in one
call. A field's word is (field + GOLDEN); a round masks its sum after
the add, which reads only the word's low 64 bits, so a negative field or
one of 2^64 or more keys the same draw as its residue (a list field
must lie in [0, 2^64)). The packed shapes hold each key in a 128-bit
lane of one int and mask every lane back to 64 bits before a multiply.
Which key each draw uses is said once: ``reckit.tree`` keys the search
nodes and ``reckit.coders`` the PFR arrivals and the MRC candidates.
"""

from __future__ import annotations

import math
import struct
import sys
from enum import IntEnum
from functools import lru_cache
from typing import NamedTuple

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TO_UNIT = 2.0 ** -53
# The field whose word, SEED_FIELD + GOLDEN, is 0: absorbing it is mix64 alone
SEED_FIELD = -_GOLDEN


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
    z = ((state ^ (field + _GOLDEN)) + _GOLDEN) & _MASK64  # keys the field's residue
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def seed_state(seed: int) -> int:
    """The mixing state of a stream before any key field: mix64(seed)."""
    return absorb(seed, SEED_FIELD)


def state_uniform(state: int) -> float:
    """The uniform of a fully absorbed key."""
    return ((state >> 11) + 0.5) * _TO_UNIT


def seed_uniform(seed: int, node: int, slot: int, counter: int) -> float:
    """keyed_uniform(StreamKey(seed, node, slot, counter)) in one call:
    mix64(seed), then the node, the slot and the counter absorbed."""
    z = (seed + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF  # SEED_FIELD's word is 0: mix64(seed)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 31) ^ (node + 0x9E3779B97F4A7C15)) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 31) ^ (slot + 0x9E3779B97F4A7C15)) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 31) ^ (counter + 0x9E3779B97F4A7C15)) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (((z ^ (z >> 31)) >> 11) + 0.5) * 1.1102230246251565e-16  # 2^-53


# slot_uniform_pair's two lanes: 1 in each, a 64-bit mask in each, GOLDEN in each
_PAIR = 1 | (1 << 128)
_PAIR64 = _MASK64 * _PAIR
_PAIR_GOLDENS = _GOLDEN * _PAIR


def slot_pair(slot_a: int, slot_b: int) -> int:
    """The slot word of ``slot_uniform_pair``: the XOR word of each slot,
    (slot + GOLDEN) mod 2^64, lane a's low and lane b's 128 bits up."""
    return ((slot_a + _GOLDEN) & _MASK64) | ((slot_b + _GOLDEN) & _MASK64) << 128


def slot_uniform_pair(stream: int, field: int, slots: int) -> tuple[float, float]:
    """The uniforms of slots a and b at counter 0 after (stream, field),
    state_uniform(absorb(absorb(absorb(stream, field), slot), 0)) for each,
    with ``slots`` = slot_pair(slot_a, slot_b), bit for bit, in one call:
    the field is absorbed once on a 64-bit state, which is then copied
    into two 128-bit lanes of one int (lane a low, lane b high) that absorb
    their own slot, then counter 0, together. Each lane is
    masked back to 64 bits before a multiply, as in ``packed_uniforms``."""
    z = ((stream ^ (field + 0x9E3779B97F4A7C15)) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
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
    z = ((state ^ (counter + 0x9E3779B97F4A7C15)) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
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
# Lane i's low word among a packed int's 64-bit words in host byte order: lane 0
# first and low word first if little-endian, top lane and high word first if big.
_LOW_WORDS_OF = {"little": slice(None, None, 2), "big": slice(None, None, -2)}
_LOW_WORDS = _LOW_WORDS_OF[sys.byteorder]


@lru_cache(maxsize=None)  # a batch has 1 to _LANES lanes: at most 256 packers
def _lane_packer(lanes: int):
    """Packs ``lanes`` fields below 2^64, one a lane, into the bytes of a
    packed int, low lane first and each field in its lane's low 64 bits."""
    return struct.Struct("<" + "Q8x" * lanes).pack


def packed_uniforms(state: int, n: int, *rounds: int | range | list[int]) -> list[float]:
    """The uniforms of n keys that share the mixing state ``state``, bit
    for bit their ``absorb`` chains: lane i's is state_uniform(absorb(...
    absorb(state, f_1) ..., f_k)), f_j its field of the j-th round. A
    round is an int, the same field in every lane; a ``range`` of step 1,
    consecutive fields, start + i in lane i; or a list, its item i in lane
    i, each in [0, 2^64).

    The keys are mixed in batches of up to 256, a batch's lanes in one
    int. A round's word holds in each lane the XOR word f + GOLDEN of the
    lane's field f, below 2^66 (its low 64 bits are what the round reads),
    and one round of mix64 absorbs it on every lane at once. Each lane is
    masked back to 64 bits before a multiply, so no product spills into
    the next lane, and the shifts that pull a neighbour's bits into a
    lane's upper half are masked off with them; a round's last shift
    leaves such bits for the next round's first mask, or the uniform's
    53-bit mask, to clear.
    """
    out: list[float] = []
    lane64 = _LANE64
    for first in range(0, n, _LANES):
        lanes = min(_LANES, n - first)
        low = (1 << (_WIDTH * lanes)) - 1
        repeat, goldens = _REPEAT & low, _GOLDENS & low
        z = (state & _MASK64) * repeat
        for fields in rounds:
            if isinstance(fields, int):
                word = ((fields + _GOLDEN) & _MASK64) * repeat
            elif isinstance(fields, range):
                word = (_COUNTERS & low) + ((fields.start + first + _GOLDEN) & _MASK64) * repeat
            else:
                packed = _lane_packer(lanes)(*fields[first:first + lanes])
                word = int.from_bytes(packed, "little") + goldens
            z = ((z ^ word) + goldens) & lane64
            z = (((z ^ (z >> 30)) & lane64) * 0xBF58476D1CE4E5B9) & lane64
            z = (((z ^ (z >> 27)) & lane64) * 0x94D049BB133111EB) & lane64
            z ^= z >> 31
        words = memoryview(((z >> 11) & _LANE53).to_bytes(_WIDTH // 8 * lanes, sys.byteorder))
        out += [(k + 0.5) * 1.1102230246251565e-16 for k in words.cast("Q")[_LOW_WORDS]]  # 2^-53
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
    mix64(mix64(seed) XOR (index + GOLDEN)), that is
    absorb(seed_state(seed), index), in one call."""
    z = (seed + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF  # SEED_FIELD's word is 0: mix64(seed)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 31) ^ (index + 0x9E3779B97F4A7C15)) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


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
