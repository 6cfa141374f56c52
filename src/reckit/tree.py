"""Heap-indexed search tree over proposal regions.

Nodes are identified ahnentafel-style: the root is 1 and node H has
children 2H and 2H+1, so a node at depth D (root depth 1) has an index
in [2^(D-1), 2^D) and the index fits in D bits once D is known. Three
partition rules are supported:

* GLOBAL_BOUND: never shrink; one child carrying the parent's region
  (assigned through the right-child rule). Turns the search into a plain
  rejection race.
* SAMPLE_SPLIT: split the region at the node's own sample.
* DYADIC: split at the proposal median of the region, so the two
  children carry exactly half the parent's proposal mass each.

Every node caches the proposal-CDF images of its endpoints. All mass and
sampling arithmetic runs through those cached values, which makes dyadic
masses exactly 2^-(D-1) and lets a decoder walking the same path
reproduce region arithmetic bit for bit.

This module is the one place that says how a node's draws are keyed
(``_node_key``) and how a decoder finds a node again (``locate``): the
encoder's ``make_root``/``expand`` and the decoder's walk share both.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .distributions import FULL_LINE, Distribution1D, Region, sample_restricted_u
from .errors import DepthExceededError, DomainError, InvalidCodeError
from .randomness import DrawSlot, absorb, seed_state, state_uniform, trunc_gumbel
from .randomness import keyed_uniform  # noqa: F401  (benchmarks/run.py traces it here)

MAX_DEPTH = 62  # packed heap indices must fit in 64 bits with headroom

# (Gumbel slot, sample slot) of a tree node and of the extra root candidate
_NODE_SLOTS = (int(DrawSlot.GUMBEL), int(DrawSlot.SAMPLE))
_EXTRA_SLOTS = (int(DrawSlot.EXTRA_ROOT_GUMBEL), int(DrawSlot.EXTRA_ROOT_SAMPLE))
_ROOT_PIECE = (FULL_LINE, 0.0, 1.0)


class PartitionKind(Enum):
    GLOBAL_BOUND = "global_bound"
    SAMPLE_SPLIT = "sample_split"
    DYADIC = "dyadic"


class NodeRecord(NamedTuple):
    """One realized search node.

    ``ulow``/``uhigh`` are the proposal CDF values of the region
    endpoints; ``g`` is the node's Gumbel, located at the log of the
    region's proposal mass and truncated at its parent's ``g``.
    """

    heap_index: int
    depth: int
    region: Region
    ulow: float
    uhigh: float
    x: float
    g: float

    @property
    def mass(self) -> float:
        return self.uhigh - self.ulow


def depth_of(heap_index: int) -> int:
    """Depth of a heap index; the root (index 1) has depth 1."""
    if heap_index < 1:
        raise DomainError(f"heap index must be >= 1, got {heap_index}")
    return heap_index.bit_length()


def heap_children(heap_index: int) -> tuple[int, int]:
    """Child indices (2H, 2H+1), refusing to grow past packable depth."""
    if heap_index.bit_length() + 1 > MAX_DEPTH:
        raise DepthExceededError(
            f"children of node {heap_index} exceed depth {MAX_DEPTH}"
        )
    return 2 * heap_index, 2 * heap_index + 1


def _partition_u(
    kind: PartitionKind,
    region: Region,
    ulow: float,
    uhigh: float,
    x: float,
    proposal: Distribution1D,
) -> tuple[tuple[Region, float, float] | None, tuple[Region, float, float] | None]:
    """Partition with cached CDF endpoints carried through to children."""
    if kind is PartitionKind.GLOBAL_BOUND:
        return None, (region, ulow, uhigh)
    if kind is PartitionKind.SAMPLE_SPLIT:
        cut, ucut = x, proposal.cdf(x)
    elif kind is PartitionKind.DYADIC:
        ucut = 0.5 * (ulow + uhigh)
        cut = proposal.inv_cdf(ucut)
    else:  # pragma: no cover
        raise DomainError(f"unknown partition kind {kind}")
    left = (Region(region.low, cut), ulow, ucut) if region.low < cut else None
    right = (Region(cut, region.high), ucut, uhigh) if cut < region.high else None
    return left, right


def _node_key(kind: PartitionKind, stream: int, index: int, depth: int):
    """The key of a node's draws: the state after (seed, key node) given
    ``stream = seed_state(seed)``, the counter and the (Gumbel, sample)
    slots. A split-tree node is keyed by its heap index. The chain's
    virtual heap index 2^k - 1 would alias once folded to 64 bits, so a
    chain node is keyed by node 1 and counter depth - 1. Heap index 0,
    the extra root, draws from node 0's EXTRA_ROOT slots.
    """
    if kind is PartitionKind.GLOBAL_BOUND:
        return absorb(stream, 1), depth - 1, _NODE_SLOTS
    if index == 0:
        return absorb(stream, 0), 0, _EXTRA_SLOTS
    return absorb(stream, index), 0, _NODE_SLOTS


def _realize(proposal: Distribution1D, kind: PartitionKind, stream: int, index: int,
             depth: int, piece: tuple[Region, float, float], bound: float) -> NodeRecord:
    """A node's Gumbel and sample, both drawn from the node's key state."""
    region, ulow, uhigh = piece
    state, counter, (g_slot, x_slot) = _node_key(kind, stream, index, depth)
    u_g = state_uniform(absorb(absorb(state, g_slot), counter))
    u_x = state_uniform(absorb(absorb(state, x_slot), counter))
    g = trunc_gumbel(u_g, math.log(uhigh - ulow), bound)
    x = sample_restricted_u(proposal, ulow, uhigh, u_x)
    return NodeRecord(index, depth, region, ulow, uhigh, x, g)


def _sample(proposal: Distribution1D, kind: PartitionKind, stream: int, index: int,
            depth: int, ulow: float, uhigh: float) -> float:
    """A node's sample alone, drawn as ``_realize`` draws it."""
    state, counter, (_, x_slot) = _node_key(kind, stream, index, depth)
    u_x = state_uniform(absorb(absorb(state, x_slot), counter))
    return sample_restricted_u(proposal, ulow, uhigh, u_x)


def make_root(proposal: Distribution1D, seed: int) -> NodeRecord:
    """Realize the root node: the full line, mass one, untruncated Gumbel.
    Every partition rule keys the root alike (node 1, counter 0)."""
    return _realize(proposal, PartitionKind.DYADIC, seed_state(seed), 1, 1,
                    _ROOT_PIECE, math.inf)


def extra_root(proposal: Distribution1D, seed: int, root: NodeRecord) -> NodeRecord:
    """The depth-limited coder's second root-level candidate, heap index
    0: a full-line draw whose Gumbel is truncated at the root's."""
    return _realize(proposal, PartitionKind.DYADIC, seed_state(seed), 0, 1,
                    _ROOT_PIECE, root.g)


def expand(
    node: NodeRecord,
    kind: PartitionKind,
    proposal: Distribution1D,
    seed: int,
) -> list[NodeRecord]:
    """Realize the children of a node.

    Children with zero proposal mass are skipped, as are slots emptied by
    the partition rule. Each child draws its truncated Gumbel (location =
    log child mass, bound = parent's realized value) and its sample from
    the keyed stream.
    """
    pieces = _partition_u(
        kind, node.region, node.ulow, node.uhigh, node.x, proposal
    )
    stream = seed_state(seed)
    depth = node.depth + 1
    if kind is PartitionKind.GLOBAL_BOUND:
        return [_realize(proposal, kind, stream, 2 * node.heap_index + 1, depth,
                         pieces[1], node.g)]
    children: list[NodeRecord] = []
    for piece, child_index in zip(pieces, heap_children(node.heap_index)):
        if piece is not None and piece[2] - piece[1] > 0.0:
            children.append(_realize(proposal, kind, stream, child_index, depth,
                                     piece, node.g))
    return children


def locate(proposal: Distribution1D, kind: PartitionKind, seed: int, index: int,
           depth: int) -> float:
    """The sample of the node at ``index`` and ``depth``: the decode walk.

    Rebuilds the regions on the heap path from the root (the index's
    digits after its leading 1; 0 = left, 1 = right) with the partition
    arithmetic and node keys of ``make_root`` and ``expand``, so it is
    bit-exact against encoding. Only a sample-split cut reads an
    ancestor's sample, so only that walk draws one. A chain node is found
    by its depth alone; index 0 at depth 1 is ``extra_root``.
    """
    stream = seed_state(seed)
    region, ulow, uhigh = _ROOT_PIECE
    if kind is not PartitionKind.GLOBAL_BOUND:
        split_at_sample = kind is PartitionKind.SAMPLE_SPLIT
        x = math.nan  # a dyadic cut reads no sample
        for shift in range(depth - 1, 0, -1):
            if split_at_sample:
                x = _sample(proposal, kind, stream, index >> shift, depth - shift, ulow, uhigh)
            piece = _partition_u(kind, region, ulow, uhigh, x, proposal)[(index >> (shift - 1)) & 1]
            if piece is None:
                raise InvalidCodeError(f"heap index {index} leads into an empty partition slot")
            region, ulow, uhigh = piece
    return _sample(proposal, kind, stream, index, depth, ulow, uhigh)
