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
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .distributions import Distribution1D, Region, sample_restricted_u
from .errors import DepthExceededError, DomainError
from .randomness import (
    DrawSlot,
    GumbelValue,
    absorb,
    keyed_uniform,  # noqa: F401  (benchmarks/run.py traces tree.keyed_uniform)
    seed_state,
    state_uniform,
    trunc_gumbel,
)

MAX_DEPTH = 62  # packed heap indices must fit in 64 bits with headroom

_GUMBEL = int(DrawSlot.GUMBEL)
_SAMPLE = int(DrawSlot.SAMPLE)


class PartitionKind(Enum):
    GLOBAL_BOUND = "global_bound"
    SAMPLE_SPLIT = "sample_split"
    DYADIC = "dyadic"


class NodeRecord(NamedTuple):
    """One realized search node.

    ``ulow``/``uhigh`` are the proposal CDF values of the region
    endpoints; ``g`` is the node's truncated Gumbel (its location is
    log of the region's proposal mass, its truncation the parent's
    realized value).
    """

    heap_index: int
    depth: int
    region: Region
    ulow: float
    uhigh: float
    x: float
    g: GumbelValue
    parent_gumbel: float

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


def _realize(
    proposal: Distribution1D,
    index: int,
    depth: int,
    piece: tuple[Region, float, float],
    bound: float,
    state: int,
    counter: int,
) -> NodeRecord:
    """A node's Gumbel and sample, both drawn from the node's key state."""
    region, ulow, uhigh = piece
    u_g = state_uniform(absorb(absorb(state, _GUMBEL), counter))
    u_x = state_uniform(absorb(absorb(state, _SAMPLE), counter))
    g = trunc_gumbel(u_g, math.log(uhigh - ulow), bound)
    x = sample_restricted_u(proposal, ulow, uhigh, u_x)
    return NodeRecord(index, depth, region, ulow, uhigh, x, g, bound)


def make_root(proposal: Distribution1D, seed: int) -> NodeRecord:
    """Realize the root node: the full line, mass one, untruncated Gumbel."""
    piece = (Region(-math.inf, math.inf), 0.0, 1.0)
    return _realize(proposal, 1, 1, piece, math.inf, absorb(seed_state(seed), 1), 0)


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
        # The chain's virtual heap index 2^k - 1 would alias once folded to
        # 64 bits, so the chain is keyed by node 1 and its counter instead.
        return [_realize(proposal, 2 * node.heap_index + 1, depth, pieces[1],
                         node.g.value, absorb(stream, 1), depth - 1)]
    children: list[NodeRecord] = []
    for piece, child_index in zip(pieces, heap_children(node.heap_index)):
        if piece is not None and piece[2] - piece[1] > 0.0:
            children.append(_realize(proposal, child_index, depth, piece,
                                     node.g.value, absorb(stream, child_index), 0))
    return children
