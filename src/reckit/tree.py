"""Heap-indexed search tree over proposal regions.

Split-tree nodes are identified ahnentafel-style: the root is 1 and
node H has children 2H and 2H+1, so a node at depth D (root depth 1)
has an index in [2^(D-1), 2^D) and the index fits in D bits once D is
known. Three partition rules are supported:

* GLOBAL_BOUND: never shrink; one child carrying the parent's region.
  Turns the search into a plain rejection race, a chain whose node at
  depth k has heap index k, its 1-based arrival index.
* SAMPLE_SPLIT: split the region at the node's own sample.
* DYADIC: split at the proposal median of the region, so the two
  children carry exactly half the parent's proposal mass each.

Every node caches the proposal-CDF images of its endpoints. All mass and
sampling arithmetic runs through those cached values, which makes dyadic
masses exactly 2^-(D-1) and lets a decoder walking the same path
reproduce region arithmetic bit for bit. A dyadic decoder need not walk:
the node at depth D with heap index H has the CDF ends k * 2^-(D-1) and
(k+1) * 2^-(D-1), k = H - 2^(D-1), which are the walk's own floats while
D <= ``EXACT_DYADIC_DEPTH`` (54), since halving a sum of dyadic rationals
is exact up to 53 bits. Its x-ends are the proposal quantiles of those
ends, and a code whose two quantiles meet names an emptied slot, which
the walk refuses too.

Draws are made as late as the search allows. ``expand`` returns a
node's children with their regions only: a child has no key state yet,
and its ``g`` is its parent's Gumbel, the bound its own is truncated at.
The search queues it at that upper bound and ``realize`` draws its key
state and Gumbel when it reaches the top of the queue. A node's sample
(``node_sample``) waits until the node itself is popped, since pruning
reads only the Gumbel and the region.

This module is the one place that says how a node's draws are keyed
(``realize``, ``node_sample``) and how a decoder finds a node again
(``locate``): the encoder's ``make_root``/``expand``/``realize`` and the
decoder share both.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .distributions import Distribution1D, sample_restricted_u
from .errors import DepthExceededError, DomainError, InvalidCodeError
from .randomness import DrawSlot, absorb, seed_state, state_uniform, trunc_gumbel
from .randomness import keyed_uniform  # noqa: F401  (benchmarks/run.py traces it here)

MAX_DEPTH = 62  # packed heap indices must fit in 64 bits with headroom
# The deepest dyadic node whose CDF ends, k * 2^-(d-1) and (k+1) * 2^-(d-1),
# the partition arithmetic computes exactly (d - 1 <= 53 bits)
EXACT_DYADIC_DEPTH = 54

INF = math.inf
_ldexp = math.ldexp
_GUMBEL, _SAMPLE = int(DrawSlot.GUMBEL), int(DrawSlot.SAMPLE)
_EXTRA_GUMBEL, _EXTRA_SAMPLE = int(DrawSlot.EXTRA_ROOT_GUMBEL), int(DrawSlot.EXTRA_ROOT_SAMPLE)
_ROOT_PIECE = (-INF, INF, 0.0, 1.0)


class PartitionKind(Enum):
    GLOBAL_BOUND = "global_bound"
    SAMPLE_SPLIT = "sample_split"
    DYADIC = "dyadic"


# The hot path compares with these: a class lookup of a member costs ~0.2 us
_GLOBAL_BOUND, _SAMPLE_SPLIT, _DYADIC = (
    PartitionKind.GLOBAL_BOUND, PartitionKind.SAMPLE_SPLIT, PartitionKind.DYADIC)


class NodeRecord(NamedTuple):
    """One search node.

    ``low``/``high`` are the region endpoints and ``ulow``/``uhigh`` their
    proposal CDF values; ``key`` is the state after (seed, key node) that
    the node's draws branch from (see ``node_sample``); ``g`` is the node's
    Gumbel, located at the log of the region's proposal mass and
    truncated at its parent's ``g``. A child fresh from ``expand`` has no
    key (None) and its parent's ``g``, an upper bound on its own, until
    ``realize`` draws both.
    """

    heap_index: int
    depth: int
    low: float
    high: float
    ulow: float
    uhigh: float
    key: int | None
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


Piece = tuple[float, float, float, float]  # (low, high, ulow, uhigh)


def _partition_u(kind: PartitionKind, low: float, high: float, ulow: float, uhigh: float,
                 x: float, proposal: Distribution1D) -> tuple[Piece | None, Piece | None]:
    """Partition with cached CDF endpoints carried through to children."""
    if kind is _GLOBAL_BOUND:
        return None, (low, high, ulow, uhigh)
    if kind is _SAMPLE_SPLIT:
        cut, ucut = x, proposal.cdf(x)
    elif kind is _DYADIC:
        ucut = 0.5 * (ulow + uhigh)
        cut = proposal.inv_cdf(ucut)
    else:  # pragma: no cover
        raise DomainError(f"unknown partition kind {kind}")
    left = (low, cut, ulow, ucut) if low < cut else None
    right = (cut, high, ucut, uhigh) if cut < high else None
    return left, right


def node_sample(proposal: Distribution1D, kind: PartitionKind, key: int, index: int,
                depth: int, ulow: float, uhigh: float) -> float:
    """A node's sample, drawn from its key state ``key``, the state after
    (seed, key node). The key node is the heap index, but a chain node's
    index (its depth) would name a split-tree node, so every chain node
    is keyed by node 1 and draws at counter depth - 1 (else 0). Heap
    index 0, the extra root, draws from the EXTRA_ROOT slots."""
    if kind is _GLOBAL_BOUND:
        state = absorb(absorb(key, _SAMPLE), depth - 1)
    else:
        state = absorb(absorb(key, _SAMPLE if index else _EXTRA_SAMPLE), 0)
    return sample_restricted_u(proposal, ulow, uhigh, state_uniform(state))


def _realize(index: int, depth: int, piece: Piece, key: int, slot: int, counter: int,
             bound: float) -> NodeRecord:
    """A node with its Gumbel drawn from ``key`` at (slot, counter)."""
    low, high, ulow, uhigh = piece
    u = state_uniform(absorb(absorb(key, slot), counter))
    g = trunc_gumbel(u, math.log(uhigh - ulow), bound)
    return NodeRecord(index, depth, low, high, ulow, uhigh, key, g)


def make_root(stream: int) -> NodeRecord:
    """Realize the root node: the full line, mass one, untruncated Gumbel.
    ``stream`` is the search's ``seed_state(seed)``. Every partition rule
    keys the root alike (node 1, counter 0)."""
    return _realize(1, 1, _ROOT_PIECE, absorb(stream, 1), _GUMBEL, 0, INF)


def extra_root(stream: int, root: NodeRecord) -> NodeRecord:
    """The depth-limited coder's second root-level candidate, heap index
    0: a full-line draw whose Gumbel is truncated at the root's."""
    return _realize(0, 1, _ROOT_PIECE, absorb(stream, 0), _EXTRA_GUMBEL, 0, root.g)


def expand(node: NodeRecord, kind: PartitionKind, proposal: Distribution1D,
           x: float) -> list[NodeRecord]:
    """The children of a node, with nothing drawn yet.

    ``x`` is the node's sample, which a sample-split cut reads. Children
    with zero proposal mass are skipped, as are slots emptied by the
    partition rule. Each child carries its region, no key state, and the
    node's Gumbel as its ``g``: the bound that ``realize`` truncates the
    child's own Gumbel at, and so an upper bound on it.
    """
    depth, g = node.depth + 1, node.g
    if kind is _GLOBAL_BOUND:
        return [NodeRecord(depth, depth, node.low, node.high, node.ulow, node.uhigh, None, g)]
    pieces = _partition_u(kind, node.low, node.high, node.ulow, node.uhigh, x, proposal)
    children: list[NodeRecord] = []
    for piece, index in zip(pieces, heap_children(node.heap_index)):
        if piece is not None and piece[3] - piece[2] > 0.0:
            children.append(NodeRecord(index, depth, *piece, None, g))
    return children


def realize(child: NodeRecord, kind: PartitionKind, base: int) -> NodeRecord:
    """A child from ``expand`` with its key state and its Gumbel drawn:
    location the log of its proposal mass, truncated at its ``g`` (the
    parent's Gumbel). ``base`` is the state the child's key branches
    from: in a split tree the search's ``seed_state(seed)``, which absorbs
    the child's heap index; on the chain the root's ``key``, node 1's key
    state, which every chain node shares."""
    index, depth = child.heap_index, child.depth
    if kind is _GLOBAL_BOUND:
        key, counter = base, depth - 1
    else:
        key, counter = absorb(base, index), 0
    return _realize(index, depth, child[2:6], key, _GUMBEL, counter, child.g)


def locate(proposal: Distribution1D, kind: PartitionKind, seed: int, index: int,
           depth: int) -> float:
    """The sample of the node at ``index`` and ``depth`` (an index at that
    depth), bit-exact against encoding.

    A dyadic node at depth 1 < d <= 54 reads its region off its index: with
    k = index - 2^(d-1) its CDF ends are k * 2^-(d-1) and (k+1) * 2^-(d-1),
    the very floats the partition arithmetic gives, since halving a sum of
    dyadic rationals is exact while d - 1 <= 53. Its x-ends are the
    proposal quantiles q of those ends (q(0) = -inf, q(1) = +inf), and the
    code is refused, as an empty partition slot, unless q(ulow) < q(uhigh):
    q does not decrease, so a slot emptied on the way down empties every
    node below it. The decode is one draw and at most two more ``inv_cdf``
    calls.

    Any other code takes the decode walk: it rebuilds the regions on the
    heap path from the root (the index's digits after its leading 1;
    0 = left, 1 = right) with the partition arithmetic and node keys of
    ``make_root``, ``expand`` and ``realize``, refusing a step into an
    empty slot. Only a sample-split cut reads an ancestor's sample, so only
    that walk draws one. A chain node is found by its depth alone; index 0
    at depth 1 is ``extra_root``. Both, and the root, are one full-line
    draw straight from the node's key.
    """
    stream = seed_state(seed)
    if kind is _DYADIC and 1 < depth <= EXACT_DYADIC_DEPTH:
        k = index - (1 << (depth - 1))
        ulow, uhigh = _ldexp(k, 1 - depth), _ldexp(k + 1, 1 - depth)
        # an end at 0 or 1 has an infinite quantile, so only two inner ends can meet
        if 0.0 < ulow and uhigh < 1.0 and not proposal.inv_cdf(ulow) < proposal.inv_cdf(uhigh):
            raise InvalidCodeError(f"heap index {index} leads into an empty partition slot")
        return node_sample(proposal, kind, absorb(stream, index), index, depth, ulow, uhigh)
    low, high, ulow, uhigh = _ROOT_PIECE
    if kind is not _GLOBAL_BOUND and depth > 1:
        split_at_sample = kind is _SAMPLE_SPLIT
        x = math.nan  # a dyadic cut reads no sample
        for shift in range(depth - 1, 0, -1):
            if split_at_sample:
                node = index >> shift
                x = node_sample(proposal, kind, absorb(stream, node), node, depth - shift,
                                ulow, uhigh)
            piece = _partition_u(kind, low, high, ulow, uhigh, x, proposal)[
                (index >> (shift - 1)) & 1]
            if piece is None:
                raise InvalidCodeError(f"heap index {index} leads into an empty partition slot")
            low, high, ulow, uhigh = piece
    key = absorb(stream, 1 if kind is _GLOBAL_BOUND else index)
    return node_sample(proposal, kind, key, index, depth, ulow, uhigh)
