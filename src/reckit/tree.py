"""Heap-indexed search tree over proposal regions.

Nodes are identified ahnentafel-style: the root is 1 and node H has
children 2H and 2H+1, so a node at depth D (root depth 1) has an index
in [2^(D-1), 2^D): an index carries its own depth, its bit length, and
fits in D bits once D is known. Two partition rules are supported:

* SAMPLE_SPLIT: split the region at the node's own sample.
* DYADIC: split at the proposal median of the region, so the two
  children carry exactly half the parent's proposal mass each. No cut
  reads a sample, so a dyadic node's region, and with it its children
  and their ratio bounds, follows from its heap index alone, which is
  what lets a pair remember a node's children, bounds included, across
  searches (``coders._astar_search``).

The global-bound race (PFR) never cuts a region, so it has no tree: it
is a loop in ``reckit.coders``. Its member of ``PartitionKind`` only
lets a caller pick it as it picks a split rule.

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

Draws are made as late as the search allows. The search holds a node
as the flat fields of its queue entry, not as an object: ``expand``
takes a node's (heap_index, low, high, ulow, uhigh) and the pair's
``bound_M`` and returns its children as (heap_index, low, high, ulow,
uhigh, bound) tuples, regions and their ratio bounds only. A child has
no draws yet; the search queues it at its parent's Gumbel, the bound
its own is truncated at, and ``realize`` returns its (u, g), the sample
uniform and the Gumbel, from one two-lane draw (``slot_uniform_pair``)
when it reaches the top of the queue. A node's sample, the quantile of
``u`` over its region, waits until the node itself is popped, since
pruning reads only the Gumbel and the region. Every node is drawn by
``realize``, the root included: it is node 1 with CDF ends 0 and 1 and
an untruncated Gumbel, and the depth-limited coder's extra root is the
same full-line draw at heap index 0, truncated at the root's Gumbel.
A decoder (``locate``) draws a node's sample uniform alone, the same
value from the same key, starting from the seed.

This module is the one place that says how a node's draws are keyed
(``realize``, ``locate``), where a region is cut (``_cut``; ``expand``
keeps both sides, the decode walk the one its code names) and how a
decoder finds a node again from its index alone (``locate``): the
encoder's ``expand``/``realize`` and the decoder share them. A
sample-split decode draws the samples of its whole path at once, in one
``packed_uniforms`` call, so a level of its walk is one quantile and one
cut. A block vector's dyadic codes are decoded together
(``locate_dyadic_vector``): one ``packed_uniforms`` call draws every
code's sample uniform, and each code reads its region off its index
through the helper ``locate`` uses (``_dyadic_sample``).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

from .distributions import Distribution1D, sample_restricted_u
from .errors import DepthExceededError, DomainError, InvalidCodeError
from .randomness import SEED_FIELD, DrawSlot, absorb, packed_uniforms, seed_state, seed_uniform
from .randomness import slot_pair, slot_uniform_pair, trunc_gumbel
from .randomness import keyed_uniform  # noqa: F401  (benchmarks/run.py traces it here)

MAX_DEPTH = 62  # packed heap indices must fit in 64 bits with headroom
# The deepest dyadic node whose CDF ends, k * 2^-(d-1) and (k+1) * 2^-(d-1),
# the partition arithmetic computes exactly (d - 1 <= 53 bits)
EXACT_DYADIC_DEPTH = 54

INF = math.inf
_ldexp = math.ldexp
_GUMBEL, _SAMPLE = int(DrawSlot.GUMBEL), int(DrawSlot.SAMPLE)
_EXTRA_GUMBEL, _EXTRA_SAMPLE = int(DrawSlot.EXTRA_ROOT_GUMBEL), int(DrawSlot.EXTRA_ROOT_SAMPLE)
# realize's slot words: a node's (SAMPLE, GUMBEL), and the extra root's
_NODE_SLOTS, _EXTRA_SLOTS = slot_pair(_SAMPLE, _GUMBEL), slot_pair(_EXTRA_SAMPLE, _EXTRA_GUMBEL)
_ROOT_PIECE = (-INF, INF, 0.0, 1.0)
_END = 1 << MAX_DEPTH  # the first heap index deeper than MAX_DEPTH


class PartitionKind(Enum):
    GLOBAL_BOUND = "global_bound"
    SAMPLE_SPLIT = "sample_split"
    DYADIC = "dyadic"


# The hot path compares with these: a class lookup of a member costs ~0.2 us
_SAMPLE_SPLIT, _DYADIC = PartitionKind.SAMPLE_SPLIT, PartitionKind.DYADIC


def heap_children(heap_index: int) -> tuple[int, int]:
    """Child indices (2H, 2H+1), refusing to grow past packable depth."""
    if heap_index.bit_length() + 1 > MAX_DEPTH:
        raise DepthExceededError(
            f"children of node {heap_index} exceed depth {MAX_DEPTH}"
        )
    return 2 * heap_index, 2 * heap_index + 1


def _cut(kind: PartitionKind, proposal: Distribution1D, ulow: float, uhigh: float,
         x: float) -> tuple[float, float]:
    """(cut, its CDF value) of a split region with CDF ends ``ulow`` and ``uhigh``:
    a sample-split node cuts at its sample ``x``, a dyadic node at the
    proposal median. A side (low, cut) or (cut, high) whose ends meet is empty."""
    if kind is _SAMPLE_SPLIT:
        return x, proposal.cdf(x)
    ucut = 0.5 * (ulow + uhigh)
    return proposal.inv_cdf(ucut), ucut


# (heap_index, low, high, ulow, uhigh, bound)
Child = tuple[int, float, float, float, float, float]


def expand(kind: PartitionKind, proposal: Distribution1D,
           bound_M: Callable[[float, float], float], x: float, index: int,
           low: float, high: float, ulow: float, uhigh: float) -> list[Child]:
    """The children of the node at ``index`` whose region is (``low``,
    ``high``) with CDF ends ``ulow`` and ``uhigh``, as (heap_index, low,
    high, ulow, uhigh, bound), ``bound`` the pair's ``bound_M(low, high)``
    of the child's region, taken left child first.

    ``x`` is the node's sample, which a sample-split cut reads. Children
    with zero proposal mass are skipped, as are slots emptied by the
    partition rule. Nothing is drawn: ``realize`` draws a child's sample
    uniform and Gumbel, truncated at the node's own Gumbel.
    """
    cut, ucut = _cut(kind, proposal, ulow, uhigh, x)
    lindex, rindex = heap_children(index)
    children: list[Child] = []
    if low < cut and ulow < ucut:
        children.append((lindex, low, cut, ulow, ucut, bound_M(low, cut)))
    if cut < high and ucut < uhigh:
        children.append((rindex, cut, high, ucut, uhigh, bound_M(cut, high)))
    return children


def realize(stream: int, index: int, ulow: float, uhigh: float,
            bound: float) -> tuple[float, float]:
    """The sample uniform and Gumbel of the node at ``index`` with CDF
    ends ``ulow`` and ``uhigh``, (u, g), from one two-lane draw
    (``slot_uniform_pair``) on the key state after (seed, heap index),
    ``stream`` being the search's ``seed_state(seed)``; its slot word,
    (SAMPLE, GUMBEL) or the extra root's pair, is packed once, at
    import (``randomness.slot_pair``). ``u`` is the
    SAMPLE slot's uniform at counter 0 (the EXTRA_ROOT one at heap index
    0), the one ``locate`` draws, and the node's sample is its
    quantile over the region, ``sample_restricted_u(proposal, ulow,
    uhigh, u)``. ``g`` is the GUMBEL slot's Gumbel, located at the log of
    the node's proposal mass and truncated at ``bound``, its parent's
    Gumbel (no bound, ``INF``, for the root; the root's Gumbel for the
    extra root)."""
    u, ug = slot_uniform_pair(stream, index, _NODE_SLOTS if index else _EXTRA_SLOTS)
    return u, trunc_gumbel(ug, math.log(uhigh - ulow), bound)


def _dyadic_sample(proposal: Distribution1D, index: int, u: float) -> float:
    """The sample of the dyadic node at heap ``index`` for its sample
    uniform ``u``, its region read off the index, for an index at depth
    d = ``index.bit_length()`` <= ``EXACT_DYADIC_DEPTH``. The root and the
    extra root (index 0) hold the whole line. With k = index - 2^(d-1) a
    deeper node's CDF ends are k * 2^-(d-1) and (k+1) * 2^-(d-1), the very
    floats the partition arithmetic gives, since halving a sum of dyadic
    rationals is exact while d - 1 <= 53. Its x-ends are the proposal
    quantiles q of those ends (q(0) = -inf, q(1) = +inf), and the code is
    refused with ``InvalidCodeError``, as an empty partition slot, unless
    q(ulow) < q(uhigh): q does not decrease, so a slot emptied on the way
    down empties every node below it. The test is the proposal's
    ``quantiles_differ``, which a Gaussian answers without a quantile
    wherever its bound decides, so a code costs one ``inv_cdf`` call for its
    sample and at most two more for the test."""
    if index < 2:
        return sample_restricted_u(proposal, 0.0, 1.0, u)
    depth = index.bit_length()
    k = index - (1 << (depth - 1))
    ulow, uhigh = _ldexp(k, 1 - depth), _ldexp(k + 1, 1 - depth)
    # an end at 0 or 1 has an infinite quantile, so only two inner ends can meet
    if 0.0 < ulow and uhigh < 1.0 and not proposal.quantiles_differ(ulow, uhigh):
        raise InvalidCodeError(f"heap index {index} leads into an empty partition slot")
    return sample_restricted_u(proposal, ulow, uhigh, u)


def locate(proposal: Distribution1D, kind: PartitionKind, seed: int, index: int) -> float:
    """The sample of the node at heap ``index`` of a split tree, bit-exact
    against encoding, at depth d = ``index.bit_length()`` (the extra root,
    index 0, at depth 1). ``InvalidCodeError`` refuses an index no search
    makes: a negative one, 0 under sample splitting, or one deeper than
    ``MAX_DEPTH``. The global-bound race has no tree to walk
    (``coders.decode_pfr`` decodes it), so its kind is refused with
    ``DomainError``.

    Every code's own sample uniform is drawn up front, from its key
    (seed, index, SAMPLE, 0), or EXTRA_ROOT_SAMPLE at index 0: for the
    root and the extra root and every dyadic code, one
    ``randomness.seed_uniform`` call from the seed. The root and the extra
    root, and a dyadic node at depth d <= 54, then read their region off
    the index (``_dyadic_sample``, which refuses an emptied slot), so such
    a decode is one draw and at most three ``inv_cdf`` calls: one for the
    sample, and the two of the emptied-slot test only where the proposal's
    ``quantiles_differ`` cannot decide without them.

    Any other code takes the decode walk: it rebuilds the regions on the
    heap path from the root (the index's digits after its leading 1; 0 =
    left, 1 = right) with the cuts of ``expand``, keeping the side each
    digit names and refusing a step into an empty slot, and ends with the
    node's sample over its region. Only a sample-split cut reads an
    ancestor's sample, so that walk draws its whole path, root to node,
    in one ``packed_uniforms`` call from ``seed_state(seed)`` (each node's
    SAMPLE slot at counter 0) before it starts, and a level then costs
    one quantile (inv_cdf) and one cut (cdf).
    """
    if kind is not _SAMPLE_SPLIT and kind is not _DYADIC:
        raise DomainError(f"{kind} has no tree to walk")
    if not 0 < index < _END and (index or kind is _SAMPLE_SPLIT):
        raise InvalidCodeError(f"no {kind.value} search makes heap index {index}")
    depth = index.bit_length()  # 0 for the extra root, which decodes as the root does
    split_at_sample = kind is _SAMPLE_SPLIT and depth > 1
    if split_at_sample:  # the path's sample uniforms, root to node
        us = packed_uniforms(seed_state(seed), depth,
                             [index >> shift for shift in range(depth - 1, -1, -1)], _SAMPLE, 0)
        u = us[-1]
    else:
        u = seed_uniform(seed, index, _SAMPLE if index else _EXTRA_SAMPLE, 0)
        if depth <= EXACT_DYADIC_DEPTH:
            return _dyadic_sample(proposal, index, u)  # the whole line below depth 2
    low, high, ulow, uhigh = _ROOT_PIECE
    x = math.nan  # a dyadic cut reads no sample
    for shift in range(depth - 1, 0, -1):
        if split_at_sample:  # the sample of the ancestor index >> shift
            x = sample_restricted_u(proposal, ulow, uhigh, us[depth - 1 - shift])
        cut, ucut = _cut(kind, proposal, ulow, uhigh, x)
        if (index >> (shift - 1)) & 1:
            low, ulow = cut, ucut
        else:
            high, uhigh = cut, ucut
        if not low < high:
            raise InvalidCodeError(f"heap index {index} leads into an empty partition slot")
    return sample_restricted_u(proposal, ulow, uhigh, u)


def locate_dyadic_vector(proposals: list[Distribution1D], stream: int,
                         indices: list[int]) -> list[float]:
    """[locate(p, DYADIC, derive_seed(seed, i), h) for i, (p, h) in
    enumerate(zip(proposals, indices))], bit for bit, for heap indices
    0 <= h < 2^62 and ``stream`` = seed_state(seed): the samples of a
    vector of dyadic codes, code i drawing in the stream derive_seed(seed,
    i). One ``packed_uniforms`` call draws every code's sample uniform,
    the one ``locate`` draws, SAMPLE's or codeword 0's EXTRA_ROOT one:
    lane i absorbs i and ``SEED_FIELD`` (the state of the stream
    derive_seed(seed, i)), its index, its slot and counter 0. A code at
    depth <= 54 then reads its region off its index as ``locate`` does
    (``_dyadic_sample``); a deeper one takes ``locate``'s walk. The codes
    decode in order, so a refused vector raises the refusal of its first
    refused code."""
    n = len(indices)
    us = packed_uniforms(stream, n, range(n), SEED_FIELD, indices,
                         [_SAMPLE if h else _EXTRA_SAMPLE for h in indices], 0)
    samples = []
    for i, (proposal, index, u) in enumerate(zip(proposals, indices, us)):
        if index >> EXACT_DYADIC_DEPTH:
            samples.append(locate(proposal, _DYADIC, absorb(stream, i), index))
        else:
            samples.append(_dyadic_sample(proposal, index, u))
    return samples
