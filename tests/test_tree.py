"""Search tree tests: indexing, partition rules, and the top-down race."""

import heapq
import math
from typing import NamedTuple

import numpy as np
import pytest

from reckit.coders import encode_astar
from reckit.distributions import Gaussian, PairSpec, Uniform, sample_restricted_u
from reckit.errors import DepthExceededError, DomainError, InvalidCodeError
from reckit.randomness import (
    DrawSlot,
    StreamKey,
    absorb,
    derive_seed,
    keyed_uniform,
    seed_state,
    trunc_gumbel,
)
from reckit.tree import (
    MAX_DEPTH,
    PartitionKind,
    _cut,
    expand,
    heap_children,
    locate,
    node_sample,
    realize,
)

GAUSS = Gaussian(0.0, 1.0)
SPLITS = (PartitionKind.SAMPLE_SPLIT, PartitionKind.DYADIC)


def partition(kind, region, x, proposal):
    """(left, right) child regions (low, high) of a split; None marks an
    empty slot."""
    low, high = region
    ulow, uhigh = proposal.cdf(low), proposal.cdf(high)
    cut, _ = _cut(kind, proposal, ulow, uhigh, x)
    return ((low, cut) if low < cut else None,
            (cut, high) if cut < high else None)


def mass(dist, region):
    low, high = region
    return dist.cdf(high) - dist.cdf(low)


def sample(node, proposal=GAUSS):
    """A realized node's sample, as the search takes it at a pop."""
    return sample_restricted_u(proposal, node.ulow, node.uhigh, node.u)


def no_bound(low, high):
    """The ratio bound ``expand`` gives the race oracle's children, which
    read none."""
    return 0.0


class Node(NamedTuple):
    """A drawn node as these tests hold it: its heap index, depth, region
    and CDF ends, and the sample uniform and Gumbel that ``realize`` gives."""

    heap_index: int
    depth: int
    low: float
    high: float
    ulow: float
    uhigh: float
    u: float
    g: float

    @property
    def mass(self) -> float:
        return self.uhigh - self.ulow


def realize_node(stream, index, depth, low, high, ulow, uhigh, bound):
    return Node(index, depth, low, high, ulow, uhigh,
                *realize(stream, index, ulow, uhigh, bound))


def search_root(seed):
    """The root and the stream ``realize`` keys from, as a search holds
    them: the root is node 1 at depth 1, the full line, drawn untruncated."""
    stream = seed_state(seed)
    return realize_node(stream, 1, 1, -math.inf, math.inf, 0.0, 1.0, math.inf), stream


def pop_and_expand(node, kind, proposal, stream):
    """A popped node's children, all drawn: its sample, then its children
    (a sample-split cut reads the sample), each realized as the search
    realizes a child that reaches the top of its queue."""
    children = expand(kind, proposal, no_bound, sample(node, proposal), node.heap_index,
                      *node[2:6])
    return [realize_node(stream, index, node.depth + 1, low, high, ulow, uhigh, node.g)
            for index, low, high, ulow, uhigh, _ in children]


def top_down_process(proposal, kind, seed, max_yields=None, depth_limit=math.inf):
    """Oracle: yield realized nodes in strictly decreasing Gumbel order.

    This is the top-down construction of the Gumbel race: a priority
    queue ordered by the realized Gumbel alone. The first yield is the
    root (Gumbel(0) arrival, sample from the whole proposal); nodes at
    the depth limit are yielded but not expanded.
    """
    root, stream = search_root(seed)
    heap = [(-root.g, root.heap_index, root)]
    yielded = 0
    while heap and (max_yields is None or yielded < max_yields):
        _, _, node = heapq.heappop(heap)
        if node.depth < depth_limit:
            for child in pop_and_expand(node, kind, proposal, stream):
                heapq.heappush(heap, (-child.g, child.heap_index, child))
        yielded += 1
        yield node


def test_heap_children():
    assert heap_children(1) == (2, 3)
    assert heap_children(5) == (10, 11)
    # indices at depth d occupy [2^(d-1), 2^d)
    for h in (1, 2, 3, 6, 13):
        lo, hi = heap_children(h)
        assert lo.bit_length() == hi.bit_length() == h.bit_length() + 1
    with pytest.raises(DepthExceededError):
        heap_children(1 << 61)


def test_partition_sample_split():
    left, right = partition(PartitionKind.SAMPLE_SPLIT, (-1.0, 2.0), 0.5, GAUSS)
    assert left == (-1.0, 0.5)
    assert right == (0.5, 2.0)


def test_partition_dyadic_halves_mass():
    region = (-0.7, 1.9)
    left, right = partition(PartitionKind.DYADIC, region, 0.123, GAUSS)
    assert left[1] == right[0]
    assert mass(GAUSS, left) == pytest.approx(mass(GAUSS, region) / 2, abs=1e-15)
    assert mass(GAUSS, right) == pytest.approx(mass(GAUSS, region) / 2, abs=1e-15)


def test_locate_refuses_the_global_bound_chain():
    """The chain never cuts a region, so it has no tree to walk: a PFR code
    decodes in one draw (``coders.decode_pfr``), and ``locate`` refuses it."""
    for depth in (1, 2, 9):
        with pytest.raises(DomainError):
            locate(GAUSS, PartitionKind.GLOBAL_BOUND, 7, depth)


def test_locate_reads_the_depth_off_the_index():
    """A heap index carries its depth, its bit length, so ``locate`` takes
    none. It decodes every depth up to MAX_DEPTH and DAD*'s extra root,
    index 0, and refuses an index no search makes: a negative one, 0 under
    sample splitting, which has no extra root, and one deeper than MAX_DEPTH."""
    for kind in (PartitionKind.SAMPLE_SPLIT, PartitionKind.DYADIC):
        assert math.isfinite(locate(GAUSS, kind, 7, 1 << (MAX_DEPTH - 1)))
        for index in (-1, -5, 1 << MAX_DEPTH, (1 << MAX_DEPTH) + 1, 1 << 70):
            with pytest.raises(InvalidCodeError):
                locate(GAUSS, kind, 7, index)
    assert math.isfinite(locate(GAUSS, PartitionKind.DYADIC, 7, 0))
    with pytest.raises(InvalidCodeError):
        locate(GAUSS, PartitionKind.SAMPLE_SPLIT, 7, 0)


def test_partition_empty_side():
    # splitting at the region edge leaves one empty slot
    left, right = partition(PartitionKind.SAMPLE_SPLIT, (0.0, 1.0), 0.0, Uniform(0.5, 1.0))
    assert left is None and right == (0.0, 1.0)


def test_cut_rounding_onto_a_region_end_empties_that_side():
    # a dyadic cut of a region one float wide: the median CDF value is a
    # tie, which rounds to the even end, and the cut lands on that end
    uniform = Uniform(0.5, 1.0)  # on (0, 1): cdf and inv_cdf are the identity
    a = 0.5  # even
    b = math.nextafter(a, 1.0)
    c = math.nextafter(b, 1.0)  # even
    assert _cut(PartitionKind.DYADIC, uniform, a, b, math.nan) == (a, a)
    assert partition(PartitionKind.DYADIC, (a, b), math.nan, uniform) == (None, (a, b))
    assert _cut(PartitionKind.DYADIC, uniform, b, c, math.nan) == (c, c)
    assert partition(PartitionKind.DYADIC, (b, c), math.nan, uniform) == ((b, c), None)
    # expand drops exactly the emptied child
    assert expand(PartitionKind.DYADIC, uniform, no_bound, math.nan, 5, a, b, a, b) == [
        (11, a, b, a, b, 0.0)]
    assert expand(PartitionKind.DYADIC, uniform, no_bound, math.nan, 5, b, c, b, c) == [
        (10, b, c, b, c, 0.0)]


def test_realize_draws_the_root():
    root, stream = search_root(7)
    assert stream == seed_state(7)  # every node is keyed afresh
    assert root.heap_index == 1 and root.depth == 1
    assert (root.low, root.high) == (-math.inf, math.inf)
    assert (root.ulow, root.uhigh) == (0.0, 1.0)
    assert root.mass == 1.0
    # the SAMPLE slot's uniform of the state after (seed, node 1)
    assert root.u == keyed_uniform(StreamKey(7, 1, DrawSlot.SAMPLE, 0))
    # the untruncated Gumbel(0) of the root's key (node 1, GUMBEL slot)
    assert root.g == trunc_gumbel(keyed_uniform(StreamKey(7, 1, 0, 0)), 0.0, math.inf)
    assert math.isfinite(sample(root))
    # a decoder draws the same sample from the key state alone
    assert sample(root) == node_sample(GAUSS, absorb(seed_state(7), 1), 1, 0.0, 1.0)
    assert search_root(7)[0] == root  # deterministic
    assert search_root(8)[0] != root
    # the PFR chain's first arrival draws the root's Gumbel too (node 1,
    # counter 0): with Q = P its race stops after that arrival, scored at it
    stats = encode_astar(PairSpec(GAUSS, GAUSS), PartitionKind.GLOBAL_BOUND, 7)[2]
    assert (stats.steps, stats.lower_bound) == (1, root.g)


def test_expand_children_tile_parent():
    for seed in range(20):
        node, stream = search_root(seed)
        for _ in range(6):
            children = pop_and_expand(node, PartitionKind.SAMPLE_SPLIT, GAUSS, stream)
            assert 1 <= len(children) <= 2
            assert sum(c.mass for c in children) == pytest.approx(node.mass, abs=1e-12)
            for c in children:
                assert c.depth == node.depth + 1
                assert c.heap_index in heap_children(node.heap_index)
                assert c.g <= node.g  # race order
                assert node.low <= c.low < c.high <= node.high
                assert c.low < sample(c) < c.high
                # cached endpoints match fresh CDF evaluation
                assert c.ulow == pytest.approx(GAUSS.cdf(c.low), abs=1e-15)
                assert c.uhigh == pytest.approx(GAUSS.cdf(c.high), abs=1e-15)
            node = children[0]


def test_expand_leaves_children_undrawn():
    """expand gives regions and their ratio bounds only, (heap_index, low,
    high, ulow, uhigh, bound), the bound the pair's ``bound_M`` of the
    child's region; realize draws the sample uniform and the Gumbel
    truncated at the parent's."""
    pair = PairSpec(Gaussian(0.8, 0.3), GAUSS)
    for kind in SPLITS:
        node, stream = search_root(4)
        for child in expand(kind, GAUSS, pair.bound_M, sample(node), node.heap_index,
                            *node[2:6]):
            index, low, high, ulow, uhigh, bound = child
            assert node.low <= low < high <= node.high and ulow < uhigh
            assert bound == pair.bound_M(low, high)
            u, g = realize(stream, index, ulow, uhigh, node.g)
            assert 0.0 < u < 1.0 and g <= node.g


def test_expand_dyadic_mass_is_exact_power_of_two():
    node, stream = search_root(99)
    for d in range(2, 24):
        children = pop_and_expand(node, PartitionKind.DYADIC, GAUSS, stream)
        assert len(children) == 2
        for c in children:
            assert c.mass == 2.0 ** -(d - 1)  # exact, not approximate
        node = children[1]


def test_top_down_gumbels_strictly_decrease():
    for kind in SPLITS:
        last = math.inf
        for node in top_down_process(GAUSS, kind, seed=11, max_yields=200):
            assert node.g < last
            last = node.g


def test_top_down_is_deterministic():
    a = list(top_down_process(GAUSS, PartitionKind.SAMPLE_SPLIT, 3, max_yields=50))
    b = list(top_down_process(GAUSS, PartitionKind.SAMPLE_SPLIT, 3, max_yields=50))
    assert a == b


def test_top_down_depth_limit():
    nodes = list(
        top_down_process(GAUSS, PartitionKind.DYADIC, 21, max_yields=500, depth_limit=4)
    )
    assert len(nodes) == 15  # the full tree of depth <= 4
    assert max(n.depth for n in nodes) == 4
    assert sorted(n.heap_index for n in nodes) == list(range(1, 16))


def test_top_down_race_samples_proposal():
    """The first arrival's sample is an unconditional proposal draw, so
    over seeds it must reproduce the proposal distribution."""
    from scipy import stats

    xs = [sample(search_root(derive_seed(13, i))[0]) for i in range(4000)]
    assert stats.kstest(xs, "norm").pvalue > 0.01


def test_top_down_matches_exchangeable_race_across_kinds():
    """Partition choice changes the tree, not the race law: the k-th
    largest Gumbel should be identically distributed across kinds."""
    k = 5
    n = 1500

    def kth_gumbel(kind, base):
        out = []
        for i in range(n):
            nodes = top_down_process(GAUSS, kind, derive_seed(base, i), max_yields=k)
            out.append(list(nodes)[-1].g)
        return np.array(out)

    split = kth_gumbel(PartitionKind.SAMPLE_SPLIT, 1000)
    dyad = kth_gumbel(PartitionKind.DYADIC, 2000)
    from scipy import stats

    assert stats.ks_2samp(split, dyad).pvalue > 0.01

