"""Prefix-absorbed draws equal the per-key draws they replace.

Every draw absorbs its key's shared prefix once and branches from the
mixing state. ``reckit.tree`` keys every search node, the depth-limited
coder's extra root candidate (heap index 0) included, and ``tree.locate``
is the decode walk back to a node; the PFR loop keys its arrivals and
MRC its candidates in ``reckit.coders``, each with one helper shared by
encoding and decoding. Every such draw must equal ``keyed_uniform`` of
its full ``StreamKey``, and ``keyed_uniform`` must equal the recipe in
the ``reckit.randomness`` docstring, written out below without the
library's helpers.
"""

import math
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from reckit import coders
from reckit.coders import Code, Variant, decode, encode_astar, encode_mrc
from reckit.distributions import Gaussian, PairSpec, Uniform, sample_restricted_u
from reckit.isokl import gaussian_from_kl_dinf
from reckit.randomness import (
    DrawSlot,
    StreamKey,
    absorb,
    counter_uniform,
    derive_seed,
    keyed_uniform,
    packed_uniforms,
    seed_state,
    seed_uniform,
    state_uniform,
    trunc_gumbel,
)
from reckit.tree import MAX_DEPTH, PartitionKind, _cut, expand, locate, realize

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
GAUSS = Gaussian(0.0, 1.0)

SEEDS = st.one_of(
    st.integers(-(2**80), 2**80),
    st.sampled_from([0, -1, MASK, MASK + 1, 2**63, -(2**64), 3**60]),
)
FIELDS = st.one_of(st.integers(0, 2**70), st.sampled_from([0, 1, MASK, MASK + 1, 2**64 + 7]))


def reference_mix64(z: int) -> int:
    z = (z + GOLDEN) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference_uniform(seed: int, node: int, slot: int, counter: int) -> float:
    state = reference_mix64(seed & MASK)
    for field in (node, slot, counter):
        state = reference_mix64(state ^ ((field + GOLDEN) & MASK))
    return ((state >> 11) + 0.5) * 2.0 ** -53


def per_key(seed: int, node: int, slot: DrawSlot, counter: int = 0) -> float:
    return keyed_uniform(StreamKey(seed, node, int(slot), counter))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(seed=SEEDS, node=FIELDS, slot=st.integers(0, 3), counter=st.integers(0, 2**64))
def test_prefix_path_matches_keyed_uniform(seed, node, slot, counter):
    want = reference_uniform(seed, node, slot, counter)
    assert keyed_uniform(StreamKey(seed, node, slot, counter)) == want
    node_state = absorb(seed_state(seed), node)
    assert state_uniform(absorb(absorb(node_state, slot), counter)) == want
    assert seed_state(seed) == reference_mix64(seed & MASK)
    assert node_state == derive_seed(seed, node) == reference_mix64(
        reference_mix64(seed & MASK) ^ ((node + GOLDEN) & MASK))


class Node(NamedTuple):
    """A realized node: its heap index, depth, region and CDF ends, and
    ``realize``'s sample uniform and Gumbel."""

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


def _check_node(node, proposal, seed, bound):
    """``bound`` is the parent's Gumbel (+inf at the root). Returns the
    node's sample."""
    u_g = per_key(seed, node.heap_index, DrawSlot.GUMBEL)
    u_x = per_key(seed, node.heap_index, DrawSlot.SAMPLE)
    assert node.u == u_x
    assert node.g == trunc_gumbel(u_g, math.log(node.mass), bound)
    # the decoder's draw, from the seed, is the same sample
    assert seed_uniform(seed, node.heap_index, DrawSlot.SAMPLE, 0) == u_x
    x = sample_restricted_u(proposal, node.ulow, node.uhigh, u_x)
    return x


def realized_children(node, kind, proposal, stream, x):
    """``expand``'s children of ``node``, each realized."""
    return [realize_node(stream, index, node.depth + 1, low, high, ulow, uhigh, node.g)
            for index, low, high, ulow, uhigh, _ in expand(kind, proposal, no_bound, x,
                                                           node.heap_index, *node[2:6])]


def no_bound(low, high):
    """The ratio bound ``expand`` gives these children, which read none."""
    return 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_tree_draws_match_per_key_calls(seed):
    stream = seed_state(seed)
    for proposal in (GAUSS, Uniform(0.5, 1.0)):
        for kind in (PartitionKind.SAMPLE_SPLIT, PartitionKind.DYADIC):
            root = realize_node(stream, 1, 1, -math.inf, math.inf, 0.0, 1.0, math.inf)
            level = [(root, math.inf)]
            for _ in range(5):
                level = [(c, node.g) for node, bound in level
                         for c in realized_children(node, kind, proposal, stream,
                                                    _check_node(node, proposal, seed, bound))]
            assert level


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS)
def test_chain_draws_match_per_key_calls(seed):
    """The PFR loop's arrival k draws its Gumbel and its sample at counter
    k - 1 from node 1's GUMBEL and SAMPLE slot states: every draw equals
    the per-key one, the Gumbels sit at log-mass 0, each truncated at the
    last, so they never rise, every arrival's sample is fresh, and the
    code names the winner by its arrival index. The Gumbel after the last
    arrival is drawn unless the winner's score already reached its bound,
    as every in-support sample does under a uniform pair."""
    for pair in (PairSpec(Gaussian(0.4, 0.5), GAUSS),
                 PairSpec(Uniform(0.5, 0.5), Uniform(0.5, 1.0))):
        draws, gumbels = [], []

        def recording_draw(state, counter):
            draws.append((state, counter))
            return counter_uniform(state, counter)

        def recording_gumbel(u, location, bound):
            gumbels.append((u, location, bound))
            return trunc_gumbel(u, location, bound)

        original = coders.counter_uniform, coders.trunc_gumbel
        coders.counter_uniform, coders.trunc_gumbel = recording_draw, recording_gumbel
        try:
            code, x, stats = encode_astar(pair, PartitionKind.GLOBAL_BOUND, seed)
        finally:
            coders.counter_uniform, coders.trunc_gumbel = original
        node = absorb(seed_state(seed), 1)
        slot_of = {absorb(node, DrawSlot.GUMBEL): DrawSlot.GUMBEL,
                   absorb(node, DrawSlot.SAMPLE): DrawSlot.SAMPLE}
        steps = stats.steps
        want = [(DrawSlot.GUMBEL, 0)]
        for k in range(steps):
            want += [(DrawSlot.SAMPLE, k), (DrawSlot.GUMBEL, k + 1)]
        got = [(slot_of[state], k) for state, k in draws]
        gs, bound = [], math.inf
        for k, (u, location, gumbel_bound) in enumerate(gumbels):
            assert (u, location, gumbel_bound) == (per_key(seed, 1, DrawSlot.GUMBEL, k), 0.0,
                                                   bound)
            bound = trunc_gumbel(u, 0.0, bound)
            assert bound <= gumbel_bound
            gs.append(bound)
        reached = stats.lower_bound >= gs[steps - 1] + pair.bound_M(-math.inf, math.inf)
        assert got == (want[:-1] if reached else want)
        samples = [sample_restricted_u(pair.proposal, 0.0, 1.0,
                                       per_key(seed, 1, DrawSlot.SAMPLE, k))
                   for k in range(steps)]
        assert len(set(samples)) == steps  # a fresh sample per arrival
        assert code.payload == code.depth_or_budget == stats.returned_depth
        assert x == samples[code.payload - 1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=SEEDS, bits=st.integers(1, 7))
def test_mrc_candidate_uniforms_match_per_key_calls(seed, bits):
    seen = []

    def recording(state, n, *rounds):
        us = packed_uniforms(state, n, *rounds)
        seen.extend(us)
        return us

    original = coders.packed_uniforms
    coders.packed_uniforms = recording
    try:
        encode_mrc(PairSpec(Gaussian(0.4, 0.5), GAUSS), seed, bits)
    finally:
        coders.packed_uniforms = original
    assert seen == [per_key(seed, 0, DrawSlot.SAMPLE, i) for i in range(1 << bits)]


def per_key_walk(proposal, kind, index, seed):
    """tree.locate's walk, with every draw made from its full key."""
    low, high, ulow, uhigh = -math.inf, math.inf, 0.0, 1.0
    node = 1
    for bit in bin(index)[3:]:
        x = sample_restricted_u(proposal, ulow, uhigh, per_key(seed, node, DrawSlot.SAMPLE))
        cut, ucut = _cut(kind, proposal, ulow, uhigh, x)
        if bit == "1":
            low, ulow = cut, ucut
        else:
            high, uhigh = cut, ucut
        assert low < high  # no step into an empty slot
        node = 2 * node + int(bit)
    return sample_restricted_u(proposal, ulow, uhigh, per_key(seed, index, DrawSlot.SAMPLE))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS, depth=st.integers(1, 12), path=st.integers(0, 2**11 - 1))
def test_decode_walk_and_extra_root_match_per_key_calls(seed, depth, path):
    index = (1 << (depth - 1)) | (path & ((1 << (depth - 1)) - 1))
    for kind, variant in ((PartitionKind.DYADIC, Variant.AD_STAR),
                          (PartitionKind.SAMPLE_SPLIT, Variant.AS_STAR)):
        got = decode(GAUSS, Code(variant, index), seed)
        assert got == per_key_walk(GAUSS, kind, index, seed)
    stream = seed_state(seed)
    root = realize_node(stream, 1, 1, -math.inf, math.inf, 0.0, 1.0, math.inf)
    extra = realize_node(stream, 0, 1, -math.inf, math.inf, 0.0, 1.0, root.g)
    want_g = trunc_gumbel(per_key(seed, 0, DrawSlot.EXTRA_ROOT_GUMBEL), 0.0, root.g)
    want_x = sample_restricted_u(GAUSS, 0.0, 1.0, per_key(seed, 0, DrawSlot.EXTRA_ROOT_SAMPLE))
    extra_x = locate(GAUSS, PartitionKind.DYADIC, seed, 0)
    assert (extra.heap_index, extra.depth) == (0, 1)
    assert extra.u == per_key(seed, 0, DrawSlot.EXTRA_ROOT_SAMPLE)
    assert (extra.g, extra_x) == (want_g, want_x)
    assert sample_restricted_u(GAUSS, 0.0, 1.0, extra.u) == want_x
    assert decode(GAUSS, Code(Variant.DAD_STAR, 0, budget=depth), seed) == want_x


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS, k=st.integers(1, 2**64 - 1))
def test_single_draw_decodes_match_per_key_calls(seed, k):
    """MRC's codeword and PFR's arrival index name one draw each, up to the
    widest a code carries: a MAX_DEPTH-bit codeword, an index below 2^64."""
    i = (k - 1) & ((1 << MAX_DEPTH) - 1)
    mrc = decode(GAUSS, Code(Variant.MRC, i, budget=MAX_DEPTH), seed)
    assert mrc == sample_restricted_u(GAUSS, 0.0, 1.0, per_key(seed, 0, DrawSlot.SAMPLE, i))
    pfr = decode(GAUSS, Code(Variant.PFR, k), seed)
    assert pfr == sample_restricted_u(GAUSS, 0.0, 1.0, per_key(seed, 1, DrawSlot.SAMPLE, k - 1))


def test_chain_step_absorbs_only_its_counters(monkeypatch):
    """A PFR search branches node 1's key into its GUMBEL and SAMPLE slot
    states once, so a step absorbs two counters, one per draw: the root,
    those two states and the last arrival, drawn and pruned, are the
    constant. A fused draw counts the fields it absorbs."""
    calls = 0

    def counting(draw, fields):
        def counted(*args):
            nonlocal calls
            calls += fields
            return draw(*args)
        return counted

    monkeypatch.setattr(coders, "absorb", counting(absorb, 1))
    monkeypatch.setattr(coders, "counter_uniform", counting(counter_uniform, 1))
    pair = PairSpec(Gaussian(*gaussian_from_kl_dinf(2.1, 4.0)), GAUSS)
    total_steps = 0
    for seed in range(200):
        calls = 0
        steps = encode_astar(pair, PartitionKind.GLOBAL_BOUND, seed)[2].steps
        assert calls <= 2 * steps + 6
        total_steps += steps
    assert total_steps > 2000  # about e^4 arrivals per search
