"""The search draws a child's Gumbel when it reaches the top of the queue.

``eager_search`` below is the search loop as first written: it draws
every child's Gumbel as soon as its parent is expanded, and prunes the
child against the parent's bound, then its own. The search in
``reckit.coders`` queues a child at its parent's Gumbel plus its own
bound and draws it later. Both must give the same code, sample, steps,
depth and lower bound, or refuse with the same error class, and the
late draws must make far fewer Gumbel draws. PFR has no tree: its loop
is checked against ``reference_coder.pfr``, which draws every arrival
from its full ``StreamKey`` and shares no code with it.
"""

import heapq
import math
from typing import NamedTuple

import pytest

import reference_coder
from reckit import coders, tree
from reckit.bench import mixture_pair
from reckit.coders import Code, Variant, check_budget, encode_astar, encode_dad
from reckit.distributions import Gaussian, PairSpec, sample_restricted_u
from reckit.errors import BudgetExhaustedError, RecError, UnboundedRatioError
from reckit.isokl import gaussian_from_kl_dinf
from reckit.randomness import DrawSlot, seed_state, seed_uniform
from reckit.tree import PartitionKind, expand, realize

INF = math.inf
STD = Gaussian(0.0, 1.0)
KINDS = {"as": PartitionKind.SAMPLE_SPLIT, "ad": PartitionKind.DYADIC,
         "pfr": PartitionKind.GLOBAL_BOUND}


def kl_dinf_cell(kl, dinf):
    return PairSpec(Gaussian(*gaussian_from_kl_dinf(kl, dinf)), STD)


PAIRS = {
    "kl0.9-dinf2": kl_dinf_cell(0.9, 2.0),
    "kl2.1-dinf4": kl_dinf_cell(2.1, 4.0),
    "kl3.0-dinf6": kl_dinf_cell(3.0, 6.0),
    "mixture8": mixture_pair(8, 1.0),
    "tail+3": PairSpec(Gaussian(3.0, 0.9), STD),
    "tail-3": PairSpec(Gaussian(-3.0, 0.9), STD),
}


class Node(NamedTuple):
    """A node drawn at expansion: heap index, depth, region, CDF ends, and
    ``realize``'s sample uniform and Gumbel."""

    heap_index: int
    depth: int
    low: float
    high: float
    ulow: float
    uhigh: float
    u: float
    g: float


def realize_node(stream, index, depth, low, high, ulow, uhigh, bound):
    return Node(index, depth, low, high, ulow, uhigh,
                *realize(stream, index, ulow, uhigh, bound))


def decoder_sample(proposal, seed, index, ulow, uhigh):
    """A node's sample as a decoder draws it: its SAMPLE slot at counter 0
    (EXTRA_ROOT_SAMPLE at heap index 0), keyed from the seed."""
    slot = DrawSlot.SAMPLE if index else DrawSlot.EXTRA_ROOT_SAMPLE
    return sample_restricted_u(proposal, ulow, uhigh, seed_uniform(seed, index, slot, 0))


def eager_search(pair, kind, seed, max_depth, max_steps, extra_root=False):
    """The branch-and-bound loop with every child drawn at expansion. The
    root is node 1, the full line, untruncated; with ``extra_root`` the
    depth-limited coder's extra root (heap index 0, truncated at the
    root's Gumbel) starts as the incumbent. A node's sample is drawn as a
    decoder draws it, from the seed (``decoder_sample``), not from the
    ``u`` that ``realize`` gives the search."""
    proposal = pair.proposal
    stream = seed_state(seed)
    root = realize_node(stream, 1, 1, -INF, INF, 0.0, 1.0, INF)
    root_bound = pair.bound_M(-INF, INF)
    lb, best, best_x = -INF, None, math.nan
    if extra_root:
        incumbent = realize_node(stream, 0, 1, -INF, INF, 0.0, 1.0, root.g)
        best_x = decoder_sample(proposal, seed, 0, 0.0, 1.0)
        lb, best = incumbent.g + pair.log_ratio(best_x), incumbent
    heap = [(-(root.g + root_bound), root.heap_index, root_bound, root)]
    steps = 0
    while heap and lb < -heap[0][0]:
        _, index, bound, node = heapq.heappop(heap)
        if steps >= max_steps:
            raise BudgetExhaustedError(f"search exceeded {max_steps} steps")
        steps += 1
        x = decoder_sample(proposal, seed, index, node.ulow, node.uhigh)
        score = node.g + pair.log_ratio(x)
        if score > lb or (score == lb and (best is None or index < best.heap_index)):
            lb, best, best_x = score, node, x
        if node.depth < max_depth:
            depth = node.depth + 1
            for child_index, low, high, ulow, uhigh, child_bound in expand(
                    kind, proposal, pair.bound_M, x, index, *node[2:6]):
                child = realize_node(stream, child_index, depth, low, high, ulow, uhigh, node.g)
                g = child.g
                if lb < g + bound:
                    if lb < g + child_bound:
                        heapq.heappush(
                            heap, (-(g + child_bound), child.heap_index, child_bound, child)
                        )
    return best, best_x, steps, lb


def eager_encode(coder, pair, seed, max_steps):
    """``encode_astar``/``encode_dad`` over ``eager_search``, and PFR over
    ``reference_coder.pfr``: coder is a ``KINDS`` name or ("dad", budget)."""
    if coder in KINDS:
        if pair.analytic_dinf() == INF:
            raise UnboundedRatioError("unbounded ratio")
        if coder == "pfr":
            arrival, x, steps, lb = reference_coder.pfr(pair, seed, max_steps)
            code = Code(Variant.PFR, arrival)
            return code, x, coders._stats(code, steps, arrival, lb)
        kind = KINDS[coder]
        best, x, steps, lb = eager_search(pair, kind, seed, INF, max_steps)
        code = Code(coders._VARIANT_OF_KIND[kind], best.heap_index)
    else:
        budget = coder[1]
        check_budget(budget)
        best, x, steps, lb = eager_search(pair, PartitionKind.DYADIC, seed, budget, INF,
                                          extra_root=True)
        code = Code(Variant.DAD_STAR, best.heap_index, budget=budget)
    return code, x, coders._stats(code, steps, best.depth, lb)


def lazy_encode(coder, pair, seed, max_steps):
    if coder in KINDS:
        return encode_astar(pair, KINDS[coder], seed, max_steps=max_steps)
    return encode_dad(pair, seed, coder[1])


def outcome(encode, coder, pair, seed, max_steps):
    try:
        code, x, stats = encode(coder, pair, seed, max_steps)
    except (RecError, reference_coder.BudgetExhaustedError) as error:
        return type(error).__name__
    return code, x.hex(), stats


def coders_for(pair):
    """as, ad, DAD at budgets 4 and 8, and PFR where the runtime grid runs it
    (its expected arrivals grow like e^D-infinity)."""
    out = ["as", "ad", ("dad", 4), ("dad", 8)]
    if pair.analytic_dinf() <= coders.CODERS[Variant.PFR].max_dinf:
        out.append("pfr")
    return out


@pytest.mark.parametrize("name", PAIRS)
def test_late_draws_match_the_eager_search(name):
    pair = PAIRS[name]
    refusals = 0
    for coder in coders_for(pair):
        for seed in range(300):
            want = outcome(eager_encode, coder, pair, seed, 2e4)
            got = outcome(lazy_encode, coder, pair, seed, 2e4)
            assert got == want, (coder, seed)
            refusals += isinstance(got, str)
    if name.startswith("tail"):
        assert refusals  # the refusals of ROADMAP item 1 stay where they were


def test_late_draws_match_the_eager_search_at_the_step_budget():
    """A child drawn at the top of the queue is no step: the budget
    refuses at the same pop, and PFR's at the same arrival."""
    pair = PAIRS["kl2.1-dinf4"]
    for coder in KINDS:
        seen = set()
        for seed in range(100):
            for max_steps in (range(1, 9) if coder == "pfr" else (1, 2, 3, 5, 8)):
                want = outcome(eager_encode, coder, pair, seed, max_steps)
                assert outcome(lazy_encode, coder, pair, seed, max_steps) == want
                seen.add(want if isinstance(want, str) else "ok")
        assert seen == {"ok", "BudgetExhaustedError"}


class SkewedBounds(PairSpec):
    """A pair whose region bounds are lifted by a keyed amount, so that a
    sub-region's bound often exceeds its region's. Rounding does this to
    the Gaussian kernel's bounds near the ratio mode; here it is common
    enough that the parent's bound decides whether some children enter
    the queue."""

    def bound_M(self, low, high):
        return super().bound_M(low, high) + (hash((low, high)) % 7) * 0.15


def test_late_draws_match_the_eager_search_when_a_child_bound_exceeds_its_parents():
    base = PAIRS["kl2.1-dinf4"]
    pair = SkewedBounds(base.target, base.proposal)
    for coder in ("as", "ad", ("dad", 6)):
        for seed in range(150):
            want = outcome(eager_encode, coder, pair, seed, 2e4)
            assert outcome(lazy_encode, coder, pair, seed, 2e4) == want, (coder, seed)


def test_late_draws_make_fewer_gumbel_draws(monkeypatch):
    """At KL 2.1 / D-inf 4 over 200 seeds an exact search draws at most
    0.6x the Gumbels of drawing every child at expansion, and a PFR
    encode draws one per step plus the root's. The tree search looks
    ``trunc_gumbel`` up in ``tree``, the PFR loop in ``coders``. Each
    encode runs on a fresh pair, whose search expands every node it pops;
    on a pair that remembers its dyadic nodes an AD* or DAD* search
    makes the same draws and calls ``expand`` for none of them."""
    draws, children, expands = [0], [0], [0]

    def counting_trunc_gumbel(u, location, bound):
        draws[0] += 1
        return trunc_gumbel(u, location, bound)

    def counting_expand(*args):
        out = expand(*args)
        expands[0] += 1
        children[0] += len(out)
        return out

    trunc_gumbel = tree.trunc_gumbel
    assert coders.trunc_gumbel is trunc_gumbel
    monkeypatch.setattr(tree, "trunc_gumbel", counting_trunc_gumbel)
    monkeypatch.setattr(coders, "trunc_gumbel", counting_trunc_gumbel)
    monkeypatch.setattr(coders, "expand", counting_expand)
    pair = PAIRS["kl2.1-dinf4"]

    def fresh():
        return PairSpec(pair.target, pair.proposal)

    encoders = {
        "as": lambda pair, seed: encode_astar(pair, PartitionKind.SAMPLE_SPLIT, seed),
        "ad": lambda pair, seed: encode_astar(pair, PartitionKind.DYADIC, seed),
        "dad8": lambda pair, seed: encode_dad(pair, seed, 8),
    }
    for name, encode in encoders.items():
        draws[0] = children[0] = 0
        for seed in range(200):
            encode(fresh(), seed)
        eager = 200 * (1 + (name == "dad8")) + children[0]  # the roots, then every child
        assert draws[0] <= 0.6 * eager, (name, draws[0], eager)
        if name == "as":
            continue
        cold = draws[0]
        warm = fresh()
        for seed in range(200):  # every search fills the memo
            encode(warm, seed)
        draws[0] = expands[0] = 0
        for seed in range(200):
            encode(warm, seed)
        assert (draws[0], expands[0]) == (cold, 0), name
    for seed in range(200):
        draws[0] = 0
        steps = encode_astar(fresh(), PartitionKind.GLOBAL_BOUND, seed)[2].steps
        assert draws[0] == steps + 1
