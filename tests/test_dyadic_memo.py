"""A pair remembers the children and bounds of its dyadic nodes.

A dyadic region is cut at its proposal median, so a node's children,
their x-ends and their ratio bounds depend on the pair and the heap
index alone. ``coders._astar_search`` keeps them in the pair's memo, one
dict of heap index: children, each child with its bound (and index 0:
the root's bound), filled by every AD* and DAD* search from the pair's
first, and reads them in place of ``expand``, which calls ``bound_M``.
A warm pair must give what a fresh pair gives, bit for bit: the same
code, sample, steps, depth and lower bound, or the same error class.
"""

import math
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reckit import coders
from reckit.coders import CODERS, Variant, encode_astar, encode_dad
from reckit.distributions import Gaussian, PairSpec, Uniform
from reckit.errors import RecError
from reckit.tree import PartitionKind, expand
from test_lazy_draws import PAIRS
from test_search_golden import SEARCHES, writer

DYADIC = PartitionKind.DYADIC
MAX_STEPS = 20_000
CODER_CHOICES = ["ad", *range(3, 9)]  # AD*, or DAD* at that budget
SOURCES = {**PAIRS, "uniform-in-gauss": PairSpec(Uniform(0.4, 1.5), Gaussian(0.0, 1.0))}


def fresh(pair):
    return PairSpec(pair.target, pair.proposal)


def warmed(pair):
    """A fresh pair past its first dyadic search."""
    warm = fresh(pair)
    encode_dad(warm, 0, 1)
    return warm


WARM = {name: warmed(pair) for name, pair in SOURCES.items()}


def outcome(pair, coder, seed):
    try:
        if coder == "ad":
            code, x, stats = encode_astar(pair, DYADIC, seed, max_steps=MAX_STEPS)
        else:
            code, x, stats = encode_dad(pair, seed, coder)
    except RecError as exc:
        return type(exc).__name__
    return (code.payload, code.depth_or_budget, x.hex(), stats.steps, stats.returned_depth,
            stats.lower_bound.hex())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1),
       coder_list=st.lists(st.sampled_from(CODER_CHOICES), min_size=1, max_size=5))
def test_a_warm_pair_searches_as_a_fresh_one(seed, coder_list):
    """AD* and DAD* at budgets 3-8, interleaved on one pair object per
    source whose memo grows over every example, against a fresh pair."""
    for name, source in SOURCES.items():
        warm = WARM[name]
        for coder in coder_list:
            want = outcome(fresh(source), coder, seed)
            assert outcome(warm, coder, seed) == want, (name, coder, seed)
            if isinstance(want, str):  # a refusal is never remembered: it raises again
                assert outcome(warm, coder, seed) == want, (name, coder, seed)


def test_a_warm_pair_refuses_what_a_fresh_one_refuses():
    """The tail pairs' dives end in DomainError at a saturated median or
    DepthExceededError at the depth cap; neither expansion is stored, so
    a warm pair raises the same class on every search that reaches it."""
    refused = Counter()
    for name in ("tail+3", "tail-3"):
        warm = warmed(PAIRS[name])
        for seed in range(40):
            want = outcome(fresh(PAIRS[name]), "ad", seed)
            for _ in range(2):
                assert outcome(warm, "ad", seed) == want, (name, seed)
            if isinstance(want, str):
                refused[want] += 1
    assert refused["DomainError"] and refused["DepthExceededError"], refused


def dyadic_groups():
    """(source, coder, rows) of the search golden's AD* and DAD* groups,
    coder as ``outcome`` takes it, each row's outcome as ``outcome``
    returns it, then its counted calls."""
    for group, rows in SEARCHES.items():
        source, coder = group.split()
        if coder == "ad" or coder.startswith("dad"):
            yield source, "ad" if coder == "ad" else int(coder[3:]), [
                (row[0] if isinstance(row[0], str) else tuple(row[:6]),
                 row[-len(writer.COUNTERS):]) for row in rows]


@pytest.mark.parametrize("name", list(writer.PAIRS))
def test_warm_pairs_match_the_search_golden(name):
    """One pair object per source runs every AD* and DAD* group of the
    search golden, seed after seed: every outcome is the golden's, which
    was recorded on a fresh pair per encode."""
    pair = fresh(writer.PAIRS[name])
    searched = 0
    for source, coder, rows in dyadic_groups():
        if source == name:
            for seed, (want, _) in enumerate(rows):
                assert outcome(pair, coder, seed) == want, (coder, seed)
                searched += 1
    assert searched == 7 * writer.SEEDS
    assert pair._dyadic_memo[0] and pair._dyadic_memo[1] and len(pair._dyadic_memo) > 2


def test_a_first_dyadic_search_counts_todays_calls_and_fills_the_memo(monkeypatch):
    """A pair's first dyadic search makes the counted calls of the search
    golden, whose every encode runs on a fresh pair, and leaves in the
    memo the root's bound and every expansion that returned."""
    returned = {}

    def recording_expand(kind, proposal, bound_M, x, index, *region):
        returned[index] = expand(kind, proposal, bound_M, x, index, *region)
        return returned[index]

    monkeypatch.setattr(coders, "expand", recording_expand)  # counted inside writer.counting
    for source, coder, rows in dyadic_groups():
        for seed, (want, want_counts) in enumerate(rows[:3]):
            pair = fresh(writer.PAIRS[source])
            returned.clear()
            with writer.counting() as counts:
                assert outcome(pair, coder, seed) == want, (source, coder, seed)
            assert [counts[name] for name in writer.COUNTERS] == want_counts, (
                source, coder, seed)
            root_bound = pair.bound_M(-math.inf, math.inf)
            assert pair._dyadic_memo == {0: root_bound, **returned}, (source, coder, seed)


def test_a_pair_searched_without_a_dyadic_tree_gets_no_memo():
    for source in SOURCES.values():
        pair = fresh(source)
        for variant in (Variant.AS_STAR, Variant.PFR, Variant.MRC):
            spec = CODERS[variant]
            if pair.analytic_dinf() > spec.max_dinf:
                continue
            for seed in range(20):
                try:
                    spec.encode(pair, seed, 4 if spec.fixed_width else None, MAX_STEPS)
                except RecError:
                    pass
        assert pair._dyadic_memo == {}


@pytest.mark.parametrize("name", list(SOURCES))
def test_a_memo_holds_only_expansions_that_returned(monkeypatch, name):
    """Every entry is a node some search expanded without raising, stored
    as ``expand``'s children, or the root's bound under index 0; each
    child's bound is the ``bound_M`` of its region. A node whose expansion
    raised is never stored."""
    returned, raised = {}, set()

    def recording_expand(kind, proposal, bound_M, x, index, *region):
        try:
            children = expand(kind, proposal, bound_M, x, index, *region)
        except RecError:
            raised.add(index)
            raise
        assert returned.setdefault(index, children) == children  # the same on every call
        return children

    monkeypatch.setattr(coders, "expand", recording_expand)
    pair = fresh(SOURCES[name])
    for seed in range(150):
        for coder in ("ad", 4, 8):
            outcome(pair, coder, seed)
    children_of = dict(pair._dyadic_memo)
    assert children_of.pop(0) == pair.bound_M(-math.inf, math.inf)
    assert children_of and set(children_of) <= set(returned)
    assert not set(children_of) & raised
    for index, children in children_of.items():
        assert children == returned[index], index
        for _, low, high, _, _, bound in children:
            assert bound == pair.bound_M(low, high), (index, low, high)
    if name.startswith("tail"):
        assert raised  # the refused dives expand nothing they could store


def test_threads_sharing_a_pair_search_as_a_fresh_one():
    """Threads that share one pair race on its memo: two may fill one
    entry at once. Every entry is the same whichever thread
    computes it, so each search still gives the fresh pair's outcome."""
    source = PAIRS["kl3.0-dinf6"]
    seeds = range(60)
    want = {(coder, seed): outcome(fresh(source), coder, seed)
            for coder in ("ad", 6) for seed in seeds}
    pair, got = fresh(source), {}

    def work(offset):
        for seed in seeds:
            seed = (seed + offset) % len(seeds)
            for coder in ("ad", 6):
                got[coder, seed, offset] = outcome(pair, coder, seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(7 * k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == 4 * len(want)
    for (coder, seed, _), result in got.items():
        assert result == want[coder, seed], (coder, seed)
