"""Keyed stream and Gumbel transform tests.

The mixing function is wire-format: the frozen values here pin it. The
first block of anchors are the published splitmix64 outputs for seed 0
(our mix64(z) is one advance-and-finalize step, so mix64(k*GOLDEN) is
output k+1 of the reference generator).
"""

import math
import random
import struct
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reckit import randomness
from reckit.randomness import (
    _GOLDEN,
    DrawSlot,
    StreamKey,
    absorb,
    counter_uniform,
    counter_uniforms,
    derive_seed,
    derived_slot_uniforms,
    keyed_uniform,
    seed_state,
    slot_uniform,
    slot_uniform_pair,
    slot_uniforms,
    state_uniform,
    trunc_gumbel,
)

MASK = (1 << 64) - 1


def gumbel(u: float, location: float = 0.0) -> float:
    """The untruncated Gumbel(location) draw."""
    return trunc_gumbel(u, location, math.inf)

# reference splitmix64 outputs for seed 0
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

# regression anchors for the composed key mix (frozen from this build)
KEYED_ANCHORS = [
    ((0, 1, 0, 0), 0.41151647971900557),
    ((0, 1, 1, 0), 0.7121578271641327),
    ((12345, 1, 0, 0), 0.02991346905561415),
    ((12345, 7, 1, 3), 0.5548121838519797),
    ((1 << 63, 0, 2, 0), 0.8505076310912969),
]


def test_mix64_matches_published_splitmix64_outputs():
    for k, expected in enumerate(SPLITMIX64_SEED0):
        assert seed_state(k * _GOLDEN) == expected  # seed_state(z) = mix64(z mod 2^64)


def test_keyed_uniform_anchors():
    for key, expected in KEYED_ANCHORS:
        assert keyed_uniform(StreamKey(*key)) == expected


def test_draw_shapes_match_the_absorb_chain():
    rng = random.Random(20260817)
    states = [0, 1, MASK, 1 << 63] + [rng.getrandbits(64) for _ in range(500)]
    for state in states:
        for slot in range(4):
            assert slot_uniform(state, slot) == state_uniform(absorb(absorb(state, slot), 0))
        for counter in (0, 1, 1 << 62, MASK):
            assert counter_uniform(state, counter) == state_uniform(absorb(state, counter))
            assert counter_uniforms(state, counter, 2) == [
                state_uniform(absorb(state, counter + i)) for i in range(2)]
        nodes = [0, 1, 1 << 62, MASK]
        for slot in range(4):
            assert slot_uniforms(state, nodes, slot) == [
                state_uniform(absorb(absorb(absorb(state, node), slot), 0)) for node in nodes]
        for node in nodes:
            key = absorb(state, node)
            assert slot_uniform_pair(state, node, 1, 0) == (
                state_uniform(absorb(absorb(key, 1), 0)), state_uniform(absorb(absorb(key, 0), 0)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(state=st.integers(0, MASK), n=st.integers(0, 600),
       where=st.sampled_from(("zero", "random", "top")), r=st.integers(0, MASK))
def test_counter_uniforms_match_counter_uniform(state, n, where, r):
    """The packed batch draw, across several 256-counter batches, equals
    one counter_uniform per counter; "top" ends the run at counter 2^62."""
    start = {"zero": 0, "random": r, "top": (1 << 62) - n}[where]
    assert counter_uniforms(state, start, n) == [
        counter_uniform(state, start + i) for i in range(n)]


FIELDS = st.one_of(st.sampled_from((0, 1, 1 << 61, (1 << 62) - 1)), st.integers(0, MASK))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stream=st.one_of(st.sampled_from((0, 1, 1 << 63, MASK)), st.integers(0, MASK)),
       fields=st.lists(FIELDS, max_size=62), slot=st.integers(0, 3))
def test_slot_uniforms_match_slot_uniform(stream, fields, slot):
    """The packed path draw equals one absorb and one slot_uniform per
    field, for every path a decode walk can name (depth 62 at most) and
    for any 64-bit field."""
    assert slot_uniforms(stream, fields, slot) == [
        slot_uniform(absorb(stream, f), slot) for f in fields]


# the (SAMPLE, GUMBEL) slots a search node draws, and the extra root's
TREE_SLOT_PAIRS = ((DrawSlot.SAMPLE, DrawSlot.GUMBEL),
                   (DrawSlot.EXTRA_ROOT_SAMPLE, DrawSlot.EXTRA_ROOT_GUMBEL))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(stream=st.one_of(st.sampled_from((0, 1, 1 << 63, MASK)), st.integers(0, MASK)),
       field=st.one_of(st.sampled_from((0, MASK)), st.integers(0, MASK)),
       slots=st.one_of(st.sampled_from(TREE_SLOT_PAIRS),
                       st.tuples(st.integers(0, MASK), st.integers(0, MASK))))
def test_slot_uniform_pair_matches_two_slot_uniforms(stream, field, slots):
    """The two-lane draw equals one absorb and two slot_uniforms, bit for
    bit, over every 64-bit stream and field and on both slot pairs that
    ``reckit.tree`` draws (and any other pair of slots)."""
    slot_a, slot_b = map(int, slots)
    key = absorb(stream, field)
    assert slot_uniform_pair(stream, field, slot_a, slot_b) == (
        slot_uniform(key, slot_a), slot_uniform(key, slot_b))


NODES = st.one_of(st.sampled_from((0, 1, (1 << 62) - 1)), st.integers(0, (1 << 62) - 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), stream=st.one_of(st.sampled_from((0, MASK)), st.integers(0, MASK)),
       n=st.sampled_from((1, 6, 256, 257)))
def test_derived_slot_uniforms_match_the_absorb_chain(data, stream, n):
    """Lane i of the packed draw equals its five-field absorb chain: the
    lane index (derive_seed), seed_state's zero field, the node, the slot
    and counter 0, for heap indices below 2^62, a vector of 1, 6, 256 or
    257 lanes (two batches) and any slots a decoder draws."""
    nodes = data.draw(st.lists(NODES, min_size=n, max_size=n))
    slots = data.draw(st.lists(st.sampled_from((DrawSlot.SAMPLE, DrawSlot.EXTRA_ROOT_SAMPLE)),
                               min_size=n, max_size=n))
    assert derived_slot_uniforms(stream, nodes, slots) == [
        state_uniform(absorb(absorb(absorb(absorb(absorb(stream, i), -_GOLDEN), node), slot), 0))
        for i, (node, slot) in enumerate(zip(nodes, slots))]


def test_slot_uniforms_batches_past_256_fields():
    rng = random.Random(20260817)
    stream, fields = rng.getrandbits(64), [rng.getrandbits(64) for _ in range(600)]
    assert slot_uniforms(stream, fields, 1) == [slot_uniform(absorb(stream, f), 1) for f in fields]


class _BigEndianView:
    """A memoryview as a big-endian host builds it: ``cast("Q")`` reads
    each 8 bytes high byte first."""

    def __init__(self, data: bytes) -> None:
        self.data = data

    def cast(self, fmt: str) -> tuple:
        return struct.unpack(f">{len(self.data) // 8}{fmt}", self.data)


def test_packed_draws_unpack_on_a_big_endian_host(monkeypatch):
    """Replayed through struct, a big-endian host's layout (the top lane
    first, high word first) reads the same uniforms as the scalar draws."""
    assert randomness._LOW_WORDS == randomness._LOW_WORDS_OF[sys.byteorder]
    monkeypatch.setattr(randomness, "sys", types.SimpleNamespace(byteorder="big"))
    monkeypatch.setattr(randomness, "memoryview", _BigEndianView, raising=False)
    monkeypatch.setattr(randomness, "_LOW_WORDS", randomness._LOW_WORDS_OF["big"])
    rng = random.Random(4242)
    state, fields = rng.getrandbits(64), [rng.getrandbits(64) for _ in range(40)]
    assert counter_uniforms(state, 5, 300) == [counter_uniform(state, 5 + i) for i in range(300)]
    assert slot_uniforms(state, fields, 1) == [slot_uniform(absorb(state, f), 1) for f in fields]
    slots = [1, 3] * 160
    assert derived_slot_uniforms(state, fields * 8, slots) == [
        slot_uniform(absorb(seed_state(absorb(state, i)), f), slot)
        for i, (f, slot) in enumerate(zip(fields * 8, slots))]


def test_draw_shapes_reproduce_the_keyed_anchors():
    for (seed, node, slot, counter), expected in KEYED_ANCHORS:
        node_state = absorb(seed_state(seed), node)
        assert counter_uniform(absorb(node_state, slot), counter) == expected
        if counter == 0:
            assert slot_uniform(node_state, slot) == expected
            stream = seed_state(seed)
            assert slot_uniform_pair(stream, node, slot, slot ^ 1)[0] == expected
            assert slot_uniform_pair(stream, node, slot ^ 1, slot)[1] == expected


def test_keyed_uniform_is_pure():
    key = StreamKey(987654321, 42, int(DrawSlot.SAMPLE), 17)
    vals = {keyed_uniform(key) for _ in range(50)}
    assert len(vals) == 1


def test_keyed_uniform_open_interval():
    # extremes of the state space still land strictly inside (0, 1)
    for seed in (0, 1, MASK, 1 << 63):
        for idx in (0, 1, MASK):
            u = keyed_uniform(StreamKey(seed, idx, 3, MASK))
            assert 0.0 < u < 1.0
            assert math.isfinite(math.log(u))
            assert math.isfinite(math.log(-math.log(u)))


def test_keyed_uniform_field_sensitivity():
    base = StreamKey(11, 22, 1, 33)
    u0 = keyed_uniform(base)
    assert keyed_uniform(StreamKey(12, 22, 1, 33)) != u0
    assert keyed_uniform(StreamKey(11, 23, 1, 33)) != u0
    assert keyed_uniform(StreamKey(11, 22, 0, 33)) != u0
    assert keyed_uniform(StreamKey(11, 22, 1, 34)) != u0


def test_keyed_uniform_distribution():
    # seeded Monte-Carlo: first two moments and a coarse CDF check
    us = np.array(
        [keyed_uniform(StreamKey(314159, i, 0, 0)) for i in range(20000)]
    )
    assert abs(us.mean() - 0.5) < 0.01
    assert abs(us.var() - 1.0 / 12.0) < 0.005
    for q in (0.1, 0.25, 0.5, 0.75, 0.9):
        assert abs((us < q).mean() - q) < 0.015


def test_derive_seed_decorrelates():
    seeds = [derive_seed(7, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    us = np.array([keyed_uniform(StreamKey(s, 1, 0, 0)) for s in seeds])
    assert abs(us.mean() - 0.5) < 0.03


def test_gumbel_closed_forms():
    # -log(-log(e^-e)) = -1 and location shifts additively
    assert gumbel(math.exp(-math.e)) == pytest.approx(-1.0, abs=1e-12)
    assert gumbel(math.exp(-1.0)) == pytest.approx(0.0, abs=1e-12)
    assert gumbel(0.3, location=2.5) == pytest.approx(2.5 + gumbel(0.3), abs=1e-12)


def test_gumbel_moments():
    us = [keyed_uniform(StreamKey(999, i, 0, 0)) for i in range(40000)]
    vals = np.array([gumbel(u) for u in us])
    assert abs(vals.mean() - 0.5772156649015329) < 0.02  # Euler-Mascheroni
    assert abs(vals.var() - math.pi**2 / 6.0) < 0.06


def test_trunc_gumbel_analytic_point():
    # u = 1/e at bound 0: - log(exp(0) - log(1/e)) = -log 2
    g = trunc_gumbel(math.exp(-1.0), 0.0, 0.0)
    assert g == pytest.approx(-math.log(2.0), abs=1e-12)


def test_trunc_gumbel_respects_bound():
    for i in range(3000):
        u = keyed_uniform(StreamKey(5, i, 0, 0))
        bound = (i % 7) - 3.0
        loc = (i % 5) - 2.0
        assert trunc_gumbel(u, loc, bound) <= bound


def test_trunc_gumbel_infinite_bound_is_plain_gumbel():
    for u in (0.01, 0.37, 0.99):
        assert trunc_gumbel(u, 1.2, math.inf) == 1.2 - math.log(-math.log(u))


def test_trunc_gumbel_extreme_bounds_stay_finite():
    g = trunc_gumbel(0.5, 0.0, -700.0)
    assert math.isfinite(g) and g <= -700.0
    g = trunc_gumbel(0.5, 0.0, 700.0)
    assert g == pytest.approx(gumbel(0.5), abs=1e-12)


def test_trunc_gumbel_distribution():
    """Conditioning check: TG(0, b) should match Gumbel(0) draws kept
    below b (inverse-CDF route vs rejection route, same uniforms)."""
    bound = 0.8
    kept = []
    for i in range(60000):
        u = keyed_uniform(StreamKey(77, i, 0, 0))
        g = gumbel(u)
        if g <= bound:
            kept.append(g)
    trunc = [
        trunc_gumbel(keyed_uniform(StreamKey(78, i, 0, 0)), 0.0, bound)
        for i in range(len(kept))
    ]
    kept, trunc = np.array(kept), np.array(trunc)
    assert abs(kept.mean() - trunc.mean()) < 0.02
    assert abs(np.quantile(kept, 0.5) - np.quantile(trunc, 0.5)) < 0.03


def test_arrival_map():
    # the first arrival of the exponential race, exp(-g), is -log u
    for u in (0.05, 0.5, 0.73):
        assert math.exp(-gumbel(u)) == pytest.approx(-math.log(u), rel=1e-14)
    # racing chain: decreasing Gumbels are increasing arrival times
    g1 = gumbel(0.73)
    g2 = trunc_gumbel(0.21, 0.0, g1)
    assert math.exp(-g2) >= math.exp(-g1)
