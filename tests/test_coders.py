"""Coder tests against independent race oracles.

The oracles rebuild each race from the keyed stream with their own tree
arithmetic (no calls into the search code): the global-bound chain is
``reference_coder.pfr``'s loop over arrivals, and the exact variants are
checked by exhaustively enumerating every node down to a frontier depth
together with a bound certificate proving no deeper node can win.
"""

import math
import random
import re

import numpy as np
import pytest

import reference_coder
from reckit import coders, distributions, tree
from reckit.coders import (
    CODERS,
    Code,
    TrialStats,
    Variant,
    check_budget,
    decode,
    decode_dad,
    decode_mrc,
    decode_pfr,
    encode_astar,
    encode_dad,
    encode_mrc,
)
from reckit.distributions import (
    Gaussian,
    MixtureComponent,
    PairSpec,
    Uniform,
    UniformMixture,
    sample_restricted_u,
)
from reckit.errors import (
    BudgetExhaustedError,
    DomainError,
    InvalidCodeError,
    RecError,
    UnboundedRatioError,
)
from reckit.randomness import (DrawSlot, StreamKey, keyed_uniform, seed_state, slot_uniforms,
                              trunc_gumbel)
from reckit.isokl import gaussian_from_kl_dinf
from reckit.tree import MAX_DEPTH, PartitionKind, locate, realize

# Gaussian target with KL = 1 nat, ratio supremum = 2 nats (frozen in the
# distribution tests against quadrature).
PAIR_GG = PairSpec(Gaussian(1.3247751431696517, 0.45291085160915195), Gaussian(0.0, 1.0))
PAIR_UG = PairSpec(Uniform(0.25, 1.5), Gaussian(0.0, 1.0))
PAIR_MIX = PairSpec(
    UniformMixture((MixtureComponent(0.3, 0.1, 0.2), MixtureComponent(0.7, 0.5, 0.9))),
    Uniform(1.0, 2.0),
)
PAIR_UG_NEAR = PairSpec(Uniform(0.5, 1.0), Gaussian(0.4, 0.05))
ALL_PAIRS = [PAIR_GG, PAIR_UG, PAIR_MIX]


def gamma_bits(n: int) -> int:
    return 2 * (n.bit_length() - 1) + 1


def delta_bits(n: int) -> int:
    return (n.bit_length() - 1) + gamma_bits(n.bit_length())


# ---------------------------------------------------------------- oracles

def enumerate_race(pair: PairSpec, kind: PartitionKind, seed: int, depth_max: int):
    """Score every node of the race tree down to depth_max.

    Returns (best_index, best_x, best_score, frontier_bound) where
    frontier_bound caps the score of any node deeper than depth_max; the
    caller must check best_score >= frontier_bound for the enumeration to
    certify the true winner.
    """
    proposal = pair.proposal
    root_g = trunc_gumbel(
        keyed_uniform(StreamKey(seed, 1, int(DrawSlot.GUMBEL), 0)), 0.0, math.inf
    )
    root_x = sample_restricted_u(
        proposal, 0.0, 1.0, keyed_uniform(StreamKey(seed, 1, int(DrawSlot.SAMPLE), 0))
    )
    # frontier entries: (heap_index, low, high, ulow, uhigh, x, g)
    level = [(1, -math.inf, math.inf, 0.0, 1.0, root_x, root_g)]
    best_index, best_x, best_score = 1, root_x, root_g + pair.log_ratio(root_x)
    frontier_bound = -math.inf
    for depth in range(2, depth_max + 1):
        nxt = []
        for index, low, high, ulow, uhigh, x, g in level:
            if kind is PartitionKind.SAMPLE_SPLIT:
                cut, ucut = x, proposal.cdf(x)
            else:
                ucut = 0.5 * (ulow + uhigh)
                cut = proposal.inv_cdf(ucut)
            slots = []
            if low < cut:
                slots.append((2 * index, low, cut, ulow, ucut))
            if cut < high:
                slots.append((2 * index + 1, cut, high, ucut, uhigh))
            for child, clow, chigh, culow, cuhigh in slots:
                mass = cuhigh - culow
                if not mass > 0.0:
                    continue
                cg = trunc_gumbel(
                    keyed_uniform(StreamKey(seed, child, int(DrawSlot.GUMBEL), 0)),
                    math.log(mass),
                    g,
                )
                cx = sample_restricted_u(
                    proposal, culow, cuhigh,
                    keyed_uniform(StreamKey(seed, child, int(DrawSlot.SAMPLE), 0)),
                )
                score = cg + pair.log_ratio(cx)
                if score > best_score:
                    best_index, best_x, best_score = child, cx, score
                nxt.append((child, clow, chigh, culow, cuhigh, cx, cg))
        level = nxt
    for index, low, high, ulow, uhigh, x, g in level:
        frontier_bound = max(frontier_bound, g + pair.bound_M(low, high))
    return best_index, best_x, best_score, frontier_bound


def test_coder_table_lookup_by_value_finds_the_same_spec():
    # Variant and Unit hash by identity; a member rebuilt from its value
    # is the same object, so it finds the same table entry.
    for v in Variant:
        assert CODERS[Variant(v.value)] is CODERS[v]
        unit = CODERS[v].unit
        assert {unit: v}[type(unit)(unit.value)] is v
    assert [v.value for v in CODERS] == ["as", "ad", "pfr", "dad", "mrc"]


# ----------------------------------------------------------------- races

@pytest.mark.parametrize("pair", ALL_PAIRS)
def test_pfr_matches_arrival_chain(pair):
    for seed in range(300, 420):
        want_k, want_x, want_steps, want_score = reference_coder.pfr(pair, seed)
        code, x, stats = encode_astar(pair, PartitionKind.GLOBAL_BOUND, seed)
        assert code.variant is Variant.PFR
        assert code.payload == want_k
        assert code.depth_or_budget == want_k
        assert x == want_x
        assert stats.steps == want_steps
        assert stats.lower_bound == want_score
        assert decode(pair.proposal, code, seed) == x


@pytest.mark.parametrize("kind,variant", [
    (PartitionKind.DYADIC, Variant.AD_STAR),
    (PartitionKind.SAMPLE_SPLIT, Variant.AS_STAR),
])
def test_exact_search_matches_exhaustive_race(kind, variant):
    # PAIR_UG_NEAR: the ratio peaks at the target-support endpoint nearer
    # the proposal mean, inside regions that straddle it
    cases = [(PAIR_GG, range(40, 55)), (PAIR_UG_NEAR, range(20, 80))]
    certified = 0
    for pair, seeds in cases:
        for seed in seeds:
            want_index, want_x, want_score, frontier = enumerate_race(
                pair, kind, seed, depth_max=12
            )
            # the enumeration only witnesses the true winner when its score
            # already dominates everything reachable below the frontier
            assert want_score >= frontier, "frontier too shallow for this seed"
            certified += 1
            code, x, stats = encode_astar(pair, kind, seed)
            assert code.variant is variant
            assert code.payload == want_index, (pair.target, seed)
            assert code.depth_or_budget == want_index.bit_length()
            assert x == want_x
            assert stats.lower_bound == want_score
    assert certified == 75


def test_mrc_matches_selection_law():
    bits = 6
    n = 1 << bits
    for pair in ALL_PAIRS:
        for seed in range(900, 950):
            xs = np.array([
                sample_restricted_u(
                    pair.proposal, 0.0, 1.0,
                    keyed_uniform(StreamKey(seed, 0, int(DrawSlot.SAMPLE), i)),
                )
                for i in range(n)
            ])
            log_w = np.array([pair.log_ratio(float(v)) for v in xs])
            top = log_w.max()
            w = np.exp(log_w - top) if top > -math.inf else np.ones(n)
            c = np.cumsum(w)
            u_sel = keyed_uniform(StreamKey(seed, 0, int(DrawSlot.GUMBEL), 0))
            threshold = u_sel * math.fsum(w.tolist())
            pos = int(np.searchsorted(c, threshold, side="left"))
            want = pos if pos < n else n - 1
            code, x, stats = encode_mrc(pair, seed, bits)
            assert code.payload == want
            assert x == xs[want]
            assert stats.steps == n
            assert stats.payload_bits == bits and stats.overhead_bits == 0


def test_mrc_all_miss_falls_back_to_uniform():
    # proposal mass entirely outside the mixture support is impossible by
    # construction, so force misses with a target far in the uniform tail
    target = UniformMixture((MixtureComponent(1.0, 1.9990, 1.9995),))
    pair = PairSpec(target, Uniform(1.0, 2.0))
    hit_fallback = False
    for seed in range(200):
        code, x, stats = encode_mrc(pair, seed, 3)
        if stats.lower_bound == -math.inf:
            hit_fallback = True
            # uniform fallback: threshold u*8 against unit weights
            u_sel = keyed_uniform(StreamKey(seed, 0, int(DrawSlot.GUMBEL), 0))
            assert code.payload == min(int(math.ceil(u_sel * 8.0)) - 1, 7) if u_sel > 0 else 0
        assert decode_mrc(pair.proposal, code, seed) == x
    assert hit_fallback


def test_mrc_encode_takes_one_quantile_per_candidate(monkeypatch):
    """An MRC encode on a Gaussian proposal evaluates the standard normal
    quantile once per candidate, through ``inv_cdfs``, and scores the
    candidates through ``log_ratios``: neither scalar form runs."""
    calls = {"quantile": 0, "inv_cdf": 0, "log_ratio": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(distributions, "_std_normal_quantile",
                        counting("quantile", distributions._std_normal_quantile))
    monkeypatch.setattr(Gaussian, "inv_cdf", counting("inv_cdf", Gaussian.inv_cdf))
    monkeypatch.setattr(PairSpec, "log_ratio", counting("log_ratio", PairSpec.log_ratio))
    for bits in (1, 6, 9):
        for seed in range(5):
            calls.update(quantile=0, inv_cdf=0, log_ratio=0)
            code, x, _ = encode_mrc(PAIR_GG, seed, bits)
            assert calls == {"quantile": 1 << bits, "inv_cdf": 0, "log_ratio": 0}
            assert decode_mrc(PAIR_GG.proposal, code, seed) == x


def test_mrc_picks_the_sequential_scans_index_at_the_top_uniform(monkeypatch):
    """With the selection uniform at 1 - 2^-53 the threshold sits at the
    top of the weights' exact sum, so the left-to-right partial sums may
    all stay below it; the encoder must pick what a plain scan picks, the
    last candidate then included."""
    top_u = 1.0 - 2.0 ** -53
    monkeypatch.setattr(coders, "slot_uniform", lambda state, slot: top_u)
    bits, n = 6, 64
    fallbacks = reached = 0
    for pair in ALL_PAIRS:
        for seed in range(60):
            xs = [pair.proposal.inv_cdf(keyed_uniform(StreamKey(seed, 0, int(DrawSlot.SAMPLE), i)))
                  for i in range(n)]
            log_w = [pair.log_ratio(x) for x in xs]
            top = max(log_w)
            weights = [math.exp(lw - top) for lw in log_w] if top > -math.inf else [1.0] * n
            threshold = top_u * math.fsum(weights)
            acc, want = 0.0, n - 1
            for i, w in enumerate(weights):
                acc += w
                if acc >= threshold:
                    want = i
                    reached += 1
                    break
            else:
                fallbacks += 1
            code, x, _ = encode_mrc(pair, seed, bits)
            assert (code.payload, x) == (want, xs[want]), (pair.target, seed)
    assert fallbacks and reached


# -------------------------------------------------------- the one encoder

def _outcome(run):
    """What an encode gives, (code, sample hex, stats), or its refusal class."""
    try:
        code, x, stats = run()
    except RecError as exc:
        return type(exc)
    return code, x.hex(), stats


# a tail pair each way (DomainError, and a dive to the depth or step limit)
# and one whose ratio is unbounded
TAIL_PAIRS = [PairSpec(Gaussian(3.0, 0.9), Gaussian(0.0, 1.0)),
              PairSpec(Gaussian(-3.0, 0.9), Gaussian(0.0, 1.0)),
              PairSpec(Gaussian(0.0, 2.0), Gaussian(0.0, 1.0))]


def test_encode_is_the_coder_tables_encode():
    """``coders.encode(pair, variant, seed, budget, max_steps)`` gives what
    ``CODERS[variant].encode`` gives, code, sample and stats or the same
    refusal class, for every coder; its defaults are no budget (which a
    fixed-width coder refuses) and no step limit. Each case's budget goes
    to the fixed-width coders; the exact ones get none, and refuse one."""
    cases = [(pair, 6, math.inf) for pair in ALL_PAIRS]
    cases += [(pair, 6, 300) for pair in TAIL_PAIRS]
    cases += [(PAIR_GG, 10, 1023), (PAIR_GG, None, math.inf)]
    refusals = set()
    for pair, case_budget, max_steps in cases:
        for variant, spec in CODERS.items():
            budget = case_budget if spec.fixed_width else None
            for seed in range(3100, 3106):
                got = _outcome(lambda: coders.encode(pair, variant, seed, budget, max_steps))
                assert got == _outcome(lambda: spec.encode(pair, seed, budget, max_steps))
                if case_budget is None:
                    assert got == _outcome(lambda: coders.encode(pair, variant, seed))
                if isinstance(got, type):
                    refusals.add(got.__name__)
    assert refusals == {"BudgetExhaustedError", "DepthExceededError", "DomainError",
                        "UnboundedRatioError"}


def test_encode_refuses_a_variant_that_names_no_coder():
    for variant in ("ad", 2, None, Variant):
        with pytest.raises(DomainError, match=re.escape(repr(variant))):
            coders.encode(PAIR_GG, variant, 7)


def test_no_coder_drops_a_setting():
    """An exact coder refuses a bit budget it has no use for, and DAD*
    honours the step budget as the exact searches and MRC do."""
    for variant in (Variant.AS_STAR, Variant.AD_STAR, Variant.PFR):
        for budget in (3, 0, 8):
            with pytest.raises(DomainError, match="no bit budget"):
                coders.encode(PAIR_GG, variant, 7, budget)
    steps = [coders.encode(PAIR_GG, Variant.DAD_STAR, seed, 8)[2].steps for seed in range(40)]
    assert max(steps) > 1
    for seed, needed in enumerate(steps):
        want = coders.encode(PAIR_GG, Variant.DAD_STAR, seed, 8)
        got = coders.encode(PAIR_GG, Variant.DAD_STAR, seed, 8, needed)
        assert (got[0], got[1].hex(), got[2].steps) == (want[0], want[1].hex(), needed)
        if needed > 1:
            with pytest.raises(BudgetExhaustedError):
                coders.encode(PAIR_GG, Variant.DAD_STAR, seed, 8, needed - 1)


# ------------------------------------------------------------ round trips

@pytest.mark.parametrize("pair", ALL_PAIRS)
def test_roundtrip_every_variant(pair):
    for seed in range(7000, 7150):
        for variant, spec in CODERS.items():
            code, x, _ = spec.encode(pair, seed, 6 if spec.fixed_width else None, math.inf)
            assert code.variant is variant
            assert decode(pair.proposal, code, seed) == x


def test_dyadic_decode_inverts_the_cdf_at_most_three_times(monkeypatch):
    """A dyadic decode of a depth-d code calls the proposal's inv_cdf at
    most min(d, 3) times: the node reads its CDF ends off its heap index,
    so it needs the quantiles of its two inner ends (an end at 0 or 1 needs
    none) to refuse an empty slot, and one for its sample."""
    calls = []
    inv_cdf = Gaussian.inv_cdf

    def counting(self, u):
        calls.append(u)
        return inv_cdf(self, u)

    monkeypatch.setattr(Gaussian, "inv_cdf", counting)
    depths = set()
    for seed in range(40):
        for code, x in (encode_astar(PAIR_GG, PartitionKind.DYADIC, seed)[:2],
                        encode_dad(PAIR_GG, seed, 8)[:2]):
            depth = code.payload.bit_length() or 1  # DAD codeword 0 is a root draw
            calls.clear()
            assert decode(PAIR_GG.proposal, code, seed) == x
            assert len(calls) <= min(depth, 3), (code, seed)
            depths.add(depth)
    assert len(depths) >= 4


def test_decode_walk_costs_one_cut_per_level(monkeypatch):
    """What ``locate`` calls: a sample-split code at depth d >= 2 draws the
    samples of its whole path, its d - 1 ancestors and itself, in one
    ``slot_uniforms`` call of d fields, with no per-level draw, then cuts
    at each ancestor (one inv_cdf and one cdf a level) and takes its own
    sample (one inv_cdf); a depth-1 code is one absorb and one
    slot_uniform. A dyadic code at depth 2..54 reads its region off its
    index and makes at most three inv_cdf calls."""
    calls = {"inv_cdf": 0, "cdf": 0}
    draws = {"absorb": 0, "slot_uniform": 0, "slot_uniforms": []}
    inv_cdf, cdf = Gaussian.inv_cdf, Gaussian.cdf

    def counting_inv_cdf(self, u):
        calls["inv_cdf"] += 1
        return inv_cdf(self, u)

    def counting_cdf(self, x):
        calls["cdf"] += 1
        return cdf(self, x)

    def counting(name, draw):
        def counted(*args):
            draws[name] += 1
            return draw(*args)
        return counted

    def recording_path(stream, fields, slot):
        draws["slot_uniforms"].append(len(fields))
        return slot_uniforms(stream, fields, slot)

    monkeypatch.setattr(Gaussian, "inv_cdf", counting_inv_cdf)
    monkeypatch.setattr(Gaussian, "cdf", counting_cdf)
    monkeypatch.setattr(tree, "absorb", counting("absorb", tree.absorb))
    monkeypatch.setattr(tree, "slot_uniform", counting("slot_uniform", tree.slot_uniform))
    monkeypatch.setattr(tree, "slot_uniforms", recording_path)
    proposal = PAIR_GG.proposal
    rng = random.Random(20260817)
    for depth in range(1, 31):
        for _ in range(4):
            index = (1 << (depth - 1)) | rng.getrandbits(depth - 1)
            calls.update(inv_cdf=0, cdf=0)
            draws.update(absorb=0, slot_uniform=0, slot_uniforms=[])
            locate(proposal, PartitionKind.SAMPLE_SPLIT, rng.getrandbits(64), index)
            assert calls == {"inv_cdf": depth, "cdf": depth - 1}, (index, depth)
            if depth == 1:
                assert draws == {"absorb": 1, "slot_uniform": 1, "slot_uniforms": []}
            else:
                assert draws == {"absorb": 0, "slot_uniform": 0, "slot_uniforms": [depth]}, (
                    index, depth)
    for depth in range(2, 55):
        for _ in range(4):
            index = (1 << (depth - 1)) | rng.getrandbits(depth - 1)
            calls.update(inv_cdf=0, cdf=0)
            try:
                locate(proposal, PartitionKind.DYADIC, rng.getrandbits(64), index)
            except InvalidCodeError:
                pass  # an emptied slot is refused after its two quantiles
            assert calls["inv_cdf"] <= 3 and calls["cdf"] == 0, (index, depth)


def test_search_draws_a_sample_only_when_it_pops_a_node(monkeypatch):
    """Pruning reads a child's Gumbel and region alone, so the search
    draws a node's sample (one inv_cdf) when it pops the node. An AS*
    step also cuts at that sample (one cdf), an AD* step at the region's
    proposal median (one more inv_cdf); a PFR step draws the sample only.
    These are the steps of a pair's first search: each encode runs on a
    fresh pair, and a tree search expands every node it pops, taking one
    bound_M per child inside expand, plus the root's. A pair that has
    searched before remembers the children and bounds of the dyadic nodes
    it expanded, so an AD* step on a remembered node draws its sample
    alone, with no expand and no bound_M."""
    mean, variance = gaussian_from_kl_dinf(2.1, 4.0)
    pair = PairSpec(Gaussian(mean, variance), Gaussian(0.0, 1.0))
    calls = {"inv_cdf": 0, "cdf": 0, "expand": 0, "bound_M": 0, "children": 0}
    inv_cdf, cdf, expand, bound_M = Gaussian.inv_cdf, Gaussian.cdf, tree.expand, PairSpec.bound_M

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(Gaussian, "inv_cdf", counting("inv_cdf", inv_cdf))
    monkeypatch.setattr(Gaussian, "cdf", counting("cdf", cdf))

    def expanding(*args):
        children = counting("expand", expand)(*args)
        calls["children"] += len(children)
        return children

    monkeypatch.setattr(coders, "expand", expanding)
    monkeypatch.setattr(PairSpec, "bound_M", counting("bound_M", bound_M))
    per_step = {  # kind: (inv_cdf, cdf) calls per step
        PartitionKind.SAMPLE_SPLIT: (1, 1),
        PartitionKind.DYADIC: (2, 0),
        PartitionKind.GLOBAL_BOUND: (1, 0),
    }
    for kind, (inv_per_step, cdf_per_step) in per_step.items():
        total_steps = 0
        for seed in range(200):
            fresh = PairSpec(pair.target, pair.proposal)
            calls.update(inv_cdf=0, cdf=0, expand=0, bound_M=0, children=0)
            steps = encode_astar(fresh, kind, seed)[2].steps
            assert (calls["inv_cdf"], calls["cdf"]) == (inv_per_step * steps,
                                                       cdf_per_step * steps), (kind, seed)
            tree_steps = 0 if kind is PartitionKind.GLOBAL_BOUND else steps
            assert calls["expand"] == tree_steps, (kind, seed)
            assert calls["bound_M"] == 1 + calls["children"], (kind, seed)
            total_steps += steps
        assert total_steps > 400, kind  # the searches went past the root
    for seed in range(200):  # these remember every node they expand
        encode_astar(pair, PartitionKind.DYADIC, seed)
    total_steps = 0
    for seed in range(200):
        calls.update(inv_cdf=0, cdf=0, expand=0, bound_M=0, children=0)
        steps = encode_astar(pair, PartitionKind.DYADIC, seed)[2].steps
        assert calls == {"inv_cdf": steps, "cdf": 0, "expand": 0, "bound_M": 0,
                         "children": 0}, seed
        total_steps += steps
    assert total_steps > 400


def test_decode_is_target_blind():
    # two different targets over the same proposal: decoding needs only
    # the proposal, so a code from either target decodes identically
    other = PairSpec(Gaussian(-0.5, 0.7), Gaussian(0.0, 1.0))
    for seed in range(60):
        code, x, _ = encode_astar(PAIR_GG, PartitionKind.DYADIC, seed)
        assert decode(Gaussian(0.0, 1.0), code, seed) == x
        code2, x2, _ = encode_astar(other, PartitionKind.DYADIC, seed)
        assert decode(Gaussian(0.0, 1.0), code2, seed) == x2


# ------------------------------------------------------- depth-limited race

def test_dad_codeword_monotone_in_budget():
    for seed in range(5000, 5100):
        prev = -1
        for budget in range(1, 15):
            code, x, _ = encode_dad(PAIR_GG, seed, budget)
            assert 0 <= code.payload < (1 << budget)
            assert code.payload >= prev
            prev = code.payload
            assert decode_dad(PAIR_GG.proposal, code, seed) == x


def test_dad_stabilizes_to_exact_winner_or_extra():
    """At a generous budget the depth-limited coder returns the exact
    dyadic winner exactly when the extra root candidate loses the race;
    when the extra candidate wins, codeword 0 names its sample."""
    wins = 0
    for seed in range(2600, 2700):
        exact_code, exact_x, exact_stats = encode_astar(
            PAIR_GG, PartitionKind.DYADIC, seed
        )
        code, x, _ = encode_dad(PAIR_GG, seed, 18)
        _, root_g = realize(seed_state(seed), 1, 0.0, 1.0, math.inf)
        extra_g = trunc_gumbel(
            keyed_uniform(StreamKey(seed, 0, int(DrawSlot.EXTRA_ROOT_GUMBEL), 0)),
            0.0, root_g,
        )
        extra_x = sample_restricted_u(
            PAIR_GG.proposal, 0.0, 1.0,
            keyed_uniform(StreamKey(seed, 0, int(DrawSlot.EXTRA_ROOT_SAMPLE), 0)),
        )
        extra_score = extra_g + PAIR_GG.log_ratio(extra_x)
        if extra_score > exact_stats.lower_bound:
            wins += 1
            assert code.payload == 0
            assert x == extra_x
        else:
            assert code.payload == exact_code.payload
            assert x == exact_x
    assert 0 < wins < 50  # the reserve candidate wins sometimes, not often


def test_dad_payload_zero_decodes_extra_sample():
    seed = 11
    want = sample_restricted_u(
        PAIR_GG.proposal, 0.0, 1.0,
        keyed_uniform(StreamKey(seed, 0, int(DrawSlot.EXTRA_ROOT_SAMPLE), 0)),
    )
    assert decode_dad(PAIR_GG.proposal, Code(Variant.DAD_STAR, 0, budget=4), seed) == want


def test_depth_limit_caps_dyadic_search():
    for seed in range(30):
        code, x, stats = encode_dad(PAIR_GG, seed, 3)
        assert code.depth_or_budget == 3 and code.payload < 8
        assert stats.returned_depth <= 3
        assert stats.steps <= 7  # a depth-3 dyadic tree has 7 nodes
        assert decode(PAIR_GG.proposal, code, seed) == x


# ------------------------------------------------------------- accounting

def written_bits(code):
    """The bits ``Unit.write`` puts down for one code."""
    from reckit.bitstream import BitWriter

    w = BitWriter()
    CODERS[code.variant].unit.write(w, code.payload, code.budget)
    return w.bit_length


def test_stats_bit_accounting():
    for seed in range(40):
        for kind in (PartitionKind.SAMPLE_SPLIT, PartitionKind.DYADIC):
            code, _, stats = encode_astar(PAIR_GG, kind, seed)
            d = code.depth_or_budget
            assert stats.returned_depth == d == code.payload.bit_length()
            assert stats.payload_bits == d
            assert stats.overhead_bits == gamma_bits(d) - 1
            assert written_bits(code) == stats.payload_bits + stats.overhead_bits
        code, _, stats = encode_astar(PAIR_GG, PartitionKind.GLOBAL_BOUND, seed)
        assert stats.payload_bits == code.payload.bit_length()
        assert stats.overhead_bits == delta_bits(code.payload) - stats.payload_bits
        assert written_bits(code) == stats.payload_bits + stats.overhead_bits
        code, _, stats = encode_dad(PAIR_GG, seed, 7)
        assert stats.payload_bits == 7 and stats.overhead_bits == 0
        assert written_bits(code) == 7
        assert isinstance(stats, TrialStats)


# ------------------------------------------------------------ error paths

def test_exact_search_refuses_unbounded_ratio():
    fat = PairSpec(Gaussian(0.0, 2.0), Gaussian(0.0, 1.0))  # sup dQ/dP = inf
    with pytest.raises(UnboundedRatioError):
        encode_astar(fat, PartitionKind.DYADIC, 1)
    with pytest.raises(UnboundedRatioError):
        encode_astar(fat, PartitionKind.GLOBAL_BOUND, 1)
    # a finite depth limit restores a well-defined (approximate) race
    code, x, _ = encode_dad(fat, 1, 8)
    assert decode(fat.proposal, code, 1) == x


def test_parameter_validation():
    """A bit budget is an int of 1 to MAX_DEPTH, as ``as_number(value, int)``
    takes one: a whole float, a bool or None is refused with DomainError
    before any draw, not by a TypeError from ``1 << 3.0`` or as a code of
    width True."""
    for budget in (0, 2.5, 3.0, float(MAX_DEPTH), True, False, None, "3"):
        with pytest.raises(DomainError):
            check_budget(budget)
        for encode in (encode_dad, encode_mrc):
            with pytest.raises(DomainError):
                encode(PAIR_GG, 1, budget)


def test_fixed_width_budgets_stop_at_the_wire_limit():
    # a block header carries at most MAX_DEPTH bits per codeword
    for encode in (encode_dad, encode_mrc):
        with pytest.raises(DomainError):
            encode(PAIR_GG, 1, MAX_DEPTH + 1)
    code, x, _ = encode_dad(PAIR_GG, 1, MAX_DEPTH)
    assert decode(PAIR_GG.proposal, code, 1) == x
    # MRC's 2^bits draws are its steps: a budget below them refuses up front
    with pytest.raises(BudgetExhaustedError):
        encode_mrc(PAIR_GG, 1, 10, max_steps=1023)
    code, x, stats = encode_mrc(PAIR_GG, 1, 10, max_steps=1024)
    assert stats.steps == 1024 and decode(PAIR_GG.proposal, code, 1) == x
    for bits in (40, MAX_DEPTH):
        with pytest.raises(BudgetExhaustedError):
            CODERS[Variant.MRC].encode(PAIR_GG, 1, bits, 10**6)


def test_budget_exhaustion():
    seed = next(
        s for s in range(100)
        if encode_astar(PAIR_GG, PartitionKind.GLOBAL_BOUND, s)[2].steps > 3
    )
    with pytest.raises(BudgetExhaustedError):
        encode_astar(PAIR_GG, PartitionKind.GLOBAL_BOUND, seed, max_steps=1)
    with pytest.raises(BudgetExhaustedError):
        encode_astar(PAIR_GG, PartitionKind.DYADIC, seed, max_steps=1)


def test_code_validation():
    with pytest.raises(InvalidCodeError):
        Code(Variant.AS_STAR, 0)
    with pytest.raises(InvalidCodeError):
        Code(Variant.AD_STAR, 1 << MAX_DEPTH)  # an index at depth MAX_DEPTH + 1
    with pytest.raises(InvalidCodeError):
        Code(Variant.DAD_STAR, 8, budget=3)  # needs 4 bits
    with pytest.raises(InvalidCodeError):
        Code(Variant.PFR, 0)
    with pytest.raises(InvalidCodeError):
        Code(Variant.PFR, 1 << 64)  # past delta's 64-bit length field
    with pytest.raises(InvalidCodeError):
        Code(Variant.MRC, -1, budget=2)
    for budget in (0, MAX_DEPTH + 1):
        with pytest.raises(InvalidCodeError):
            Code(Variant.MRC, 0, budget=budget)
    # the widest code of each layout constructs, and its width is derived
    assert Code(Variant.AD_STAR, (1 << MAX_DEPTH) - 1).depth_or_budget == MAX_DEPTH
    assert Code(Variant.PFR, (1 << 64) - 1).depth_or_budget == (1 << 64) - 1
    assert Code(Variant.MRC, (1 << MAX_DEPTH) - 1, budget=MAX_DEPTH).depth_or_budget == MAX_DEPTH
    # an exact code refuses a budget, and a fixed-width code needs one
    for variant, payload in ((Variant.AS_STAR, 5), (Variant.AD_STAR, 5), (Variant.PFR, 3)):
        with pytest.raises(InvalidCodeError):
            Code(variant, payload, budget=3)
    for variant in (Variant.DAD_STAR, Variant.MRC):
        with pytest.raises(InvalidCodeError):
            Code(variant, 5)
    # the budget is keyword-only: a call in the (variant, width, payload)
    # order fails instead of building another valid code
    with pytest.raises(TypeError):
        Code(Variant.MRC, 4, 11)
    with pytest.raises(TypeError):
        Code(Variant.AD_STAR, 3, 5)


@pytest.mark.parametrize("variant, budget, payload", [
    (Variant.DAD_STAR, 3.0, 5),
    (Variant.AS_STAR, 3.0, 5),
    (Variant.AS_STAR, True, 1),
    (Variant.PFR, 2.0, 2),
    (Variant.AS_STAR, 1, True),
    (Variant.MRC, True, 1),
    (Variant.MRC, 3, 1.0),
    (Variant.AD_STAR, None, 5.0),
    (Variant.PFR, None, True),
])
def test_code_width_and_payload_are_ints(variant, budget, payload):
    """A fixed-width code takes an int budget and payload, as a budget is
    checked, and an exact code an int payload and no budget: a float or a
    bool is refused as a code, not with a bare TypeError."""
    with pytest.raises(InvalidCodeError):
        Code(variant, payload, budget=budget)


def test_decode_variant_mismatch():
    ad_code = Code(Variant.AD_STAR, 5)
    with pytest.raises(InvalidCodeError):
        decode_dad(PAIR_GG.proposal, ad_code, 1)
    with pytest.raises(InvalidCodeError):
        decode_mrc(PAIR_GG.proposal, ad_code, 1)
    with pytest.raises(InvalidCodeError, match="expected a PFR code"):
        decode_pfr(PAIR_GG.proposal, ad_code, 1)
