"""Operating acceptance suite.

Every guarantee the toolkit advertises, checked end to end at its
stated tolerance. Each test prints exactly one summary line,

    [criterion NN] PASS: <the binding numbers>

before asserting (criterion 13 prints its table above it), so ``pytest tests/test_acceptance.py -v -s`` doubles
as a readable report. Everything is deterministic: trial seeds are
fixed functions of the criterion number, and the statistical checks
carry their slack (3 SE, 2 SE, factor 2) inside the assertion.

This module is slower than the unit tests (several minutes): the depth
and runtime laws need 10^3..10^4 trials per grid cell before their
standard errors are tight enough to bind.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from functools import lru_cache

import numpy as np
from scipy import integrate, stats

from knn import fresh_target_samples, knn_kl_estimate
from reckit.bench import (
    ExperimentConfig,
    _trial_seed,
    mixture_pair,
    run_mode_sweep,
    verify_shrinkage,
)
from reckit.bitstream import (
    MODE_BLOCK,
    MODE_EXACT,
    BitReader,
    MessageFrame,
    read_message,
    write_message,
)
from reckit.coders import (
    MAX_STEPS,
    Variant,
    decode,
    encode,
    encode_astar,
    encode_dad,
    encode_mrc,
)
from reckit.distributions import Gaussian, PairSpec, Uniform, sample_restricted_u
from reckit.errors import RecError
from reckit.isokl import (
    BlockCodecConfig,
    IsoKLGaussianBlock,
    decode_block_vector,
    encode_block_vector,
    gaussian_from_kl_dinf,
    gaussian_from_mean_kl,
    lambert_w0,
    uniform_from_mean_kl,
)
from reckit.randomness import (
    DrawSlot,
    StreamKey,
    derive_seed,
    keyed_uniform,
    seed_state,
    trunc_gumbel,
)
from reckit.tree import PartitionKind, realize

LN2 = math.log(2.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def kl_ceiling(dinf: float) -> float:
    """Largest KL a Gaussian pair can carry at ratio supremum dinf."""
    return dinf - 0.5 + 0.5 * math.exp(-2.0 * dinf)


def gauss_pair(kl: float, dinf: float) -> PairSpec:
    mean, variance = gaussian_from_kl_dinf(kl, dinf)
    return PairSpec(Gaussian(mean, variance), Gaussian(0.0, 1.0))


def se_mean(values) -> float:
    arr = np.asarray(values, dtype=float)
    return float(np.std(arr, ddof=1) / math.sqrt(len(arr)))


def gamma_len(n: int) -> int:
    return 2 * n.bit_length() - 1


# -- 1: decoded samples follow the target law ----------------------------------


def test_criterion_01_encoded_samples_follow_the_target():
    """Every coder's output stream passes a KS test against the target.

    Gaussian pairs at dinf in {0.5, 1, 2, 4}; the exact searches whose
    expected cost grows like e^dinf only run where dinf <= 2. 5000
    samples per (cell, coder), p > 0.01, and no cell may take longer
    than two minutes of wall clock.
    """
    failures: list[str] = []
    worst_p = math.inf
    slowest = 0.0
    for ci, dinf in enumerate((0.5, 1.0, 2.0, 4.0)):
        pair = gauss_pair(0.6 * kl_ceiling(dinf), dinf)
        coders = [("ad", lambda s: encode_astar(pair, PartitionKind.DYADIC, s)[1])]
        if dinf <= 2.0:
            coders.append(
                ("as", lambda s: encode_astar(pair, PartitionKind.SAMPLE_SPLIT, s)[1])
            )
            coders.append(
                ("pfr", lambda s: encode_astar(pair, PartitionKind.GLOBAL_BOUND, s)[1])
            )
        start = time.monotonic()
        for ai, (name, enc) in enumerate(coders):
            xs = [enc(derive_seed(10_000 + 10 * ci + ai, j)) for j in range(5000)]
            p = float(stats.kstest(xs, np.vectorize(pair.target.cdf)).pvalue)
            worst_p = min(worst_p, p)
            if not p > 0.01:
                failures.append(f"{name}@dinf={dinf:g}: p={p:.5f}")
        elapsed = time.monotonic() - start
        slowest = max(slowest, elapsed)
        if elapsed > 120.0:
            failures.append(f"cell dinf={dinf:g} took {elapsed:.0f}s")
    detail = (
        "; ".join(failures)
        if failures
        else f"10 coder/cell KS tests, min p={worst_p:.3f} (>0.01), "
        f"slowest cell {slowest:.1f}s (<=120s)"
    )
    report(1, not failures, detail)


# -- 2 and 3: returned depth laws ----------------------------------------------

DEPTH_GRID_BITS = (1, 2, 4, 6)


@lru_cache(maxsize=None)
def depth_grid(bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Paired dyadic and sample-split depths on one cell, same seeds.

    Interval targets inside an interval proposal: the winner has to land
    in the target's support, so the search must actually resolve it and
    the two partition rules differ by nothing but their shrinkage rate.
    """
    kl = bits * LN2
    target = uniform_from_mean_kl(0.0, 2.0, kl, 0.5)
    pair = PairSpec(target, Uniform(0.0, 2.0))
    dyadic: list[int] = []
    split: list[int] = []
    for j in range(10_000):
        seed = derive_seed(20_000 + bits, j)
        dyadic.append(encode_astar(pair, PartitionKind.DYADIC, seed)[2].returned_depth)
        split.append(
            encode_astar(pair, PartitionKind.SAMPLE_SPLIT, seed)[2].returned_depth
        )
    return tuple(dyadic), tuple(split)


def test_criterion_02_dyadic_depth_tracks_the_kl():
    """Mean dyadic depth <= KL(bits) + 1.531 + 3 SE over 10^4 trials."""
    ok = True
    parts = []
    for bits in DEPTH_GRID_BITS:
        dyadic, _ = depth_grid(bits)
        mean = float(np.mean(dyadic))
        bound = bits + 1.531 + 3.0 * se_mean(dyadic)
        ok &= mean <= bound
        parts.append(f"kl={bits}b: {mean:.3f}<={bound:.3f}")
    report(2, ok, "; ".join(parts))


def test_criterion_03_sample_split_depth_bound_and_ordering():
    """Sample-split depth stays within its multiplicative law and never
    beats the dyadic rule on the same seeds.

    Bound per cell: 2.41 kl + 2.41 log2(kl+1) + 10 with kl in bits; the
    additive slack absorbs the constant the multiplicative law hides.
    """
    ok = True
    parts = []
    for bits in DEPTH_GRID_BITS:
        dyadic, split = depth_grid(bits)
        split_mean = float(np.mean(split))
        dyadic_mean = float(np.mean(dyadic))
        bound = 2.41 * bits + 2.41 * math.log2(bits + 1) + 10.0
        ok &= split_mean <= bound and split_mean >= dyadic_mean
        parts.append(
            f"kl={bits}b: {split_mean:.3f}<={bound:.2f}, >= dyadic {dyadic_mean:.3f}"
        )
    report(3, ok, "; ".join(parts))


# -- 4: global-bound runtime is exponential in dinf ------------------------------


def test_criterion_04_global_bound_steps_near_exp_dinf():
    """PFR mean steps within a factor of 2 of e^dinf, 10^3 trials/cell."""
    ok = True
    parts = []
    for ci, dinf in enumerate((math.log(2.0), math.log(4.0), 2.0, 4.0)):
        pair = gauss_pair(0.7 * kl_ceiling(dinf), dinf)
        steps = [
            encode_astar(pair, PartitionKind.GLOBAL_BOUND, derive_seed(40_000 + ci, j))[2].steps
            for j in range(1000)
        ]
        mean = float(np.mean(steps))
        lo, hi = math.exp(dinf) / 2.0, 2.0 * math.exp(dinf)
        ok &= lo <= mean <= hi
        parts.append(f"dinf={dinf:.2f}: {mean:.1f} in [{lo:.1f},{hi:.1f}]")
    report(4, ok, "; ".join(parts))


# -- 5: search runtime is linear in dinf -----------------------------------------


def test_criterion_05_search_steps_linear_in_dinf():
    """Mean steps regressed on dinf over 10 cells gives R^2 >= 0.95 for
    both partition rules (only linearity is asserted, not the slope)."""
    grid = np.linspace(0.25, 6.0, 10)
    ok = True
    parts = []
    for base, name, kind in (
        (51_000, "ad", PartitionKind.DYADIC),
        (52_000, "as", PartitionKind.SAMPLE_SPLIT),
    ):
        means = []
        for ci, dinf in enumerate(grid):
            pair = gauss_pair(0.6 * kl_ceiling(float(dinf)), float(dinf))
            steps = [
                encode_astar(pair, kind, derive_seed(base + ci, j))[2].steps
                for j in range(1000)
            ]
            means.append(float(np.mean(steps)))
        r2 = float(stats.linregress(grid, means).rvalue) ** 2
        ok &= r2 >= 0.95
        parts.append(f"{name}: R^2={r2:.4f} (steps {means[0]:.1f}..{means[-1]:.1f})")
    report(5, ok, "; ".join(parts))


# -- 6: region-mass shrinkage rates ----------------------------------------------


def test_criterion_06_region_mass_shrinkage_rates():
    """Worst-case descent masses: dyadic halves exactly, sample split
    stays under (3/4)^(d-1) + 3 SE, depths 1..10, 2000 descents."""
    dyadic = verify_shrinkage(PartitionKind.DYADIC, depth_max=10, trials=2000, seed=60_000)
    split = verify_shrinkage(
        PartitionKind.SAMPLE_SPLIT, depth_max=10, trials=2000, seed=60_001
    )
    exact = dyadic.passed and dyadic.mean_mass == dyadic.bounds
    ok = exact and split.passed
    report(
        6,
        ok,
        f"dyadic mass == 2^-(d-1) exactly at depths 1..10: {exact}; "
        f"sample split under 0.75^(d-1)+3SE: {split.passed} "
        f"(depth-10 mean {split.mean_mass[-1]:.4f} vs bound {split.bounds[-1]:.4f})",
    )


# -- 7: budget monotonicity and stabilization ------------------------------------


def _extra_candidate_score(pair: PairSpec, seed: int) -> float:
    """Mirror the depth-limited coder's extra root candidate."""
    _, root_g = realize(seed_state(seed), 1, 0.0, 1.0, math.inf)
    g = trunc_gumbel(
        keyed_uniform(StreamKey(seed, 0, int(DrawSlot.EXTRA_ROOT_GUMBEL), 0)),
        0.0,
        root_g,
    )
    x = sample_restricted_u(
        pair.proposal,
        0.0,
        1.0,
        keyed_uniform(StreamKey(seed, 0, int(DrawSlot.EXTRA_ROOT_SAMPLE), 0)),
    )
    return g + pair.log_ratio(x)


def test_criterion_07_codeword_monotone_in_budget_and_stabilizes():
    """Raising the budget never moves the codeword backwards, and by
    budget 24 it has settled: to the exact unlimited-depth index when
    the extra root candidate loses to it, to 0 when it wins."""
    pair = gauss_pair(1.0, 2.0)
    budgets = range(1, 25)
    ok = True
    settled_exact = 0
    settled_extra = 0
    for j in range(1000):
        seed = derive_seed(70_000, j)
        payloads = [encode_dad(pair, seed, b)[0].payload for b in budgets]
        monotone = all(a <= b for a, b in zip(payloads, payloads[1:]))
        exact_code, _, exact_stats = encode_astar(pair, PartitionKind.DYADIC, seed)
        # ties retain the incumbent, and the extra candidate is seeded first
        if _extra_candidate_score(pair, seed) >= exact_stats.lower_bound:
            want = 0
            settled_extra += 1
        else:
            want = exact_code.payload
            settled_exact += 1
        ok &= monotone and payloads[-1] == payloads[-2] == payloads[-3] == want
    report(
        7,
        ok,
        f"1000 seeds x budgets 1..24 nondecreasing; settled to the exact index "
        f"{settled_exact}x, to the extra candidate {settled_extra}x",
    )


# -- 8: extra bits close the bias gap at a fraction of the work -------------------

BIAS_CELLS = ((1.45, 2.0), (2.114, 4.0))


def test_criterion_08_extra_bits_close_the_bias_gap():
    """Depth-limited coding at budget ceil(kl/ln2) + t: the k-NN bias is
    non-increasing in t (2 SE slack per step), matches the
    2^budget-draw selection coder within 2 SE at t >= 1, and costs at
    most a tenth of its draws once t >= 2.

    The batches are the bias grid's at config seed 80000: 50 trials of 100
    encodes per (cell, coder, t), seeded as ``run_bias_grid`` seeds them.
    Each is scored with the k-NN estimate against 100 fresh PCG64 draws of
    the target at the trial's seed under tag 0xF0, where the grid drew them
    while it scored with that estimate."""
    seed, trials, batch = 80_000, 50, 100
    biases = defaultdict(list)
    steps = defaultdict(list)
    for ci, (kl, dinf) in enumerate(BIAS_CELLS):
        pair = gauss_pair(kl, dinf)
        base_bits = math.ceil(kl / LN2)
        for trial in range(trials):
            enc_base = _trial_seed(seed, ci, 0xE0, trial)
            fresh = fresh_target_samples(pair.target, _trial_seed(seed, ci, 0xF0, trial), batch)
            for t in range(5):
                for variant in (Variant.DAD_STAR, Variant.MRC):
                    encoded, total = [], 0
                    for b in range(batch):
                        _, x, st = encode(pair, variant, derive_seed(enc_base, b),
                                          base_bits + t, MAX_STEPS)
                        encoded.append(x)
                        total += st.steps
                    key = (dinf, variant.value, t)
                    biases[key].append(knn_kl_estimate(encoded, fresh))
                    steps[key].append(total / batch)
    ok = True
    parts = []
    for kl, dinf in BIAS_CELLS:
        base_bits = math.ceil(kl / LN2)
        mean = {}
        se = {}
        for alg in ("dad", "mrc"):
            for t in range(5):
                mean[alg, t] = float(np.mean(biases[(dinf, alg, t)]))
                se[alg, t] = se_mean(biases[(dinf, alg, t)])
        for t in range(4):
            slack = 2.0 * math.hypot(se["dad", t], se["dad", t + 1])
            if not mean["dad", t + 1] <= mean["dad", t] + slack:
                ok = False
                parts.append(f"dinf={dinf:g}: bias rose at t={t}->{t + 1}")
        gap_z = max(
            abs(mean["dad", t] - mean["mrc", t]) / math.hypot(se["dad", t], se["mrc", t])
            for t in (1, 2, 3, 4)
        )
        ok &= gap_z <= 2.0
        cost = max(
            float(np.mean(steps[(dinf, "dad", t)])) / (0.1 * 2 ** (base_bits + t))
            for t in (2, 3, 4)
        )
        ok &= cost <= 1.0
        trend = "/".join(f"{mean['dad', t]:+.3f}" for t in range(5))
        parts.append(
            f"dinf={dinf:g}: dad bias t0..t4 {trend}, max |dad-mrc| z={gap_z:.2f} "
            f"(<=2), steps at worst {cost:.2f}x of the 2^B/10 cap"
        )
    report(8, ok, "; ".join(parts))


# -- 9: mode count moves the searches, not the global bound -----------------------


def test_criterion_09_mode_count_moves_search_not_global_bound():
    """At fixed dinf, splitting the target into more modes makes both
    tree searches work harder (Spearman > 0.9 over 5 mode counts) while
    the global-bound race stays flat within 2 SE."""
    modes = (1, 2, 4, 8, 16)
    config = ExperimentConfig(
        algorithms=("as", "ad", "pfr"),
        trials=8000,
        seed=90_000,
        mixture_cells=tuple((n, 2.0) for n in modes),
    )
    rows = run_mode_sweep(config)
    errors = [r.error for r in rows if r.error]
    assert not errors, errors[:3]
    per_cell = defaultdict(list)
    for r in rows:
        per_cell[(r.algorithm, r.n_modes)].append(r.steps)
    ok = True
    parts = []
    for alg in ("as", "ad"):
        means = [float(np.mean(per_cell[(alg, n)])) for n in modes]
        rho = float(stats.spearmanr(modes, means).statistic)
        ok &= rho > 0.9
        parts.append(f"{alg}: spearman={rho:.2f} (steps {means[0]:.1f}->{means[-1]:.1f})")
    cell_means = [float(np.mean(per_cell[("pfr", n)])) for n in modes]
    cell_ses = [se_mean(per_cell[("pfr", n)]) for n in modes]
    worst_z = 0.0
    for i in range(len(modes)):
        rest = [cell_means[j] for j in range(len(modes)) if j != i]
        rest_se = math.sqrt(
            sum(cell_ses[j] ** 2 for j in range(len(modes)) if j != i)
        ) / (len(modes) - 1)
        z = abs(cell_means[i] - float(np.mean(rest))) / math.hypot(cell_ses[i], rest_se)
        worst_z = max(worst_z, z)
    ok &= worst_z <= 2.0
    parts.append(f"pfr flat: worst leave-one-out z={worst_z:.2f} (<=2)")
    report(9, ok, "; ".join(parts))


# -- 10: parameter recipes hit their divergences ----------------------------------


def _quad_kl(pair: PairSpec, lo: float, hi: float) -> float:
    value, _ = integrate.quad(
        lambda x: math.exp(pair.target.log_pdf(x)) * pair.log_ratio(x),
        lo,
        hi,
        limit=200,
    )
    return value


def test_criterion_10_parameter_recipes_hit_their_divergences():
    """10^3 randomized recipe outputs reproduce their requested KL (and
    ratio supremum) to 1e-9 in closed form and 1e-4 by numeric
    integration; the Lambert kernel keeps |w e^w - x| <= 1e-12 max(1,|x|).
    """
    rng = np.random.Generator(np.random.PCG64(100_000))
    worst_closed = 0.0
    worst_numeric = 0.0
    # 400 draws: gaussian target variance from (prior, mean shift, kappa)
    for _ in range(400):
        nu = float(rng.uniform(-2.0, 2.0))
        rho = float(math.exp(rng.uniform(-1.0, 1.0)))
        kappa = float(math.exp(rng.uniform(-3.0, 1.2)))
        mu = nu + rho * math.sqrt(2.0 * kappa) * float(rng.uniform(-0.98, 0.98))
        var = gaussian_from_mean_kl(nu, rho, mu, kappa)
        pair = PairSpec(Gaussian(mu, var), Gaussian(nu, rho * rho))
        worst_closed = max(worst_closed, abs(pair.analytic_kl() - kappa))
        width = 12.0 * math.sqrt(var)
        worst_numeric = max(
            worst_numeric, abs(_quad_kl(pair, mu - width, mu + width) - kappa)
        )
    # 300 draws: uniform target inside a uniform prior (kl == dinf == kappa)
    for _ in range(300):
        center = float(rng.uniform(-3.0, 3.0))
        pw = float(math.exp(rng.uniform(-1.5, 1.5)))
        kappa = float(rng.uniform(0.01, 3.0))
        target = uniform_from_mean_kl(center, pw, kappa, float(rng.uniform(-6.0, 6.0)))
        pair = PairSpec(target, Uniform(center, pw))
        worst_closed = max(
            worst_closed,
            abs(pair.analytic_kl() - kappa),
            abs(pair.analytic_dinf() - kappa),
        )
        worst_numeric = max(
            worst_numeric, abs(_quad_kl(pair, target.low, target.high) - kappa)
        )
    # 300 draws: joint (kl, dinf) inversion
    for _ in range(300):
        dinf = float(math.exp(rng.uniform(-1.5, 1.8)))
        kl = float(rng.uniform(0.05, 0.9)) * kl_ceiling(dinf)
        mean, var = gaussian_from_kl_dinf(kl, dinf)
        pair = PairSpec(Gaussian(mean, var), Gaussian(0.0, 1.0))
        worst_closed = max(
            worst_closed,
            abs(pair.analytic_kl() - kl),
            abs(pair.analytic_dinf() - dinf),
        )
        width = 12.0 * math.sqrt(var)
        worst_numeric = max(
            worst_numeric, abs(_quad_kl(pair, mean - width, mean + width) - kl)
        )
        # grid max of an independently computed log ratio (concave: var < 1)
        xs = np.linspace(pair.ratio_mode() - 1.0, pair.ratio_mode() + 1.0, 40_001)
        log_ratio = -0.5 * ((xs - mean) ** 2 / var - xs**2) - 0.5 * math.log(var)
        worst_numeric = max(worst_numeric, abs(float(log_ratio.max()) - dinf))
    worst_resid = 0.0
    draws = np.concatenate(
        [
            rng.uniform(-1.0 / math.e, 0.0, 500),
            np.exp(rng.uniform(-25.0, 25.0, 500)),
        ]
    )
    for x in draws:
        w = lambert_w0(float(x))
        worst_resid = max(
            worst_resid, abs(w * math.exp(w) - float(x)) / max(1.0, abs(float(x)))
        )
    ok = worst_closed <= 1e-9 and worst_numeric <= 1e-4 and worst_resid <= 1e-12
    report(
        10,
        ok,
        f"1000 recipes: closed-form err {worst_closed:.1e} (<=1e-9), numeric err "
        f"{worst_numeric:.1e} (<=1e-4); lambert residual {worst_resid:.1e} (<=1e-12)",
    )


# -- 11: serialization roundtrips and block overhead -------------------------------


def test_criterion_11_serialization_roundtrips_and_block_overhead():
    """10^4 encode -> frame -> bytes -> decode cycles are bit-exact
    across every variant, and a 50-coordinate tied block amortizes its
    headers to under a bit per coordinate while exact framing pays a
    full gamma(depth) header per coordinate."""
    families = (
        gauss_pair(1.0, 2.0),
        PairSpec(uniform_from_mean_kl(0.0, 4.0, 1.3, 0.7), Uniform(0.0, 4.0)),
        mixture_pair(4, 1.0),
    )
    cycles = 0
    exact_ok = True
    for j in range(2000):
        pair = families[j % 3]
        seed = derive_seed(110_000, j)
        encoded = (
            (MODE_EXACT, None, encode_astar(pair, PartitionKind.SAMPLE_SPLIT, seed)),
            (MODE_EXACT, None, encode_astar(pair, PartitionKind.DYADIC, seed)),
            (MODE_EXACT, None, encode_astar(pair, PartitionKind.GLOBAL_BOUND, seed)),
            (MODE_BLOCK, 6, encode_dad(pair, seed, 6)),
            (MODE_BLOCK, 5, encode_mrc(pair, seed, 5)),
        )
        for mode, budget, (code, x, _) in encoded:
            data = write_message(MessageFrame(mode, code.variant, (code,), budget))
            back = read_message(BitReader(data.getvalue()))
            exact_ok &= back.codes == (code,)
            exact_ok &= decode(pair.proposal, back.codes[0], seed) == x
            cycles += 1

    rng = np.random.Generator(np.random.PCG64(111_000))
    kappa = 1.0
    prior_means = rng.uniform(-1.0, 1.0, 50)
    prior_stds = np.exp(rng.uniform(-0.5, 0.5, 50))
    shifts = prior_stds * math.sqrt(2.0 * kappa) * np.tanh(rng.standard_normal(50)) * 0.98
    block = IsoKLGaussianBlock(
        tuple(prior_means),
        tuple(prior_stds),
        tuple(prior_means + shifts),
        kappa,
    )
    codec = BlockCodecConfig(extra_bits=2)
    budget = codec.budget(kappa)
    data = encode_block_vector([block], codec, 111_222)
    decoded = decode_block_vector([block], codec, data, 111_222)
    direct = [
        encode_dad(block.pair(i), derive_seed(111_222, i), budget) for i in range(50)
    ]
    block_ok = decoded == [x for _, x, _ in direct]

    frame = write_message(
        MessageFrame(MODE_BLOCK, Variant.DAD_STAR, tuple(c for c, _, _ in direct), budget)
    )
    block_ok &= frame.getvalue() == data
    header_bits = gamma_len(2) + gamma_len(4) + gamma_len(budget) + gamma_len(51)
    block_overhead = (frame.bit_length - 50 * budget) / 50
    block_ok &= frame.bit_length - 50 * budget == header_bits
    block_ok &= block_overhead <= header_bits / 50

    exact_codes = tuple(
        encode_astar(block.pair(i), PartitionKind.DYADIC, derive_seed(111_222, i))[0]
        for i in range(50)
    )
    exact_frame = write_message(MessageFrame(MODE_EXACT, Variant.AD_STAR, exact_codes))
    payload_bits = sum(c.depth_or_budget - 1 for c in exact_codes)
    exact_overhead = (exact_frame.bit_length - payload_bits) / 50
    mean_gamma = sum(gamma_len(c.depth_or_budget) for c in exact_codes) / 50
    block_ok &= exact_overhead >= mean_gamma and block_overhead < exact_overhead

    ok = exact_ok and block_ok
    report(
        11,
        ok,
        f"{cycles} frame cycles bit-exact; 50-dim tied block overhead "
        f"{block_overhead:.2f} b/coord (== {header_bits}/50) vs exact-mode "
        f"{exact_overhead:.2f} >= mean gamma(depth) {mean_gamma:.2f}",
    )


# -- 12: wire bits per symbol stay near the codelength bound -----------------------

# c per coder: the largest excess of the mean over the bound on the grid
# below when this criterion was added, rounded up to a tenth. A framing
# that sends less must lower these, never raise them.
CODELENGTH_SLACK = {"as": 1.7, "ad": 1.6, "dad": 2.6}


def test_criterion_12_wire_bits_per_symbol_near_the_kl():
    """On a KL grid of 0.5-6 nats (Q from gaussian_from_kl_dinf(kl,
    1.6 kl + 0.5) under N(0, 1)), 200 real frames of 10 symbols per cell
    and coder cost at most KL + 2 log2(KL + 1) + c bits per symbol, KL in
    bits: exact `as` and `ad` frames, and block frames of `dad` codes at
    ceil(KL) + 2 bits."""
    excess = dict.fromkeys(CODELENGTH_SLACK, -math.inf)
    parts = []
    for cell, kl in enumerate((0.5, 1.0, 2.0, 4.0, 6.0)):
        pair = gauss_pair(kl, 1.6 * kl + 0.5)
        kl_bits = kl / LN2
        bound = kl_bits + 2.0 * math.log2(kl_bits + 1.0)
        budget = math.ceil(kl_bits) + 2
        seeds = [derive_seed(120_000 + cell, f) for f in range(200)]
        frames = {"as": [], "ad": [], "dad": []}
        for seed in seeds:
            symbols = [derive_seed(seed, i) for i in range(10)]
            for name, kind in (("as", PartitionKind.SAMPLE_SPLIT), ("ad", PartitionKind.DYADIC)):
                codes = tuple(encode_astar(pair, kind, s)[0] for s in symbols)
                frames[name].append(MessageFrame(MODE_EXACT, codes[0].variant, codes))
            codes = tuple(encode_dad(pair, s, budget)[0] for s in symbols)
            frames["dad"].append(MessageFrame(MODE_BLOCK, Variant.DAD_STAR, codes, budget))
        cell_parts = []
        for name, made in frames.items():
            mean = sum(write_message(f).bit_length for f in made) / (10 * len(made))
            excess[name] = max(excess[name], mean - bound)
            cell_parts.append(f"{name} {mean:.2f}")
        parts.append(f"kl={kl_bits:.2f}b bound {bound:.2f}: " + " ".join(cell_parts))
    ok = all(excess[name] <= c for name, c in CODELENGTH_SLACK.items())
    slack = ", ".join(f"{name} {excess[name]:.3f}<={c}" for name, c in CODELENGTH_SLACK.items())
    report(12, ok, f"largest excess {slack}; " + "; ".join(parts))


# -- 13: the runtime law at large dinf ---------------------------------------------

LADDER_DINFS = (8, 12, 16, 24, 32, 48)
LADDER_CODERS = (("as", PartitionKind.SAMPLE_SPLIT), ("ad", PartitionKind.DYADIC))
# Refused encodes of 200 per (dinf, coder, mean sign) when this criterion was
# added, every other cell codes all 200. Tail-safe region arithmetic must
# lower these, never raise them.
LADDER_REFUSALS = {
    (32, "as", "+"): 1, (32, "ad", "+"): 1,  # DomainError
    (48, "as", "+"): 200, (48, "ad", "+"): 200,  # DomainError
    (48, "as", "-"): 10, (48, "ad", "-"): 197,  # DepthExceededError
}


def test_criterion_13_dinf_ladder_steps_linear_to_the_tails():
    """The paper's O(dinf) runtime at its scale: P = N(0, 1) and Q =
    gauss_pair(0.6 kl_ceiling(dinf), dinf) and its mirror image (mean
    negated) for dinf in 8-48 nats, 200 seeds per cell, max_steps 2e4.

    For each coder and sign, the mean steps of the cells where every seed
    codes, regressed on dinf, give R^2 >= 0.95; mirror cells that both code
    every seed agree within 3 standard errors of their difference; and no
    cell refuses more encodes than LADDER_REFUSALS records (refusals are
    RecErrors, counted by class in the printed table)."""
    means: dict[tuple[str, str], dict[int, tuple[float, float]]] = defaultdict(dict)
    failures: list[str] = []
    print("\n  dinf  coder sign  mean steps  (se)   refused", flush=True)
    for ci, dinf in enumerate(LADDER_DINFS):
        mean, variance = gaussian_from_kl_dinf(0.6 * kl_ceiling(dinf), dinf)
        for sign, target_mean in (("+", mean), ("-", -mean)):
            pair = PairSpec(Gaussian(target_mean, variance), Gaussian(0.0, 1.0))
            for name, kind in LADDER_CODERS:
                steps, refused = [], defaultdict(int)
                for j in range(200):
                    try:
                        trial = encode_astar(pair, kind, derive_seed(130_000 + ci, j),
                                             max_steps=20_000)[2]
                    except RecError as exc:
                        refused[type(exc).__name__] += 1
                        continue
                    steps.append(trial.steps)
                cell_mean = float(np.mean(steps)) if steps else math.nan
                cell_se = se_mean(steps) if len(steps) > 1 else math.nan
                print(f"  {dinf:4d}  {name:5s} {sign:4s} {cell_mean:10.2f} ({cell_se:5.2f})   "
                      f"{dict(refused) or '-'}", flush=True)
                if not refused:
                    means[(name, sign)][dinf] = (cell_mean, cell_se)
                allowed = LADDER_REFUSALS.get((dinf, name, sign), 0)
                if sum(refused.values()) > allowed:
                    failures.append(f"{name}{sign}@{dinf}: {dict(refused)} > {allowed} refused")
    r2s = []
    for (name, sign), cells in means.items():
        if len(cells) < 3:
            failures.append(f"{name}{sign}: only {len(cells)} cells code every seed")
            continue
        grid = sorted(cells)
        r2 = float(stats.linregress(grid, [cells[d][0] for d in grid]).rvalue) ** 2
        r2s.append(r2)
        if r2 < 0.95:
            failures.append(f"{name}{sign}: R^2={r2:.4f} < 0.95")
    worst_z = 0.0
    for name, _ in LADDER_CODERS:
        for dinf in set(means[(name, "+")]) & set(means[(name, "-")]):
            (m_plus, se_plus), (m_minus, se_minus) = means[(name, "+")][dinf], means[(name, "-")][dinf]
            z = abs(m_plus - m_minus) / math.hypot(se_plus, se_minus)
            worst_z = max(worst_z, z)
            if z > 3.0:
                failures.append(f"{name}@{dinf}: mirror means {m_plus:.2f} / {m_minus:.2f}")
    detail = "; ".join(failures) if failures else (
        f"min R^2={min(r2s):.4f} (>=0.95) over {len(r2s)} coder/sign rows, "
        f"mirror cells within {worst_z:.2f} SE (<=3), refusals at or under the record")
    report(13, not failures, detail)
