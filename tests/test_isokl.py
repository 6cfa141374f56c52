"""Equal-KL parameterization tests.

Closed-form outputs are pinned against scipy's lambertw and against
root-finding oracles computed independently (brentq on the KL equation,
fsolve on the joint KL / sup-ratio system) and frozen here as constants.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from reckit.bitstream import MODE_BLOCK, MODE_EXACT, BitWriter, MessageFrame, write_message
from reckit.coders import Code, Variant, encode_dad
from reckit.distributions import Gaussian, PairSpec, Uniform
from reckit.errors import DomainError, InfeasibleParameterError, MalformedMessageError
from reckit.isokl import (
    BlockCodecConfig,
    IsoKLGaussianBlock,
    decode_block_vector,
    encode_block_vector,
    gaussian_from_kl_dinf,
    gaussian_from_mean_kl,
    lambert_w0,
    load_block_model,
    uniform_from_mean_kl,
)
from reckit.randomness import absorb, derive_seed, seed_state

# brentq on KL(N(1, v) || N(0, 1)) = 1 over v in (1e-8, 1), frozen
BRENTQ_VAR_SHIFT1_KL1 = 0.1585943395630394

# fsolve on {KL = k, sup log ratio = r} under a standard normal prior, frozen
FSOLVE_CELLS = {
    (1.0, 2.0): (1.324775143169746, 0.4529108516093025),
    (0.5, 1.0): (0.7950600976189144, 0.36787944117016286),
    (2.0, 4.0): (1.945477050002862, 0.47894082951305067),
    (0.25, 0.6): (0.24103707218470052, 0.32841064615330956),
}

OMEGA = 0.5671432904097838  # W0(1)


def kl_ceiling(dinf: float) -> float:
    """Largest KL a Gaussian pair can carry at a given sup log ratio."""
    return dinf - 0.5 + 0.5 * math.exp(-2.0 * dinf)


# ---------------------------------------------------------------- lambert

def test_lambert_against_scipy():
    xs = np.concatenate([
        -np.exp(-1.0) + np.geomspace(1e-12, 0.3, 40),
        np.geomspace(1e-12, 1e6, 60),
        [0.0],
    ])
    for x in xs:
        w = lambert_w0(float(x))
        ref = float(scipy_lambertw(float(x)).real)
        # W is ill-conditioned near the branch point (derivative ~ 1/(1+w)),
        # so the achievable agreement degrades by that factor
        tol = max(5e-12, 2.5e-16 / max(abs(1.0 + ref), 1e-12))
        assert w == pytest.approx(ref, rel=tol, abs=tol)


def test_lambert_residual_contract():
    rng = np.random.default_rng(20260817)
    xs = np.concatenate([
        rng.uniform(-math.exp(-1.0), 0.0, 300),
        np.exp(rng.uniform(-20, 20, 300)),
    ])
    for x in xs:
        w = lambert_w0(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


def test_lambert_special_points():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(-math.exp(-1.0)) == -1.0
    assert lambert_w0(1.0) == pytest.approx(OMEGA, rel=1e-14)
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(DomainError):
        lambert_w0(-0.5)
    with pytest.raises(DomainError):
        lambert_w0(math.nan)


# --------------------------------------------------- variance from (mean, kl)

def test_variance_matches_root_finding_oracle():
    var = gaussian_from_mean_kl(0.0, 1.0, 1.0, 1.0)
    assert var == pytest.approx(BRENTQ_VAR_SHIFT1_KL1, rel=1e-12)


def test_requested_kl_is_achieved():
    rng = np.random.default_rng(7)
    for _ in range(400):
        nu = rng.uniform(-3, 3)
        rho = math.exp(rng.uniform(-1.5, 1.5))
        kappa = math.exp(rng.uniform(-4, 2))
        mu = nu + rho * math.sqrt(2 * kappa) * rng.uniform(-0.999, 0.999)
        var = gaussian_from_mean_kl(nu, rho, mu, kappa)
        pair = PairSpec(Gaussian(mu, var), Gaussian(nu, rho * rho))
        assert pair.analytic_kl() == pytest.approx(kappa, rel=1e-10, abs=1e-12)
        assert 0.0 < var < rho * rho  # contraction branch of W0


def test_mean_kl_edges():
    assert gaussian_from_mean_kl(2.0, 3.0, 2.0, 0.0) == 9.0
    with pytest.raises(InfeasibleParameterError):
        gaussian_from_mean_kl(0.0, 1.0, 0.5, 0.0)
    with pytest.raises(InfeasibleParameterError):
        gaussian_from_mean_kl(0.0, 1.0, math.sqrt(2.0), 1.0)  # boundary shift
    with pytest.raises(InfeasibleParameterError):
        gaussian_from_mean_kl(0.0, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        gaussian_from_mean_kl(0.0, 1.0, 0.0, -0.1)
    with pytest.raises(DomainError):
        gaussian_from_mean_kl(0.0, 0.0, 0.0, 1.0)


def test_unconstrained_map_always_feasible():
    """kappa = exp(alpha) and a mean at tanh(beta) of its allowed radius
    is feasible for any real (alpha, beta)."""
    rng = np.random.default_rng(99)
    for _ in range(200):
        alpha = rng.uniform(-5, 2)
        beta = rng.uniform(-6, 6)
        kappa = math.exp(alpha)
        mean = 1.0 + 2.0 * math.sqrt(2.0 * kappa) * math.tanh(beta)
        var = gaussian_from_mean_kl(1.0, 2.0, mean, kappa)
        pair = PairSpec(Gaussian(mean, var), Gaussian(1.0, 4.0))
        assert pair.analytic_kl() == pytest.approx(kappa, rel=1e-9, abs=1e-12)


# ---------------------------------------------------- joint (kl, dinf) solve

def test_joint_inversion_matches_fsolve_oracle():
    for (kl, dinf), (mean, var) in FSOLVE_CELLS.items():
        got_mean, got_var = gaussian_from_kl_dinf(kl, dinf)
        assert got_mean == pytest.approx(mean, rel=1e-9)
        assert got_var == pytest.approx(var, rel=1e-9)
        pair = PairSpec(Gaussian(got_mean, got_var), Gaussian(0.0, 1.0))
        assert pair.analytic_kl() == pytest.approx(kl, rel=1e-9)
        assert pair.analytic_dinf() == pytest.approx(dinf, rel=1e-9)


def test_joint_inversion_property():
    rng = np.random.default_rng(31415)
    for _ in range(300):
        dinf = math.exp(rng.uniform(-2.0, 2.0))
        kl = rng.uniform(0.05, 0.95) * kl_ceiling(dinf)
        if kl <= 0.0:
            continue
        mean, var = gaussian_from_kl_dinf(kl, dinf)
        pair = PairSpec(Gaussian(mean, var), Gaussian(0.0, 1.0))
        assert pair.analytic_kl() == pytest.approx(kl, rel=1e-9, abs=1e-12)
        assert pair.analytic_dinf() == pytest.approx(dinf, rel=1e-9, abs=1e-12)
        assert mean >= 0.0 and 0.0 < var < 1.0


def test_joint_inversion_edges():
    assert gaussian_from_kl_dinf(0.0, 0.0) == (0.0, 1.0)
    with pytest.raises(InfeasibleParameterError):
        gaussian_from_kl_dinf(1.0, 0.5)  # kl > dinf
    with pytest.raises(InfeasibleParameterError):
        gaussian_from_kl_dinf(-0.1, 1.0)
    with pytest.raises(InfeasibleParameterError):
        gaussian_from_kl_dinf(1.01 * kl_ceiling(2.0), 2.0)  # above the wedge
    with pytest.raises(InfeasibleParameterError):
        gaussian_from_kl_dinf(0.0, 1.0)  # algebra closes, divergences disagree
    # just inside the wedge still solves
    mean, var = gaussian_from_kl_dinf(0.999 * kl_ceiling(2.0), 2.0)
    assert var > 0.0


# ------------------------------------------------------------ uniform pairs

def test_uniform_kl_exact():
    rng = np.random.default_rng(555)
    for _ in range(200):
        pc = rng.uniform(-5, 5)
        pw = math.exp(rng.uniform(-2, 2))
        kappa = rng.uniform(0.0, 4.0)
        beta = rng.uniform(-8, 8)
        target = uniform_from_mean_kl(pc, pw, kappa, beta)
        pair = PairSpec(target, Uniform(pc, pw))
        assert pair.analytic_kl() == pytest.approx(kappa, abs=1e-12)
        assert pair.analytic_dinf() == pytest.approx(kappa, abs=1e-12)


def test_uniform_support_and_edges():
    prior = Uniform(1.0, 2.0)
    for beta in (-6.0, -1.0, 0.0, 1.0, 6.0):
        t = uniform_from_mean_kl(1.0, 2.0, 0.7, beta)
        assert t.low > prior.low and t.high < prior.high
    centered = uniform_from_mean_kl(1.0, 2.0, 0.7, 0.0)
    assert centered.center == 1.0
    same = uniform_from_mean_kl(1.0, 2.0, 0.0, 3.0)
    assert same.low == prior.low and same.high == prior.high
    with pytest.raises(DomainError):
        uniform_from_mean_kl(0.0, 1.0, -0.5, 0.0)


# -------------------------------------------------------------- block codec

def make_block(kappa: float, n: int, seed: int) -> IsoKLGaussianBlock:
    rng = np.random.default_rng(seed)
    prior_means = tuple(rng.uniform(-2, 2, n).tolist())
    prior_stds = tuple(np.exp(rng.uniform(-0.7, 0.7, n)).tolist())
    shifts = rng.uniform(-0.95, 0.95, n)
    target_means = tuple(
        (m + s * math.sqrt(2 * kappa) * f)
        for m, s, f in zip(prior_means, prior_stds, shifts)
    )
    return IsoKLGaussianBlock(prior_means, prior_stds, target_means, kappa)


def test_block_derives_variances():
    block = make_block(1.2, 5, 3)
    assert len(block) == 5
    for i in range(5):
        want = gaussian_from_mean_kl(
            block.prior_means[i], block.prior_stds[i], block.target_means[i], 1.2
        )
        assert block.target_variances[i] == want
        assert block.pair(i).analytic_kl() == pytest.approx(1.2, rel=1e-10)
        assert block.proposals[i].mean == block.prior_means[i]
    with pytest.raises(DomainError):
        IsoKLGaussianBlock((0.0,), (1.0, 1.0), (0.1,), 0.5)
    with pytest.raises(DomainError):
        IsoKLGaussianBlock((), (), (), 0.5)


def test_block_refuses_supplied_variances():
    with pytest.raises(TypeError):
        IsoKLGaussianBlock((0.0,), (1.0,), (0.1,), 0.5, target_variances=(2.0,))
    with pytest.raises(TypeError):
        IsoKLGaussianBlock((0.0,), (1.0,), (0.1,), 0.5, (2.0,))


def test_codec_budget():
    assert BlockCodecConfig().budget(1.0) == 4  # ceil(1/ln2) = 2, plus 2
    assert BlockCodecConfig(extra_bits=0).budget(0.5) == 1
    assert BlockCodecConfig(extra_bits=1).budget(0.0) == 1
    with pytest.raises(DomainError):
        BlockCodecConfig(extra_bits=0).budget(0.0)
    # a slack that is not an int is refused when the config is built, not
    # at encode or decode: a str, a float, a bool or None
    for extra_bits in ("2", 2.5, 2.0, True, False, None):
        with pytest.raises(DomainError, match="^extra_bits must be an integer"):
            BlockCodecConfig(extra_bits=extra_bits)


def test_block_vector_roundtrip():
    blocks = [make_block(0.8, 4, 1), make_block(2.5, 3, 2), make_block(0.2, 6, 3)]
    config = BlockCodecConfig(extra_bits=2)
    for seed in (0, 9, 20260817):
        data = encode_block_vector(blocks, config, seed)
        out = decode_block_vector(blocks, config, data, seed)
        assert len(out) == 13
        # coordinate streams are independent: re-encoding one block alone
        # reproduces its samples
        solo = decode_block_vector(
            blocks[:1], config, encode_block_vector(blocks[:1], config, seed), seed
        )
        assert out[:4] == solo


def test_block_vector_coordinate_i_draws_from_derive_seed():
    """The codec mixes the vector's seed once and absorbs each coordinate's
    index into that state, which is derive_seed(seed, i): the frames equal
    those of coding every coordinate alone from its derived seed."""
    blocks = [make_block(0.8, 4, 1), make_block(2.5, 3, 2)]
    config = BlockCodecConfig(extra_bits=2)
    for seed in (0, -3, 2**64 + 5, 20260817):
        assert all(absorb(seed_state(seed), i) == derive_seed(seed, i) for i in range(7))
        writer, samples, index = BitWriter(), [], 0
        for block in blocks:
            budget = config.budget(block.kappa)
            codes = []
            for i in range(len(block)):
                code, x, _ = encode_dad(block.pair(i), derive_seed(seed, index), budget)
                codes.append(code)
                samples.append(x)
                index += 1
            write_message(MessageFrame(MODE_BLOCK, Variant.DAD_STAR, tuple(codes), budget),
                          writer)
        data = encode_block_vector(blocks, config, seed)
        assert data == writer.getvalue()
        assert decode_block_vector(blocks, config, data, seed) == samples


def test_block_builds_its_proposals_once_on_first_use():
    block = make_block(1.2, 5, 3)
    assert "proposals" not in vars(block)  # construction builds no proposal
    assert block.proposals == tuple(
        Gaussian(m, s**2) for m, s in zip(block.prior_means, block.prior_stds))
    assert all(block.proposals[i] is block.pair(i).proposal for i in range(len(block)))
    assert block == make_block(1.2, 5, 3) and hash(block) == hash(make_block(1.2, 5, 3))


def test_block_vector_decode_validation():
    blocks = [make_block(0.8, 4, 1)]
    config = BlockCodecConfig(extra_bits=2)
    data = encode_block_vector(blocks, config, 5)
    with pytest.raises(MalformedMessageError):
        decode_block_vector(blocks, BlockCodecConfig(extra_bits=3), data, 5)
    with pytest.raises(MalformedMessageError):
        decode_block_vector([make_block(0.8, 5, 1)], config, data, 5)
    with pytest.raises(MalformedMessageError):
        decode_block_vector(blocks, config, data[:1], 5)


def test_block_vector_decode_refuses_frames_on_their_fields():
    """Each block's frame is checked on its bare fields, with its own
    message: a frame of another coder (an MRC block frame, an exact AD*
    frame), a budget other than the block's and a count other than its
    size."""
    blocks = [make_block(0.8, 4, 1)]  # budget ceil(0.8 / ln 2) + 2 = 4
    config = BlockCodecConfig(extra_bits=2)
    mrc = MessageFrame(MODE_BLOCK, Variant.MRC,
                       tuple(Code(Variant.MRC, 4, h) for h in (0, 1, 2, 15)), 4)
    ad = MessageFrame(MODE_EXACT, Variant.AD_STAR,
                      tuple(Code(Variant.AD_STAR, 3, h) for h in (4, 5, 6, 7)))
    for frame in (mrc, ad):
        with pytest.raises(MalformedMessageError, match="^expected a tied-budget block frame$"):
            decode_block_vector(blocks, config, write_message(frame).getvalue(), 5)
    data = encode_block_vector(blocks, config, 5)
    with pytest.raises(MalformedMessageError, match="^frame budget 4 != configured 5$"):
        decode_block_vector(blocks, BlockCodecConfig(extra_bits=3), data, 5)
    with pytest.raises(MalformedMessageError, match="^frame holds 4 codes, block has 5$"):
        decode_block_vector([make_block(0.8, 5, 1)], config, data, 5)
    with pytest.raises(MalformedMessageError, match="^frame holds 4 codes, block has 3$"):
        decode_block_vector([make_block(0.8, 3, 1)], config, data, 5)


def test_load_block_model():
    model = {
        "coordinates": [
            {"block_id": "a", "prior_mean": 0.0, "prior_std": 1.0, "target_mean": 0.3},
            {"block_id": "b", "prior_mean": 1.0, "prior_std": 2.0, "target_mean": 1.5},
            {"block_id": "a", "prior_mean": 0.5, "prior_std": 1.0, "target_mean": 0.1},
        ],
        "block_kappa": {"a": 0.9, "b": 1.4},
    }
    blocks, permutation = load_block_model(model)
    assert [len(b) for b in blocks] == [2, 1]
    assert blocks[0].kappa == 0.9 and blocks[1].kappa == 1.4
    assert blocks[0].prior_means == (0.0, 0.5)
    # block-major order a0, a2, b1 maps back to file rows 0, 2, 1
    assert permutation == [0, 2, 1]
    blocks2, perm2 = load_block_model(json.loads(json.dumps(model)))
    assert perm2 == permutation and blocks2[0].target_means == blocks[0].target_means
    with pytest.raises(DomainError):
        load_block_model({"coordinates": []})
    with pytest.raises(DomainError):
        load_block_model({"coordinates": [{"block_id": "x", "prior_mean": 0,
                                          "prior_std": 1, "target_mean": 0}],
                          "block_kappa": {}})
    # a record with a key missing or a non-numeric entry
    record = {"block_id": "x", "prior_mean": 0, "prior_std": 1, "target_mean": 0}
    missing = {k: v for k, v in record.items() if k != "target_mean"}
    for bad in (missing, {**record, "prior_mean": "zero"}, "x"):
        with pytest.raises(DomainError):
            load_block_model({"coordinates": [bad], "block_kappa": {"x": 1.0}})
    with pytest.raises(DomainError):
        load_block_model({"coordinates": [record], "block_kappa": {"x": "big"}})
    # a block id that is not a string, alone or beside its string spelling
    for ids in ([1], [True], [1, "1"]):
        coords = [{**record, "block_id": bid} for bid in ids]
        with pytest.raises(DomainError):
            load_block_model({"coordinates": coords, "block_kappa": {"1": 1.0, "True": 1.0}})
