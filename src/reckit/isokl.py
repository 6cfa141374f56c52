"""Equal-KL (IsoKL) parameterizations and the tied-budget block codec.

A block of Gaussian coordinates is parameterized so every coordinate
sits at exactly the same KL divergence kappa from its prior. The
variance that achieves a requested (mean, kappa) has a closed form
through the principal branch of the Lambert W function; a second recipe
inverts (KL, sup-log-ratio) jointly, and a third handles uniform pairs.
Because the codelength of the depth-limited coder depends only on kappa,
one budget header then serves an entire block of coordinates.
"""

from __future__ import annotations

import math
from functools import cached_property

from .bitstream import MODE_BLOCK, BitReader, BitWriter, match_block_frames, read_frame
from .bitstream import write_frame
from .bitstream import read_message, write_message  # noqa: F401  (benchmarks/run.py traces them)
from .coders import Variant, _is_int, check_budget, dad_payloads
from .coders import decode_dad, encode_dad  # noqa: F401  (benchmarks/run.py traces them)
from .distributions import Gaussian, PairSpec, Uniform, as_number
from .errors import DomainError, Frozen, InfeasibleParameterError, MalformedMessageError, RecError
from .randomness import seed_state
from .randomness import derive_seed  # noqa: F401  (benchmarks/run.py traces it here)
from .tree import locate_dyadic_vector

_LN2 = math.log(2.0)
_DAD_STAR = Variant.DAD_STAR
_BRANCH_POINT = -math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """Principal branch of Lambert W: the w >= -1 solving w * e^w = x.

    Halley iteration from a regime-dependent seed; near the branch point
    the square-root series is already accurate to O(p^4) and is returned
    directly. Residual target: |w e^w - x| <= 1e-12 * max(1, |x|).
    """
    if not x >= _BRANCH_POINT:
        raise DomainError(f"lambert_w0 needs x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return x
    if x < -0.3285:
        # branch-point expansion in p = sqrt(2(ex + 1))
        p = math.sqrt(max(0.0, 2.0 * (math.e * x + 1.0)))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
        if p < 1e-4:
            return w
    elif x < 3.0:
        w = x / (1.0 + x)
    else:
        lx = math.log(x)
        llx = math.log(lx)
        w = lx - llx + llx / lx
    for _ in range(64):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w_next = w - step
        if abs(w_next - w) <= 1e-15 * (1.0 + abs(w_next)):
            w = w_next
            break
        w = w_next
    return w


def gaussian_from_mean_kl(
    prior_mean: float, prior_std: float, target_mean: float, kappa: float
) -> float:
    """Target variance putting Gaussian(target_mean, .) at KL kappa from
    Gaussian(prior_mean, prior_std^2).

    Returns sigma^2 = -prior_std^2 * W0(-exp(delta^2 - 2 kappa - 1)) with
    delta the standardized mean shift. The mean must satisfy
    |target_mean - prior_mean| < prior_std * sqrt(2 kappa); kappa = 0
    forces the target to equal the prior exactly.
    """
    if not 0.0 <= kappa < math.inf:  # also refuses nan
        raise DomainError(f"kappa must be finite and >= 0, got {kappa}")
    if prior_std <= 0.0:
        raise DomainError(f"prior std must be > 0, got {prior_std}")
    if kappa == 0.0:
        if target_mean != prior_mean:
            raise InfeasibleParameterError(
                "kappa = 0 admits only target_mean == prior_mean"
            )
        return prior_std * prior_std
    delta = (target_mean - prior_mean) / prior_std
    if not delta * delta < 2.0 * kappa:
        raise InfeasibleParameterError(
            f"mean shift {target_mean - prior_mean} outside the radius "
            f"{prior_std * math.sqrt(2.0 * kappa)} allowed at kappa={kappa}"
        )
    w = lambert_w0(-math.exp(delta * delta - 2.0 * kappa - 1.0))
    return -(prior_std * prior_std) * w


def gaussian_from_kl_dinf(kl: float, dinf: float) -> tuple[float, float]:
    """Invert (KL, sup log ratio) jointly under a standard normal proposal.

    Returns (|mean|, variance) with the mean's sign fixed positive (the
    parameterization is symmetric in it). Raises when no Gaussian attains
    the requested pair, including the degenerate corner where the algebra
    closes but the produced pair's divergences disagree with the request.
    A kl or dinf that is not finite, or a pair whose Lambert W argument
    overflows (at kl = 1, a dinf past about 352.5 nats), is a DomainError.
    """
    if not (math.isfinite(kl) and math.isfinite(dinf)):
        raise DomainError(f"kl and dinf must be finite, got kl={kl}, dinf={dinf}")
    if kl < 0.0 or dinf < kl:
        raise InfeasibleParameterError(
            f"need dinf >= kl >= 0, got kl={kl}, dinf={dinf}"
        )
    if kl == 0.0 and dinf == 0.0:
        return 0.0, 1.0
    a = 2.0 * dinf - 2.0 * kl - 1.0
    b = 2.0 * dinf - 1.0
    try:
        arg = a * math.exp(b)
    except OverflowError:  # b past about 709.78
        arg = math.inf
    if not arg >= _BRANCH_POINT:
        raise InfeasibleParameterError(
            f"(kl={kl}, dinf={dinf}) lies outside the feasible wedge "
            "(kl too close to dinf)"
        )
    if arg == math.inf:
        raise DomainError(f"(kl={kl}, dinf={dinf}) leaves the float range of the inversion")
    variance = math.exp(lambert_w0(arg) - b)
    mean_sq = 2.0 * kl - variance + math.log(variance) + 1.0
    mean_sq_alt = 2.0 * (1.0 - variance) * (dinf + 0.5 * math.log(variance))
    if mean_sq < -1e-9 or abs(mean_sq - mean_sq_alt) > 1e-9 * max(1.0, abs(mean_sq)):
        raise InfeasibleParameterError(
            f"(kl={kl}, dinf={dinf}) induces mean^2 = {mean_sq} (alt {mean_sq_alt})"
        )
    mean = math.sqrt(max(0.0, mean_sq))
    pair = PairSpec(Gaussian(mean, variance), Gaussian(0.0, 1.0))
    if (
        abs(pair.analytic_kl() - kl) > 1e-9 * max(1.0, kl)
        or abs(pair.analytic_dinf() - dinf) > 1e-9 * max(1.0, dinf)
    ):
        raise InfeasibleParameterError(
            f"(kl={kl}, dinf={dinf}) not attainable by a Gaussian pair"
        )
    return mean, variance


def uniform_from_mean_kl(
    prior_center: float, prior_width: float, kappa: float, beta: float
) -> Uniform:
    """Uniform target at KL exactly kappa inside a uniform prior.

    Width shrinks by e^-kappa; the center moves to tanh(beta) of the
    slack, keeping the support strictly inside the prior for finite beta.
    """
    if not 0.0 <= kappa < math.inf:  # also refuses nan
        raise DomainError(f"kappa must be finite and >= 0, got {kappa}")
    width = prior_width * math.exp(-kappa)
    center = prior_center + 0.5 * (prior_width - width) * math.tanh(beta)
    return Uniform(center, width)


class IsoKLGaussianBlock(Frozen):
    """Gaussian coordinates sharing one KL divergence from their priors.

    Target variances are derived, never supplied: each coordinate's
    variance is the Lambert W solution for its (mean shift, kappa). The
    prior of each coordinate is built on first use and kept, in the
    instance ``__dict__`` that holds the fields too.
    """

    _fields = ("prior_means", "prior_stds", "target_means", "kappa", "target_variances")

    def __init__(self, prior_means: tuple[float, ...], prior_stds: tuple[float, ...],
                 target_means: tuple[float, ...], kappa: float) -> None:
        n = len(prior_means)
        if not (len(prior_stds) == len(target_means) == n) or n == 0:
            raise DomainError("block coordinate arrays must be non-empty and aligned")
        variances = tuple(
            gaussian_from_mean_kl(nu, rho, mu, kappa)
            for nu, rho, mu in zip(prior_means, prior_stds, target_means)
        )
        self._store(prior_means, prior_stds, target_means, kappa, variances)

    def __len__(self) -> int:
        return len(self.prior_means)

    @cached_property
    def proposals(self) -> tuple[Gaussian, ...]:
        return tuple(Gaussian(nu, rho**2) for nu, rho in zip(self.prior_means, self.prior_stds))

    def pair(self, i: int) -> PairSpec:
        return PairSpec(Gaussian(self.target_means[i], self.target_variances[i]),
                        self.proposals[i])


class BlockCodecConfig(Frozen):
    """Codec-side knobs: the extra-bit slack t added to every block's
    ceil(kappa / ln 2) base budget. t must be an int (``coders._is_int``:
    a bool or a float is refused)."""

    __slots__ = _fields = ("extra_bits",)

    def __init__(self, extra_bits: int = 2) -> None:
        if not _is_int(extra_bits):
            raise DomainError(f"extra_bits must be an integer, got {extra_bits!r}")
        self._store(extra_bits)

    def budget(self, kappa: float) -> int:
        """ceil(kappa / ln 2) + t, refused (a nan or infinite kappa's too) by
        ``coders.check_budget``, alike for the encoder and the decoder."""
        bits = kappa / _LN2
        d = math.ceil(bits) + self.extra_bits if math.isfinite(bits) else bits
        check_budget(d)
        return d


def encode_block_vector(
    blocks: list[IsoKLGaussianBlock], config: BlockCodecConfig, seed: int
) -> bytes:
    """Encode every coordinate with the depth-limited coder, one tied
    budget per block, framed as consecutive block messages.

    Coordinate i (in block-major order) draws from the stream derived as
    derive_seed(seed, i), so coordinates are independent and the decoder
    can regenerate any of them in isolation. The vector's seed is mixed
    once; each coordinate absorbs its index into that state.

    Per block: its budget, its codewords bare from ``coders.dad_payloads``
    and its frame from ``bitstream.write_frame``, so no ``Code``,
    ``TrialStats`` or ``MessageFrame`` is built. The bytes are those of
    ``encode_dad`` per coordinate and ``write_message`` per block.
    """
    writer = BitWriter()
    stream = seed_state(seed)
    index = 0
    for block in blocks:
        budget = config.budget(block.kappa)
        n = len(block)
        payloads = dad_payloads(map(block.pair, range(n)), stream, index, budget)
        write_frame(writer, MODE_BLOCK, _DAD_STAR, budget, payloads)
        index += n
    return writer.getvalue()


def decode_block_vector(
    blocks: list[IsoKLGaussianBlock],
    config: BlockCodecConfig,
    data: bytes,
    seed: int,
) -> list[float]:
    """Exact inverse of encode_block_vector (target means are not needed
    to decode; only priors, kappas, and block sizes are read).

    The model fixes every header field of a frame before a bit is read:
    mode, variant DAD*, the block's configured budget and its size. So the
    message is first matched against the frames the blocks imply
    (``bitstream.match_block_frames``, one linear pass); when it is exactly
    those frames and their pad bits, one call to
    ``tree.locate_dyadic_vector`` decodes every coordinate from the
    codewords, drawing their sample uniforms in one packed pass.

    Any other message, or a block whose budget ``config.budget`` refuses,
    takes the walk that names the fault: each frame is read by
    ``bitstream.read_frame`` and checked against its block's shape (a
    refused block's on its variant, then refused), and ``check_end`` refuses
    data after the last frame, as a fault of that frame. Gamma codes are
    prefix-free, so the match accepts exactly the messages the walk accepts,
    and the walk never succeeds. A refused vector raises what a
    block-by-block decode meets first: when a frame fails its read or a
    check, the coordinates of the blocks before it are decoded, and the
    first of their refusals is raised ahead of the frame's.
    """
    shapes, refusal = [], None  # each block's (budget, size), up to a refused one
    try:
        for block in blocks:
            shapes.append((config.budget(block.kappa), len(block)))
    except RecError as exc:  # the walk raises it at its block, after the refusals before it
        refusal = exc
    payloads = None if refusal is not None else match_block_frames(data, _DAD_STAR, shapes)
    if payloads is not None:
        proposals = [p for block in blocks for p in block.proposals]
        return locate_dyadic_vector(proposals, seed_state(seed), payloads)
    reader = BitReader(data)
    proposals: list[Gaussian] = []
    payloads = []
    try:
        for block, shape in zip(blocks, shapes + [None]):  # None: the refused block
            _, variant, budget, frame_payloads = read_frame(reader)
            if variant is not _DAD_STAR:  # a DAD_STAR frame is a block frame
                raise MalformedMessageError("expected a tied-budget block frame")
            if shape is None:
                raise refusal
            configured, count = shape
            if budget != configured:
                raise MalformedMessageError(f"frame budget {budget} != configured {configured}")
            if len(frame_payloads) != count:
                raise MalformedMessageError(
                    f"frame holds {len(frame_payloads)} codes, block has {count}")
            proposals += block.proposals
            payloads += frame_payloads
        reader.check_end()
        raise AssertionError("the frame walk accepted a message the match refused")
    except RecError as exc:
        failure = exc
    locate_dyadic_vector(proposals, seed_state(seed), payloads)
    raise failure


def load_block_model(data: dict) -> tuple[list[IsoKLGaussianBlock], list[int]]:
    """Build blocks from a block model dict (the CLI reads it from a JSON file).

    The model is a list of per-coordinate records plus a kappa per
    block id. Blocks come out in order of first appearance; the returned
    permutation maps block-major coordinate order back to file order.
    A missing key, a block id that is not a string (the keys of
    ``block_kappa`` are) or an entry that is not a number raises DomainError.
    """
    try:
        coords = data["coordinates"]
        kappas = data["block_kappa"]
    except (KeyError, TypeError):
        raise DomainError(
            "block model needs 'coordinates' and 'block_kappa' entries"
        ) from None
    grouped: dict[str, list[tuple[int, float, float, float]]] = {}  # in order of appearance
    try:
        for pos, rec in enumerate(coords):
            bid = rec["block_id"]
            if not isinstance(bid, str):
                raise TypeError(f"block_id must be a string, got {bid!r}")
            grouped.setdefault(bid, []).append(
                (pos, as_number(rec["prior_mean"]), as_number(rec["prior_std"]),
                 as_number(rec["target_mean"])))
        kappa_of = {bid: as_number(kappas[bid]) for bid in grouped if bid in kappas}
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed block model: {exc!r}") from None
    blocks: list[IsoKLGaussianBlock] = []
    permutation: list[int] = []
    for bid, members in grouped.items():
        if bid not in kappa_of:
            raise DomainError(f"block {bid!r} has no kappa")
        positions, prior_means, prior_stds, target_means = zip(*members)
        blocks.append(IsoKLGaussianBlock(prior_means, prior_stds, target_means, kappa_of[bid]))
        permutation.extend(positions)
    return blocks, permutation
