"""Relative entropy coding over 1-D continuous distributions.

Given a target distribution Q, a proposal P, and a seed both sides
share, the coders here transmit an exact sample of Q using roughly
KL(Q||P) bits: the encoder runs a race of keyed random draws and sends
only the winner's identity, and the decoder regenerates the same draw
from the shared stream. Exact searches (sample-split, dyadic, and the
unshrunk rejection race) are joined by two fixed-budget coders and the
constant-divergence parameterizations used to build test pairs. Any coder
runs through ``encode(pair, variant, seed, budget, max_steps)``, and
``decode(proposal, code, seed)`` decodes every coder's codes. Models and
configs come in as dicts (``PairSpec.from_dict``,
``distribution_from_dict``, ``load_block_model``); only ``reckit.cli``
reads files.

Every module imports only the standard library. The experiment harness,
``reckit.bench`` (behind the ``bench-*`` and ``verify`` commands), is not
imported here: ``from reckit import bench``. The search and randomness
internals live in ``reckit.tree`` and ``reckit.randomness``.
"""

from .bitstream import (
    BitReader,
    BitWriter,
    MODE_BLOCK,
    MODE_EXACT,
    MessageFrame,
    read_message,
    write_message,
)
from .coders import (
    CODERS,
    Code,
    TrialStats,
    Variant,
    decode,
    encode,
)
from .distributions import (
    Distribution1D,
    Gaussian,
    MixtureComponent,
    PairSpec,
    Uniform,
    UniformMixture,
    distribution_from_dict,
)
from .errors import (
    AbsoluteContinuityError,
    BudgetExhaustedError,
    DegenerateRegionError,
    DepthExceededError,
    DomainError,
    InfeasibleParameterError,
    InvalidCodeError,
    MalformedMessageError,
    RecError,
    UnboundedRatioError,
)
from .isokl import (
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
from .randomness import derive_seed

__version__ = "0.1.0"

__all__ = [
    "AbsoluteContinuityError",
    "BitReader",
    "BitWriter",
    "BlockCodecConfig",
    "BudgetExhaustedError",
    "CODERS",
    "Code",
    "DegenerateRegionError",
    "DepthExceededError",
    "Distribution1D",
    "DomainError",
    "Gaussian",
    "InfeasibleParameterError",
    "InvalidCodeError",
    "IsoKLGaussianBlock",
    "MODE_BLOCK",
    "MODE_EXACT",
    "MalformedMessageError",
    "MessageFrame",
    "MixtureComponent",
    "PairSpec",
    "RecError",
    "TrialStats",
    "UnboundedRatioError",
    "Uniform",
    "UniformMixture",
    "Variant",
    "decode",
    "decode_block_vector",
    "derive_seed",
    "distribution_from_dict",
    "encode",
    "encode_block_vector",
    "gaussian_from_kl_dinf",
    "gaussian_from_mean_kl",
    "lambert_w0",
    "load_block_model",
    "read_message",
    "uniform_from_mean_kl",
    "write_message",
]
