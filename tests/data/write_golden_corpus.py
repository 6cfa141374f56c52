"""Record the coder golden corpus in ``tests/data/golden_corpus.json``.

Every coder in ``CODERS`` codes one symbol per seed for each pair below,
and ``encode_block_vector`` codes a small IsoKL vector per seed. For each
case the corpus stores the message hex, the ``float.hex`` of every
decoded sample, the search steps and the winner's depth (or budget), or
the error class of a refused encode. ``tests/test_golden_corpus.py``
replays it. Run from the repo root:

    PYTHONPATH=src python tests/data/write_golden_corpus.py

A coder is left out on a pair whose D-infinity is above the coder's
tractable ``max_dinf`` (PFR on the tail pair), as the bench grids do.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from reckit.bench import mixture_pair
from reckit.bitstream import (
    MODE_BLOCK,
    MODE_EXACT,
    BitReader,
    MessageFrame,
    read_message,
    write_message,
)
from reckit.coders import CODERS, MAX_STEPS, Variant, decode
from reckit.distributions import Gaussian, PairSpec, Uniform
from reckit.errors import RecError
from reckit.isokl import (
    BlockCodecConfig,
    IsoKLGaussianBlock,
    decode_block_vector,
    encode_block_vector,
    gaussian_from_kl_dinf,
)

OUT = Path(__file__).with_name("golden_corpus.json")

_STD_NORMAL = Gaussian(0.0, 1.0)
_MEAN, _VARIANCE = gaussian_from_kl_dinf(2.1, 4.0)

PAIRS = {
    "gaussian_kl2.1_dinf4": PairSpec(Gaussian(_MEAN, _VARIANCE), _STD_NORMAL),
    "gaussian_scaled": PairSpec(Gaussian(0.7, 0.3), Gaussian(-1.2, 2.5)),
    "uniform": PairSpec(Uniform(1.2, 0.5), Uniform(1.0, 2.0)),
    "uniform_gaussian": PairSpec(Uniform(0.25, 1.5), _STD_NORMAL),
    "mixture_uniform": mixture_pair(4, 1.5),
    # upper tail: the search's CDF coordinates saturate (ROADMAP item 1)
    "tail_gaussian": PairSpec(Gaussian(3.0, 0.9), _STD_NORMAL),
}

# small, negative, 64-bit-wide and wider-than-64-bit seeds
SEEDS = list(range(14)) + [-1, -(2**40) - 3, 2**63, 2**64 - 1, 2**64 + 5, 3**50]

BUDGET = 6  # bits of the fixed-width coders

BLOCKS = [
    IsoKLGaussianBlock(
        prior_means=(0.0, 0.5, -1.0),
        prior_stds=(1.0, 2.0, 0.5),
        target_means=(0.3, 1.0, -1.2),
        kappa=1.0,
    ),
    IsoKLGaussianBlock(
        prior_means=(0.0, 0.0),
        prior_stds=(1.0, 1.0),
        target_means=(0.5, -0.2),
        kappa=2.5,
    ),
]


def cases() -> list[tuple[str, Variant]]:
    """The (pair name, coder) groups of the corpus, in order."""
    return [
        (name, variant)
        for name, pair in PAIRS.items()
        for variant, spec in CODERS.items()
        if pair.analytic_dinf() <= spec.max_dinf
    ]


def code_symbol(pair: PairSpec, variant: Variant, seed: int) -> dict:
    """Encode one symbol, frame it, read it back and decode it."""
    spec = CODERS[variant]
    try:
        code, x, stats = spec.encode(pair, seed, BUDGET if spec.fixed_width else None, MAX_STEPS)
    except RecError as exc:
        return {"error": type(exc).__name__}
    if spec.fixed_width:
        frame = MessageFrame(MODE_BLOCK, variant, (code,), BUDGET)
    else:
        frame = MessageFrame(MODE_EXACT, variant, (code,))
    data = write_message(frame).getvalue()
    (read,) = read_message(BitReader(data)).codes
    decoded = decode(pair.proposal, read, seed)
    if float.hex(decoded) != float.hex(x):
        raise AssertionError(f"{variant} seed {seed}: decoded {decoded!r}, encoded {x!r}")
    return {
        "message": data.hex(),
        "samples": [float.hex(decoded)],
        "steps": stats.steps,
        "depth": stats.returned_depth,
    }


def code_block_vector(seed: int) -> dict:
    config = BlockCodecConfig()
    data = encode_block_vector(BLOCKS, config, seed)
    samples = decode_block_vector(BLOCKS, config, data, seed)
    return {"message": data.hex(), "samples": [float.hex(x) for x in samples]}


def corpus() -> dict:
    groups = [
        {
            "pair": name,
            "coder": variant.value,
            "cases": [dict(seed=s, **code_symbol(PAIRS[name], variant, s)) for s in SEEDS],
        }
        for name, variant in cases()
    ]
    blocks = [dict(seed=s, **code_block_vector(s)) for s in SEEDS]
    return {"groups": groups, "block_vector": blocks}


def main() -> int:
    data = corpus()
    lines = ",\n".join(json.dumps(g) for g in data["groups"])
    OUT.write_text(
        '{"groups": [\n' + lines + '\n],\n"block_vector": '
        + json.dumps(data["block_vector"]) + "}\n"
    )
    n = sum(len(g["cases"]) for g in data["groups"])
    refused = sum("error" in c for g in data["groups"] for c in g["cases"])
    print(f"wrote {OUT}: {len(data['groups'])} groups, {n} symbols "
          f"({refused} refused), {len(data['block_vector'])} block vectors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
