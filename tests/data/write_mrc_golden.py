"""Record the MRC golden in ``tests/data/mrc_golden.json``.

For every pair below, budgets 1 to 10 bits and 40 seeds, it stores one
``encode_mrc`` call: the payload, the ``float.hex`` of the sample and of
the stats' lower bound (the chosen candidate's log density ratio), and
the ``float.hex`` of the sample ``decode`` regenerates from the code.
Budgets above 8 bits draw more than 256 candidates. The pairs cover a
Gaussian, a uniform and a mixture target, and a target whose support no
candidate hits, where the selection falls back to uniform.
``tests/test_mrc_golden.py`` replays it. Run from the repo root:

    PYTHONPATH=src python tests/data/write_mrc_golden.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from reckit.bench import mixture_pair
from reckit.coders import decode, encode_mrc
from reckit.distributions import Gaussian, MixtureComponent, PairSpec, Uniform, UniformMixture
from reckit.isokl import gaussian_from_kl_dinf

OUT = Path(__file__).with_name("mrc_golden.json")

STD = Gaussian(0.0, 1.0)


def _cell(kl: float, dinf: float) -> PairSpec:
    return PairSpec(Gaussian(*gaussian_from_kl_dinf(kl, dinf)), STD)


PAIRS = {
    "kl0.9-dinf2": _cell(0.9, 2.0),
    "kl2.1-dinf4": _cell(2.1, 4.0),
    "kl3.0-dinf6": _cell(3.0, 6.0),
    "uniform-under-gaussian": PairSpec(Uniform(0.25, 1.5), STD),
    "mixture8": mixture_pair(8, 1.0),
    # a target in the proposal's far tail: most encodes hit no support
    "all-miss": PairSpec(UniformMixture((MixtureComponent(1.0, 1.9990, 1.9995),)),
                         Uniform(1.0, 2.0)),
}

BUDGETS = range(1, 11)
SEEDS = 40  # per (pair, budget)


def _seed(rng: random.Random) -> int:
    """Small, negative, 64-bit-wide and wider-than-64-bit seeds."""
    return rng.choice((
        rng.randrange(1000),
        -rng.randrange(1, 2**40),
        rng.randrange(2**64),
        rng.randrange(2**64, 2**80),
    ))


def encodes() -> list[tuple[str, int, int]]:
    """The (pair, bits, seed) encodes of the golden, in order."""
    rng = random.Random(20260817)
    return [(name, bits, _seed(rng)) for name in PAIRS for bits in BUDGETS
            for _ in range(SEEDS)]


def outcome(name: str, bits: int, seed: int) -> list:
    """[payload, sample, lower bound, decoded sample], the floats as ``float.hex``."""
    pair = PAIRS[name]
    code, x, stats = encode_mrc(pair, seed, bits)
    back = decode(pair.proposal, code, seed)
    return [code.payload, float.hex(x), float.hex(stats.lower_bound), float.hex(back)]


def golden() -> list[list]:
    return [[name, bits, seed, *outcome(name, bits, seed)] for name, bits, seed in encodes()]


def main() -> int:
    rows = golden()
    OUT.write_text('{"encodes": [\n' + ",\n".join(json.dumps(r) for r in rows) + "\n]}\n")
    misses = sum(r[5] == "-inf" for r in rows)
    print(f"wrote {OUT}: {len(rows)} encodes ({misses} with no candidate in the support)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
