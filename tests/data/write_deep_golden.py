"""Record the deep decode golden in ``tests/data/deep_golden.json``.

For random (seed, heap index, depth) codes over depths 1 to
``tree.MAX_DEPTH``, every partition kind and the proposals below, it
stores the ``float.hex`` of the sample ``tree.locate`` decodes (for a
chain code, ``coders.decode_pfr``), or the error class of a refused code. A dyadic or sample-split code takes a
random heap index at its depth, and every such kind also takes the
leftmost and rightmost node at a spread of depths, where the cuts sit
in the proposal's tails; a chain (global-bound) code is named by its
depth alone. The depth-limited coder's extra root (index 0) is included.
The narrow proposal rounds many deep cuts onto a region's end and so
empties partition slots: those codes are recorded as refusals.
``tests/test_deep_golden.py`` replays it. Run from the repo root:

    PYTHONPATH=src python tests/data/write_deep_golden.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from reckit.coders import Code, Variant, decode_pfr
from reckit.distributions import Gaussian, MixtureComponent, Uniform, UniformMixture
from reckit.errors import RecError
from reckit.tree import MAX_DEPTH, PartitionKind, locate

OUT = Path(__file__).with_name("deep_golden.json")

PROPOSALS = {
    "std_normal": Gaussian(0.0, 1.0),
    "gaussian_scaled": Gaussian(-1.2, 2.5),
    "uniform": Uniform(1.0, 2.0),
    "mixture": UniformMixture((
        MixtureComponent(0.3, 0.1, 0.2),
        MixtureComponent(0.7, 0.5, 0.9),
    )),
    # std 1e-3: deep dyadic cuts round onto a region's end
    "narrow": Gaussian(0.7, 1e-6),
}

RANDOM_CODES = 120  # per (proposal, kind)
EDGE_DEPTHS = (2, 8, 20, 40, 53, 54, 55, 62)


def _seed(rng: random.Random) -> int:
    """Small, negative, 64-bit-wide and wider-than-64-bit seeds."""
    return rng.choice((
        rng.randrange(1000),
        -rng.randrange(1, 2**40),
        rng.randrange(2**64),
        rng.randrange(2**64, 2**80),
    ))


def codes() -> list[tuple[str, PartitionKind, int, int, int]]:
    """The (proposal, kind, seed, index, depth) codes of the golden, in order."""
    rng = random.Random(20221)
    out = []
    for name in PROPOSALS:
        for kind in PartitionKind:
            for _ in range(RANDOM_CODES):
                depth = rng.randint(1, MAX_DEPTH)
                if kind is PartitionKind.GLOBAL_BOUND:
                    index = depth  # a chain node's heap index is its arrival index
                else:
                    index = rng.randrange(1 << (depth - 1), 1 << depth)
                out.append((name, kind, _seed(rng), index, depth))
            if kind is PartitionKind.GLOBAL_BOUND:
                continue
            for depth in EDGE_DEPTHS:
                for index in (1 << (depth - 1), (1 << depth) - 1):
                    out.append((name, kind, _seed(rng), index, depth))
        for _ in range(4):  # the extra root
            out.append((name, PartitionKind.DYADIC, _seed(rng), 0, 1))
    return out


def outcome(name: str, kind: PartitionKind, seed: int, index: int, depth: int) -> str:
    """``float.hex`` of the decoded sample, or the error class."""
    try:
        if kind is PartitionKind.GLOBAL_BOUND:  # a chain code is the PFR arrival index
            return float.hex(decode_pfr(PROPOSALS[name], Code(Variant.PFR, index), seed))
        return float.hex(locate(PROPOSALS[name], kind, seed, index))
    except RecError as exc:
        return type(exc).__name__


def golden() -> list[list]:
    return [[name, kind.value, seed, index, depth, outcome(name, kind, seed, index, depth)]
            for name, kind, seed, index, depth in codes()]


def main() -> int:
    rows = golden()
    OUT.write_text('{"codes": [\n' + ",\n".join(json.dumps(r) for r in rows) + "\n]}\n")
    refused = sum(not r[-1].startswith(("0x", "-0x")) for r in rows)
    print(f"wrote {OUT}: {len(rows)} codes ({refused} refused)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
