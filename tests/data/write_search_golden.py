"""Record the search golden in ``tests/data/search_golden.json``.

For each pair below (the six of ``tests/test_lazy_draws.py``: three
Gaussian KL/D-infinity cells, an eight-mode mixture and the refused tail
pair N(+-3, 0.9) under N(0, 1)) and each coder (as, ad, dad at budgets 3
to 8, and pfr where the runtime grid runs it), it encodes seeds 0 to
``SEEDS - 1`` and stores per encode the code's payload and width, the
``float.hex`` of the sample, the steps, the returned depth and the
``float.hex`` of the lower bound, or else the error class. Next to each
it stores how often the encode reached ``trunc_gumbel`` (looked up in
``tree`` by the tree search, in ``coders`` by the PFR loop), the
proposal's ``inv_cdf`` and ``cdf``, ``PairSpec.bound_M`` and
``coders.expand``: the search's draws and region arithmetic, counted
where the search looks them up. Each encode runs on a fresh
``PairSpec``, so the counts are those of a pair's first search: a pair
that has searched before remembers dyadic nodes and counts fewer calls.
``tests/test_search_golden.py`` replays it. Run from the repo root:

    PYTHONPATH=src python tests/data/write_search_golden.py
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from reckit import coders, tree
from reckit.bench import mixture_pair
from reckit.coders import CODERS, Variant
from reckit.distributions import Gaussian, PairSpec, Uniform, UniformMixture
from reckit.errors import RecError
from reckit.isokl import gaussian_from_kl_dinf

OUT = Path(__file__).with_name("search_golden.json")

SEEDS = 100
MAX_STEPS = 20_000
STD = Gaussian(0.0, 1.0)


def _cell(kl: float, dinf: float) -> PairSpec:
    return PairSpec(Gaussian(*gaussian_from_kl_dinf(kl, dinf)), STD)


PAIRS = {
    "kl0.9-dinf2": _cell(0.9, 2.0),
    "kl2.1-dinf4": _cell(2.1, 4.0),
    "kl3.0-dinf6": _cell(3.0, 6.0),
    "mixture8": mixture_pair(8, 1.0),
    "tail+3": PairSpec(Gaussian(3.0, 0.9), STD),
    "tail-3": PairSpec(Gaussian(-3.0, 0.9), STD),
}
CODER_NAMES = {"as": Variant.AS_STAR, "ad": Variant.AD_STAR, "pfr": Variant.PFR,
               **{f"dad{b}": Variant.DAD_STAR for b in range(3, 9)}}
# (module or class, attribute, counter) of every counted call site
COUNTED = [
    (tree, "trunc_gumbel", "gumbel"),
    (coders, "trunc_gumbel", "gumbel"),
    *((family, "inv_cdf", "inv_cdf") for family in (Gaussian, Uniform, UniformMixture)),
    *((family, "cdf", "cdf") for family in (Gaussian, Uniform, UniformMixture)),
    (PairSpec, "bound_M", "bound_M"),
    (coders, "expand", "expand"),
]
COUNTERS = ("gumbel", "inv_cdf", "cdf", "bound_M", "expand")


def coders_for(pair: PairSpec) -> list[str]:
    """Every coder but pfr, which runs only where the runtime grid runs it
    (its expected arrivals grow like e^D-infinity)."""
    return [name for name, variant in CODER_NAMES.items()
            if pair.analytic_dinf() <= CODERS[variant].max_dinf]


def _counting(fn, name: str, counts: Counter):
    def counted(*args):
        counts[name] += 1
        return fn(*args)
    return counted


@contextmanager
def counting():
    """Count the calls at every ``COUNTED`` site for the block's duration."""
    counts: Counter = Counter()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in COUNTED]
    try:
        for (owner, attr, name), (_, _, fn) in zip(COUNTED, originals):
            setattr(owner, attr, _counting(fn, name, counts))
        yield counts
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def outcome(pair_name: str, coder: str, seed: int) -> list:
    """[payload, width, sample, steps, depth, lower bound] or [error class],
    then the ``COUNTERS`` counts of the encode, on a fresh pair."""
    budget = int(coder[3:]) if coder.startswith("dad") else None
    pair = PairSpec(PAIRS[pair_name].target, PAIRS[pair_name].proposal)
    with counting() as counts:
        try:
            code, x, stats = CODERS[CODER_NAMES[coder]].encode(pair, seed, budget, MAX_STEPS)
        except RecError as exc:
            result = [type(exc).__name__]
        else:
            result = [code.payload, code.depth_or_budget, x.hex(), stats.steps,
                      stats.returned_depth, stats.lower_bound.hex()]
    return result + [counts[name] for name in COUNTERS]


def groups() -> list[tuple[str, str]]:
    """The (pair, coder) groups of the golden, in order."""
    return [(name, coder) for name, pair in PAIRS.items() for coder in coders_for(pair)]


def main() -> int:
    lines = []
    refused = 0
    for name, coder in groups():
        rows = [outcome(name, coder, seed) for seed in range(SEEDS)]
        refused += sum(isinstance(row[0], str) for row in rows)
        lines.append(f"{json.dumps(f'{name} {coder}')}: [\n"
                     + ",\n".join(json.dumps(row) for row in rows) + "\n]")
    OUT.write_text('{"seeds": %d, "searches": {\n' % SEEDS + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {OUT}: {len(lines)} groups of {SEEDS} encodes ({refused} refused)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
