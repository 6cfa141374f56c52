"""Record the PairSpec golden values in ``tests/data/pair_golden.json``.

For every pair below it stores the ``float.hex`` (or the error class) of
``ratio_mode``, ``analytic_kl``, ``analytic_dinf``, ``log_ratio`` at a set
of points and ``bound_M`` over a set of regions with positive proposal
mass. ``tests/test_pair_golden.py`` replays them. Run from the repo root:

    PYTHONPATH=src python tests/data/write_pair_golden.py

The pairs with a uniform target under a Gaussian proposal pin every
method but ``bound_M``; their bound is checked by the property tests.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

from reckit.distributions import (
    Gaussian,
    MixtureComponent,
    PairSpec,
    Uniform,
    UniformMixture,
)
from reckit.errors import RecError

OUT = Path(__file__).with_name("pair_golden.json")

MIX2 = UniformMixture((
    MixtureComponent(0.3, 0.1, 0.2),
    MixtureComponent(0.7, 0.5, 0.9),
))
# touching components, and a first component on the proposal's low end
MIX3 = UniformMixture((
    MixtureComponent(0.2, 0.0, 0.25),
    MixtureComponent(0.5, 0.25, 0.5),
    MixtureComponent(0.3, 0.75, 1.0),
))

PAIRS = [
    # gaussian / gaussian
    PairSpec(Gaussian(1.3247751431696517, 0.45291085160915195), Gaussian(0.0, 1.0)),
    PairSpec(Gaussian(-3.0, 0.9), Gaussian(0.0, 1.0)),
    PairSpec(Gaussian(0.7, 0.3), Gaussian(-1.2, 2.5)),
    PairSpec(Gaussian(0.3, 1.7), Gaussian(0.3, 1.7)),      # q == p
    PairSpec(Gaussian(1.0, 2.0), Gaussian(0.0, 1.0)),      # q.var > p.var
    PairSpec(Gaussian(1.0, 1.0), Gaussian(0.0, 1.0)),      # equal var, shifted
    PairSpec(Gaussian(-0.5, 2.0), Gaussian(0.25, 2.0)),    # equal var, other side
    # uniform / uniform
    PairSpec(Uniform(1.2, 0.5), Uniform(1.0, 2.0)),
    PairSpec(Uniform(1.0, 2.0), Uniform(1.0, 2.0)),        # q == p
    PairSpec(Uniform(0.0, 2.0), Uniform(-0.0, 2.0)),       # q == p, signed zero
    PairSpec(Uniform(0.25, 0.5), Uniform(0.5, 1.0)),       # q.low == p.low
    PairSpec(Uniform(0.875, 0.25), Uniform(0.5, 1.0)),     # q.high == p.high
    # mixture / uniform
    PairSpec(MIX2, Uniform(1.0, 2.0)),
    PairSpec(MIX2, Uniform(0.5, 1.0)),
    PairSpec(MIX3, Uniform(0.5, 1.0)),
    # uniform / gaussian (bound_M not pinned)
    PairSpec(Uniform(0.25, 1.5), Gaussian(0.0, 1.0)),
    PairSpec(Uniform(0.75, 0.5), Gaussian(0.2, 1.0)),
]


def _outcome(fn, *args) -> str:
    try:
        return float.hex(fn(*args))
    except RecError as exc:
        return type(exc).__name__


def _special_points(pair: PairSpec) -> list[float]:
    q, p = pair.target, pair.proposal
    pts = [*q.support(), *p.support()]
    if isinstance(q, UniformMixture):
        for c in q.components:
            pts += [c.low, c.high, 0.5 * (c.low + c.high)]
    for dist in (q, p):
        if isinstance(dist, Gaussian):
            pts += [dist.mean, dist.mean - 3.0 * dist.std, dist.mean + 3.0 * dist.std]
        elif isinstance(dist, Uniform):
            pts.append(dist.center)
    try:
        mode = pair.ratio_mode()
    except RecError:
        pass
    else:
        pts += [mode, math.nextafter(mode, -math.inf), math.nextafter(mode, math.inf)]
    return [x for x in pts if math.isfinite(x)]


def _record(pair: PairSpec, rng: random.Random, pin_bound: bool) -> dict:
    p = pair.proposal
    specials = sorted(set(_special_points(pair)))
    lo, hi = specials[0] - 1.0, specials[-1] + 1.0
    randoms = [rng.uniform(lo, hi) for _ in range(6)]
    points = sorted(set(specials + randoms))
    # endpoints for regions: +-inf, a thinned set of specials, the randoms
    ends = sorted(set([-math.inf, math.inf] + specials[::2] + randoms[:4]))
    regions = [
        (a, b)
        for i, a in enumerate(ends)
        for b in ends[i + 1:]
        if p.cdf(b) - p.cdf(a) > 0.0
    ]
    out = {
        "pair": pair.to_dict(),
        "ratio_mode": _outcome(pair.ratio_mode),
        "analytic_kl": _outcome(pair.analytic_kl),
        "analytic_dinf": _outcome(pair.analytic_dinf),
        "log_ratio": [
            [float.hex(x), _outcome(pair.log_ratio, x)]
            for x in points + [lo - 1e3, hi + 1e3, -math.inf, math.inf, math.nan]
        ],
        "bound_M": [],
    }
    if pin_bound:
        out["bound_M"] = [
            [float.hex(a), float.hex(b), _outcome(pair.bound_M, a, b)]
            for a, b in regions
        ]
    return out


def main() -> int:
    rng = random.Random(20260817)
    records = [
        _record(pair, rng, not (isinstance(pair.target, Uniform)
                                and isinstance(pair.proposal, Gaussian)))
        for pair in PAIRS
    ]
    lines = ",\n".join(json.dumps(r) for r in records)
    OUT.write_text('{"pairs": [\n' + lines + "\n]}\n")
    n_bounds = sum(len(r["bound_M"]) for r in records)
    n_points = sum(len(r["log_ratio"]) for r in records)
    print(f"wrote {OUT}: {len(records)} pairs, {n_bounds} regions, {n_points} points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
