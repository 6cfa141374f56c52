"""PairSpec values pinned bit for bit.

``tests/data/pair_golden.json`` holds the ``float.hex`` (or the error
class) of ``log_ratio``, ``bound_M``, ``ratio_mode``, ``analytic_kl`` and
``analytic_dinf`` for Gaussian/Gaussian, Uniform/Uniform and
mixture/Uniform pairs over regions with positive proposal mass, plus every
method but ``bound_M`` for uniform targets under a Gaussian proposal. It
was written by ``tests/data/write_pair_golden.py``.
"""

import json
from pathlib import Path

import pytest

from reckit.distributions import PairSpec
from reckit.errors import RecError

GOLDEN = json.loads((Path(__file__).parent / "data" / "pair_golden.json").read_text())
RECORDS = GOLDEN["pairs"]


def _outcome(fn, *args) -> str:
    try:
        return float.hex(fn(*args))
    except RecError as exc:
        return type(exc).__name__


def _id(record) -> str:
    pair = record["pair"]
    return f"{pair['target']['family']}/{pair['proposal']['family']}"


@pytest.mark.parametrize("record", RECORDS, ids=[_id(r) for r in RECORDS])
def test_pair_values_match_golden(record):
    pair = PairSpec.from_dict(record["pair"])
    assert _outcome(pair.ratio_mode) == record["ratio_mode"]
    assert _outcome(pair.analytic_kl) == record["analytic_kl"]
    assert _outcome(pair.analytic_dinf) == record["analytic_dinf"]
    for x, want in record["log_ratio"]:
        assert _outcome(pair.log_ratio, float.fromhex(x)) == want, x
    for low, high, want in record["bound_M"]:
        assert _outcome(pair.bound_M, float.fromhex(low), float.fromhex(high)) == want, (
            low, high)


def test_golden_covers_every_pinned_family_pair():
    families = {_id(r) for r in RECORDS if r["bound_M"]}
    assert families == {
        "gaussian/gaussian", "uniform/uniform", "uniform_mixture/uniform",
    }
    assert sum(len(r["bound_M"]) for r in RECORDS) >= 300
