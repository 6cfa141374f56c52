"""Searches pinned bit for bit, and the work they do.

``tests/data/search_golden.json`` holds, for 100 seeds of each coder
(as, ad, pfr, dad at budgets 3 to 8) over the six pairs of
``test_lazy_draws``, the encode's payload, width, ``float.hex`` sample,
steps, returned depth and ``float.hex`` lower bound, or its error class,
and the calls it made to ``tree.trunc_gumbel``, the proposal's
``inv_cdf`` and ``cdf``, ``PairSpec.bound_M`` and ``coders.expand``. It
was written by ``tests/data/write_search_golden.py``, whose pairs and
outcome this test replays. Unlike ``test_lazy_draws``, whose eager
reference shares ``expand`` and ``realize`` with the search, nothing
here is computed by the code under test.
"""

import importlib.util
import json
from pathlib import Path

import pytest
from test_lazy_draws import PAIRS as LAZY_PAIRS

from reckit.coders import Code

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("write_search_golden",
                                               DATA / "write_search_golden.py")
writer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(writer)

GOLDEN = json.loads((DATA / "search_golden.json").read_text())
SEARCHES = GOLDEN["searches"]


@pytest.mark.parametrize("group", list(SEARCHES))
def test_search_matches_golden(group):
    name, coder = group.split()
    for seed, want in enumerate(SEARCHES[group]):
        assert writer.outcome(name, coder, seed) == want, (group, seed)


def test_search_golden_covers_every_coder_pair_and_refusal():
    assert GOLDEN["seeds"] == writer.SEEDS
    assert list(SEARCHES) == [f"{name} {coder}" for name, coder in writer.groups()]
    assert all(len(rows) == writer.SEEDS for rows in SEARCHES.values())
    assert {name: pair.to_dict() for name, pair in writer.PAIRS.items()} == {
        name: pair.to_dict() for name, pair in LAZY_PAIRS.items()}
    assert {group.split()[1] for group in SEARCHES} == set(writer.CODER_NAMES)
    errors = {row[0] for rows in SEARCHES.values() for row in rows if isinstance(row[0], str)}
    assert {"DepthExceededError", "DomainError"} <= errors  # the tail pair's refusals
    # each stored width is the one a code rebuilt from its payload (and a
    # dad code's budget) derives
    for group, rows in SEARCHES.items():
        coder = group.split()[1]
        budget = int(coder[3:]) if coder.startswith("dad") else None
        for row in rows:
            if not isinstance(row[0], str):
                code = Code(writer.CODER_NAMES[coder], row[0], budget=budget)
                assert code.depth_or_budget == row[1], (group, row)
