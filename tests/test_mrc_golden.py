"""MRC encodes pinned bit for bit.

``tests/data/mrc_golden.json`` holds 2400 ``encode_mrc`` calls (six
pairs, budgets 1 to 10 bits, 40 seeds each): the payload, the sample,
the stats' lower bound and the decoded sample. It was written by
``tests/data/write_mrc_golden.py``, whose pairs and outcome this test
replays.
"""

import importlib.util
import json
from collections import defaultdict
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("write_mrc_golden", DATA / "write_mrc_golden.py")
writer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(writer)

ROWS = json.loads((DATA / "mrc_golden.json").read_text())["encodes"]
GROUPS = defaultdict(list)
for _row in ROWS:
    GROUPS[_row[0]].append(_row)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_encode_mrc_matches_golden(name):
    for _, bits, seed, *want in GROUPS[name]:
        assert writer.outcome(name, bits, seed) == want, (bits, seed)


def test_mrc_golden_covers_every_pair_budget_and_the_fallback():
    assert [row[:3] for row in ROWS] == [list(e) for e in writer.encodes()]
    assert set(GROUPS) == set(writer.PAIRS)
    assert {row[1] for row in ROWS} == set(writer.BUDGETS)
    assert max(writer.BUDGETS) > 8  # more than 256 candidates
    assert any(row[5] == "-inf" for row in GROUPS["all-miss"])  # uniform fallback
    assert all(row[4] == row[6] for row in ROWS)  # decode regenerates the sample
