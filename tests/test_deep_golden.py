"""Deep decodes pinned bit for bit.

``tests/data/deep_golden.json`` holds, for about 2000 (proposal, kind,
seed, heap index, depth) codes over depths 1 to ``tree.MAX_DEPTH``, the
``float.hex`` of the sample ``tree.locate`` decodes (``coders.decode_pfr``
for a chain code) or the error class of a refused code, empty partition
slots included. It was written by ``tests/data/write_deep_golden.py``,
whose proposals and outcome this test replays.
"""

import importlib.util
import json
from collections import defaultdict
from pathlib import Path

import pytest

from reckit.tree import MAX_DEPTH, PartitionKind

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("write_deep_golden", DATA / "write_deep_golden.py")
writer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(writer)

CODES = json.loads((DATA / "deep_golden.json").read_text())["codes"]
GROUPS = defaultdict(list)
for _row in CODES:
    GROUPS[f"{_row[0]}-{_row[1]}"].append(_row)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_locate_matches_deep_golden(group):
    for name, kind, seed, index, depth, want in GROUPS[group]:
        assert writer.outcome(name, PartitionKind(kind), seed, index, depth) == want, (
            seed, index, depth)


def test_deep_golden_covers_every_depth_kind_and_refusal():
    assert [row[:5] for row in CODES] == [
        [name, kind.value, seed, index, depth] for name, kind, seed, index, depth in writer.codes()
    ]
    assert {row[0] for row in CODES} == set(writer.PROPOSALS)
    assert {row[1] for row in CODES} == {kind.value for kind in PartitionKind}
    assert {row[4] for row in CODES} == set(range(1, MAX_DEPTH + 1))
    assert any(row[3] == 0 for row in CODES)  # the extra root
    # empty slots, both where a dyadic decode reads its region off the
    # index (depth <= 54) and where it still walks
    refused = [row for row in CODES if row[1] == "dyadic" and row[5] == "InvalidCodeError"]
    assert any(row[4] <= 54 for row in refused) and any(row[4] > 54 for row in refused)
    assert any(row[1] == "sample_split" and row[5] == "InvalidCodeError" for row in CODES)
