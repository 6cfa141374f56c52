"""Coded messages and decoded samples pinned bit for bit.

``tests/data/golden_corpus.json`` holds, for every coder over Gaussian,
uniform, uniform/Gaussian, mixture and upper-tail Gaussian pairs and for
``encode_block_vector``, the message hex, the ``float.hex`` of each
decoded sample, and the steps and depth of each encode at 20 seeds. It
was written by ``tests/data/write_golden_corpus.py``, whose coding
routine this test replays.

A symbol refused in the corpus may code later (the tail pair is a known
refusal, ROADMAP item 1); it must then round-trip. A symbol that coded
must code to the same message, sample, steps and depth.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from reckit.coders import Variant

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("write_golden_corpus",
                                               DATA / "write_golden_corpus.py")
writer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(writer)

GOLDEN = json.loads((DATA / "golden_corpus.json").read_text())
GROUPS = GOLDEN["groups"]


@pytest.mark.parametrize("group", GROUPS, ids=[f"{g['pair']}-{g['coder']}" for g in GROUPS])
def test_coder_outputs_match_corpus(group):
    pair = writer.PAIRS[group["pair"]]
    variant = Variant(group["coder"])
    for case in group["cases"]:
        want = {k: v for k, v in case.items() if k != "seed"}
        got = writer.code_symbol(pair, variant, case["seed"])
        if "error" in want and "error" not in got:
            continue  # a refusal may become a round-tripped code
        assert got == want, case["seed"]


def test_block_vector_matches_corpus():
    for case in GOLDEN["block_vector"]:
        want = {k: v for k, v in case.items() if k != "seed"}
        assert writer.code_block_vector(case["seed"]) == want, case["seed"]


def test_corpus_covers_every_coder_and_pair_family():
    assert [(g["pair"], g["coder"]) for g in GROUPS] == [
        (name, v.value) for name, v in writer.cases()
    ]
    assert {g["coder"] for g in GROUPS} == {v.value for v in Variant}
    assert set(writer.PAIRS) == {g["pair"] for g in GROUPS}
    assert all(len(g["cases"]) == len(writer.SEEDS) >= 20 for g in GROUPS)
    assert any("error" in c for g in GROUPS for c in g["cases"])
