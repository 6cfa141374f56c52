"""The split-tree searches against ``reference_coder``, a plain loop that
draws every Gumbel at expansion and keeps no memo: AS*, AD* and DAD* must
give the reference's heap index, sample, steps and lower bound bit for
bit, or refuse with the same error class. One pair object serves each
source, so the dyadic searches also run on warm memos. The search
golden's split-tree rows, recorded from ``reckit.coders``, are replayed
through the reference too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_coder
from reckit.bench import mixture_pair
from reckit.coders import encode_astar, encode_dad
from reckit.distributions import Gaussian, PairSpec, Uniform
from reckit.errors import RecError
from reckit.tree import PartitionKind
from test_search_golden import GOLDEN, SEARCHES, writer

STD = Gaussian(0.0, 1.0)
MAX_STEPS = 20_000
SOURCES = {
    "gauss0.8": PairSpec(Gaussian(0.8, 0.3), STD),
    "tail+3": PairSpec(Gaussian(3.0, 0.9), STD),
    "tail-3": PairSpec(Gaussian(-3.0, 0.9), STD),
    "uniform0.5": PairSpec(Uniform(0.5, 0.2), STD),
    "mixture8": mixture_pair(8, 1.0),
}
CODERS = ("as", "ad", 3, 6)  # AS*, AD*, or DAD* at that budget
REFUSALS = (RecError, reference_coder.DepthExceededError, reference_coder.BudgetExhaustedError)


def coded(pair, coder, seed):
    try:
        if coder in ("as", "ad"):
            kind = PartitionKind.DYADIC if coder == "ad" else PartitionKind.SAMPLE_SPLIT
            code, x, stats = encode_astar(pair, kind, seed, MAX_STEPS)
        else:
            code, x, stats = encode_dad(pair, seed, coder, MAX_STEPS)
    except RecError as exc:
        return type(exc).__name__
    return code.payload, x.hex(), stats.steps, stats.lower_bound.hex()


def referenced(pair, coder, seed):
    budget = None if coder in ("as", "ad") else coder
    try:
        index, x, steps, lb = reference_coder.encode(pair, seed, coder != "as", budget, MAX_STEPS)
    except REFUSALS as exc:
        return type(exc).__name__
    return index, x.hex(), steps, lb.hex()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1))
def test_the_searches_match_the_reference(seed):
    for name, pair in SOURCES.items():
        for coder in CODERS:
            assert coded(pair, coder, seed) == referenced(pair, coder, seed), (name, coder, seed)


def golden_rows(name):
    """(coder, seed, outcome) of the search golden's split-tree rows of
    pair ``name``, each outcome as ``referenced`` returns it."""
    for group, rows in SEARCHES.items():
        source, coder = group.split()
        if source != name or coder == "pfr":
            continue
        coder = coder if coder in ("as", "ad") else int(coder[3:])
        for seed, row in enumerate(rows):
            yield coder, seed, row[0] if isinstance(row[0], str) else (
                row[0], row[2], row[3], row[5])


@pytest.mark.parametrize("name", list(writer.PAIRS))
def test_the_reference_replays_the_search_golden(name):
    """Every AS*, AD* and DAD* row, refusals included: the tail pairs reach
    the depth cap and saturated quantiles."""
    pair, replayed = writer.PAIRS[name], 0
    for coder, seed, want in golden_rows(name):
        assert referenced(pair, coder, seed) == want, (name, coder, seed)
        replayed += 1
    assert replayed == 8 * GOLDEN["seeds"]  # as, ad and dad at budgets 3 to 8
