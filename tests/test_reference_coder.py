"""Every coder against ``reference_coder``, plain loops that draw every
Gumbel at expansion, key every draw in full and keep no memo: AS*, AD*,
DAD*, PFR and MRC must give the reference's code, sample, steps and
lower bound bit for bit, or refuse with the same error class. One pair
object serves each source, so the dyadic searches also run on warm
memos. The search golden's rows and the MRC golden's encodes, recorded
from ``reckit.coders``, are replayed through the reference too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_coder
from reckit.bench import mixture_pair
from reckit.coders import CODERS, Variant, encode_astar, encode_dad, encode_mrc
from reckit.distributions import Gaussian, PairSpec, Uniform
from reckit.errors import RecError
from reckit.tree import PartitionKind
from test_mrc_golden import GROUPS as MRC_GROUPS, writer as mrc_writer
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
# PFR runs where the runtime grid runs it: its arrivals grow like e^D-infinity
PFR_SOURCES = [name for name, pair in SOURCES.items()
               if pair.analytic_dinf() <= CODERS[Variant.PFR].max_dinf]
CODERS_OF_A_TREE = ("as", "ad", 3, 6)  # AS*, AD*, or DAD* at that budget
REFUSALS = (RecError, reference_coder.DepthExceededError, reference_coder.BudgetExhaustedError)
SEEDS = 1000  # hypothesis examples, each of which runs every coder


def coded(pair, coder, seed):
    """(payload, sample, steps, lower bound) of ``coder``: "as", "ad", "pfr",
    a DAD* budget or ("mrc", bits)."""
    try:
        if coder in ("as", "ad", "pfr"):
            kind = {"as": PartitionKind.SAMPLE_SPLIT, "ad": PartitionKind.DYADIC,
                    "pfr": PartitionKind.GLOBAL_BOUND}[coder]
            code, x, stats = encode_astar(pair, kind, seed, MAX_STEPS)
        elif isinstance(coder, tuple):
            code, x, stats = encode_mrc(pair, seed, coder[1], MAX_STEPS)
        else:
            code, x, stats = encode_dad(pair, seed, coder, MAX_STEPS)
    except RecError as exc:
        return type(exc).__name__
    return code.payload, x.hex(), stats.steps, stats.lower_bound.hex()


def referenced(pair, coder, seed):
    try:
        if coder == "pfr":
            index, x, steps, lb = reference_coder.pfr(pair, seed, MAX_STEPS)
        elif isinstance(coder, tuple):
            index, x, steps, lb = reference_coder.mrc(pair, seed, coder[1], MAX_STEPS)
        else:
            budget = None if coder in ("as", "ad") else coder
            index, x, steps, lb = reference_coder.encode(pair, seed, coder != "as", budget,
                                                         MAX_STEPS)
    except REFUSALS as exc:
        return type(exc).__name__
    return index, x.hex(), steps, lb.hex()


@settings(max_examples=SEEDS, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1))
def test_the_searches_match_the_reference(seed):
    """Each seed runs every coder on one source the seed picks: AS*, AD*,
    DAD* at budgets 3 and 6 and MRC at 1 to 6 bits, and PFR on a source
    where the runtime grid runs it."""
    pair = list(SOURCES.values())[seed % len(SOURCES)]
    runs = [(pair, coder) for coder in CODERS_OF_A_TREE]
    runs += [(SOURCES[PFR_SOURCES[seed % len(PFR_SOURCES)]], "pfr"), (pair, ("mrc", 1 + seed % 6))]
    for pair, coder in runs:
        assert coded(pair, coder, seed) == referenced(pair, coder, seed), (coder, seed)


def golden_rows(name):
    """(coder, seed, outcome) of the search golden's rows of pair ``name``,
    each outcome as ``referenced`` returns it."""
    for group, rows in SEARCHES.items():
        source, coder = group.split()
        if source != name:
            continue
        coder = coder if coder in ("as", "ad", "pfr") else int(coder[3:])
        for seed, row in enumerate(rows):
            yield coder, seed, row[0] if isinstance(row[0], str) else (
                row[0], row[2], row[3], row[5])


@pytest.mark.parametrize("name", list(writer.PAIRS))
def test_the_reference_replays_the_search_golden(name):
    """Every AS*, AD*, DAD* and PFR row, refusals included: the tail pairs
    reach the depth cap and saturated quantiles."""
    pair, replayed = writer.PAIRS[name], 0
    for coder, seed, want in golden_rows(name):
        assert referenced(pair, coder, seed) == want, (name, coder, seed)
        replayed += 1
    # as, ad and dad at budgets 3 to 8, and pfr where the runtime grid runs it
    assert replayed == len(writer.coders_for(pair)) * GOLDEN["seeds"]


@pytest.mark.parametrize("name", sorted(MRC_GROUPS))
def test_the_reference_replays_the_mrc_golden(name):
    """Every MRC encode of the golden: its payload, sample and lower bound."""
    pair = mrc_writer.PAIRS[name]
    for _, bits, seed, payload, x, lb, _ in MRC_GROUPS[name]:
        index, got_x, steps, got_lb = reference_coder.mrc(pair, seed, bits)
        assert (index, got_x.hex(), steps, got_lb.hex()) == (payload, x, 1 << bits, lb), (
            name, bits, seed)
