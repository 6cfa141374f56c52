"""A dyadic decode read off the heap index equals the decode walk.

``tree.locate`` reads a dyadic node's region straight from its heap
index down to depth ``tree.EXACT_DYADIC_DEPTH``. The reference below is
the walk it replaces, written out with per-key draws: d - 1 median cuts
from the root, each refusing a step into an empty partition slot, then
the node's sample. Both the sample and the refusal must be identical.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from reckit.distributions import (
    Gaussian,
    MixtureComponent,
    Uniform,
    UniformMixture,
    sample_restricted_u,
)
from reckit.errors import InvalidCodeError, RecError
from reckit.randomness import DrawSlot, StreamKey, keyed_uniform
from reckit.tree import EXACT_DYADIC_DEPTH, PartitionKind, locate

PROPOSALS = (
    Gaussian(0.0, 1.0),
    Gaussian(-1.2, 2.5),
    Uniform(1.0, 2.0),
    UniformMixture((MixtureComponent(0.3, 0.1, 0.2), MixtureComponent(0.7, 0.5, 0.9))),
)
NARROW = Gaussian(0.7, 1e-6)  # deep cuts round onto a region's end


def reference_walk(proposal, seed, index):
    """The dyadic decode walk: halve the node's CDF span at each digit of
    the index after its leading 1 (0 = left, 1 = right), cutting at the
    proposal quantile of the midpoint."""
    low, high, ulow, uhigh = -math.inf, math.inf, 0.0, 1.0
    for bit in bin(index)[3:]:
        ucut = 0.5 * (ulow + uhigh)
        cut = proposal.inv_cdf(ucut)
        if bit == "0":
            high, uhigh = cut, ucut
        else:
            low, ulow = cut, ucut
        if not low < high:
            raise InvalidCodeError(f"heap index {index} leads into an empty partition slot")
    u = keyed_uniform(StreamKey(seed, index, int(DrawSlot.SAMPLE), 0))
    return sample_restricted_u(proposal, ulow, uhigh, u)


def outcome(fn, *args):
    try:
        return float.hex(fn(*args))
    except RecError as exc:
        return type(exc).__name__


def _both(proposal, seed, index):
    return (outcome(reference_walk, proposal, seed, index),
            outcome(locate, proposal, PartitionKind.DYADIC, seed, index))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(proposal=st.sampled_from(PROPOSALS + (NARROW,)), seed=st.integers(-(2**70), 2**70),
       depth=st.integers(2, EXACT_DYADIC_DEPTH), path=st.integers(0, 2**53 - 1))
def test_closed_form_matches_the_walk(proposal, seed, depth, path):
    index = (1 << (depth - 1)) | (path & ((1 << (depth - 1)) - 1))
    want, got = _both(proposal, seed, index)
    assert got == want


def test_closed_form_refuses_the_walks_empty_slots():
    """The narrow proposal empties slots well inside the closed form's
    depths: every code the walk refuses is refused, and no other."""
    rng = random.Random(5)
    refused = 0
    for _ in range(3000):
        depth = rng.randint(30, EXACT_DYADIC_DEPTH)
        index = rng.randrange(1 << (depth - 1), 1 << depth)
        want, got = _both(NARROW, rng.randrange(2**64), index)
        assert got == want, (index, depth)
        refused += want == "InvalidCodeError"
    assert refused >= 100
