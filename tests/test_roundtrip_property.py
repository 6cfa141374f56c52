"""Round trips of random feasible pairs through every coder and the wire.

Each example solves a Gaussian pair to a requested (KL, D-infinity)
under N(0, 1), mirrors it at random and moves both distributions by one
random affine map (which keeps both divergences), then encodes a few
symbols with every coder in ``CODERS``, writes the frame, reads it back
and decodes it. The decoded samples must equal the encoded ones bit for
bit. PFR runs only up to its ``max_dinf``.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reckit.bitstream import (
    MODE_BLOCK,
    MODE_EXACT,
    BitReader,
    MessageFrame,
    read_message,
    write_message,
)
from reckit.coders import CODERS, MAX_STEPS, decode
from reckit.distributions import Gaussian, PairSpec
from reckit.errors import InfeasibleParameterError
from reckit.isokl import gaussian_from_kl_dinf
from reckit.randomness import derive_seed


@st.composite
def pairs(draw):
    kl = draw(st.floats(0.05, 3.0))
    dinf = draw(st.floats(kl + 0.3, 5.0))
    try:
        mean, variance = gaussian_from_kl_dinf(kl, dinf)
    except InfeasibleParameterError:
        assume(False)
    sign = draw(st.sampled_from([1.0, -1.0]))
    scale = draw(st.floats(0.01, 100.0))
    shift = draw(st.floats(-1000.0, 1000.0))
    pair = PairSpec(
        Gaussian(shift + scale * sign * mean, scale * scale * variance),
        Gaussian(shift, scale * scale),
    )
    return pair, dinf


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    case=pairs(),
    seed=st.integers(-(2**69), 2**69),
    count=st.integers(1, 3),
    budget=st.integers(1, 8),
)
def test_every_coder_round_trips_through_the_wire(case, seed, count, budget):
    pair, dinf = case
    for variant, spec in CODERS.items():
        if dinf > spec.max_dinf:
            continue
        seeds = [derive_seed(seed, i) for i in range(count)]
        codes, xs = [], []
        for s in seeds:
            code, x, _ = spec.encode(pair, s, budget if spec.fixed_width else None, MAX_STEPS)
            codes.append(code)
            xs.append(x)
        if spec.fixed_width:
            frame = MessageFrame(MODE_BLOCK, variant, tuple(codes), budget)
        else:
            frame = MessageFrame(MODE_EXACT, variant, tuple(codes))
        read = read_message(BitReader(write_message(frame).getvalue()))
        assert read == frame
        got = [decode(pair.proposal, code, s) for code, s in zip(read.codes, seeds)]
        assert [x.hex() for x in got] == [x.hex() for x in xs], variant
        assert all(math.isfinite(x) for x in xs)
