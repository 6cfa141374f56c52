"""Tour of one encode/decode cycle for every coder in the toolkit.

A sender and a receiver share a seed and a proposal distribution. The
sender also knows a target distribution; it races correlated candidates
drawn from the proposal and transmits only the identity of the winner.
The receiver replays the shared randomness to regenerate the winning
sample, which is distributed (exactly or approximately, depending on
the coder) according to the target.

Run:  python3 demos/gumbel_race_tour.py
"""

import math

from reckit.bitstream import MODE_BLOCK, MODE_EXACT, BitReader, MessageFrame, read_message, write_message
from reckit.coders import Variant, decode, encode
from reckit.distributions import Gaussian, PairSpec
from reckit.isokl import gaussian_from_kl_dinf

SEED = 20260817

# A target one nat from the proposal, with density ratio capped at e^2.
mean, variance = gaussian_from_kl_dinf(kl=1.0, dinf=2.0)
pair = PairSpec(Gaussian(mean, variance), Gaussian(0.0, 1.0))
print(f"target  N({mean:.4f}, {variance:.4f})   proposal N(0, 1)")
print(f"KL = {pair.analytic_kl():.3f} nats, sup log ratio = {pair.analytic_dinf():.3f} nats")
print()

print("exact coders (the regenerated sample follows the target exactly)")
for label, variant in [
    ("sample-split search", Variant.AS_STAR),
    ("dyadic search      ", Variant.AD_STAR),
    ("global-bound race  ", Variant.PFR),
]:
    code, x, st = encode(pair, variant, SEED)
    mode = MODE_EXACT
    data = write_message(MessageFrame(mode, code.variant, (code,))).getvalue()
    x_back = decode(pair.proposal, read_message(BitReader(data)).codes[0], SEED)
    assert x_back == x
    print(
        f"  {label} -> payload {code.payload:>3} "
        f"({st.payload_bits + st.overhead_bits:>2} bits on the wire, "
        f"{st.steps:>3} steps), sample {x:+.4f}, decode matches: {x_back == x}"
    )
print()

print("depth-limited coders (budget fixed up front, bias decays with slack)")
budget = math.ceil(pair.analytic_kl() / math.log(2)) + 2
for label, variant in [
    ("budgeted dyadic   ", Variant.DAD_STAR),
    ("importance select ", Variant.MRC),
]:
    code, x, st = encode(pair, variant, SEED, budget)
    data = write_message(MessageFrame(MODE_BLOCK, code.variant, (code,), budget)).getvalue()
    x_back = decode(pair.proposal, read_message(BitReader(data)).codes[0], SEED)
    assert x_back == x
    print(
        f"  {label} -> codeword {code.payload:>3} in {budget} bits "
        f"({st.steps:>3} steps), sample {x:+.4f}, decode matches: {x_back == x}"
    )
print()

print("the receiver never saw the target: decoding used only the proposal,")
print("the shared seed, and the transmitted bits.")
