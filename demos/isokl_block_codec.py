"""Coding a vector of Gaussians with one tied budget per block.

The trick that makes fixed budgets affordable: calibrate every
coordinate in a block to the SAME KL from its prior (the variance is
derived from the mean shift and kappa via Lambert W, never stored),
then transmit one budget header for the whole block instead of a
per-coordinate depth header. The wire cost collapses from
gamma(depth) extra bits per coordinate to a few header bits per block.

Run:  python3 demos/isokl_block_codec.py
"""

import math
import random

from reckit.bitstream import MODE_EXACT, MessageFrame, write_message
from reckit.coders import Variant, encode
from reckit.isokl import BlockCodecConfig, IsoKLGaussianBlock, decode_block_vector, encode_block_vector
from reckit.randomness import derive_seed

SEED = 20260817
rng = random.Random(7)

blocks = []
for kappa, size in [(0.7, 24), (1.3, 16), (2.0, 10)]:
    prior_means = [rng.uniform(-1.0, 1.0) for _ in range(size)]
    prior_stds = [math.exp(rng.uniform(-0.4, 0.4)) for _ in range(size)]
    # keep each mean shift inside its feasible radius prior_std * sqrt(2 kappa)
    shifts = [s * math.sqrt(2.0 * kappa) * math.tanh(rng.gauss(0.0, 1.0)) * 0.95
              for s in prior_stds]
    blocks.append(
        IsoKLGaussianBlock(
            tuple(prior_means),
            tuple(prior_stds),
            tuple(m + d for m, d in zip(prior_means, shifts)),
            kappa,
        )
    )

codec = BlockCodecConfig(extra_bits=2)
n = sum(len(b) for b in blocks)
message = encode_block_vector(blocks, codec, SEED)
samples = decode_block_vector(blocks, codec, message, SEED)
print(f"{n} coordinates in {len(blocks)} blocks -> {len(message)} bytes on the wire")
for block in blocks:
    print(f"  block kappa={block.kappa}: {len(block)} coords, tied budget {codec.budget(block.kappa)} bits")
print(f"decoded {len(samples)} samples; first three: "
      + ", ".join(f"{x:+.3f}" for x in samples[:3]))
print()

# Same coordinates through exact per-symbol framing, for the overhead bill.
exact_bits = 0
exact_index_bits = 0
index = 0
for block in blocks:
    codes = []
    for i in range(len(block)):
        code, _, _ = encode(block.pair(i), Variant.AD_STAR, derive_seed(SEED, index))
        codes.append(code)
        exact_index_bits += code.depth_or_budget - 1
        index += 1
    exact_bits += write_message(MessageFrame(MODE_EXACT, Variant.AD_STAR, tuple(codes))).bit_length

tied_payload = sum(len(b) * codec.budget(b.kappa) for b in blocks)
# byte padding at the end of the message is billed to the headers
tied_header = len(message) * 8 - tied_payload
exact_header = exact_bits - exact_index_bits
print(f"{'':>20}  {'total':>6} {'codewords':>9} {'headers':>8} {'header bits/coord':>18}")
print(f"{'tied-budget framing':>20}: {len(message) * 8:>6} {tied_payload:>9} "
      f"{tied_header:>8} {tied_header / n:>18.2f}")
print(f"{'exact framing':>20}: {exact_bits:>6} {exact_index_bits:>9} "
      f"{exact_header:>8} {exact_header / n:>18.2f}")
print()
print("headers amortize once per block instead of once per coordinate. the")
print("flat codewords spend more than the average exact depth at small kappa;")
print("the trade pays off as kappa grows or when decode cost must be fixed.")
