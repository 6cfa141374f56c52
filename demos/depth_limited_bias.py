"""Bias decay of the depth-limited coders as the budget grows.

Both budgeted coders are biased when the bit budget sits at the KL
floor and converge to the target as slack is added. The table shows
the k-NN KL estimate between coded batches and fresh target samples at
budget = ceil(KL/ln2) + t, together with the work each coder did: the
importance selector always burns 2^budget draws, the budgeted dyadic
search stops after a handful of steps.

Run:  python3 demos/depth_limited_bias.py        (about a minute)
"""

import math

from reckit.bench import ExperimentConfig, run_bias_grid, summarize_rows

KL, DINF = 1.45, 2.0

config = ExperimentConfig(
    algorithms=("dad", "mrc"),
    trials=20,
    seed=20260817,
    gaussian_cells=((KL, DINF),),
    extra_bits=(0, 1, 2, 3, 4),
    batch=100,
)
rows = run_bias_grid(config)
base = math.ceil(KL / math.log(2))
print(f"gaussian cell: KL = {KL} nats ({KL / math.log(2):.2f} bits), dinf = {DINF}")
print(f"base budget ceil(KL/ln2) = {base} bits, 20 trials x 100 samples per cell")
print()
print(f"{'coder':>5} {'t':>2} {'budget':>6} {'bias (nats)':>12} {'se':>6} {'steps':>8}")
for entry in summarize_rows(rows):
    t = entry["t_extra_bits"]
    print(
        f"{entry['algorithm']:>5} {t:>2} {base + t:>6} "
        f"{entry['bias_mean']:>+12.3f} {entry['bias_se']:>6.3f} {entry['steps_mean']:>8.1f}"
    )
print()
print("both coders land within noise of each other at every budget, but the")
print("dyadic search pays a constant handful of steps against mrc's 2^budget.")
