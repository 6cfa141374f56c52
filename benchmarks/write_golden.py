"""Write golden.json: the outputs of every workload's golden inputs.

    python3 benchmarks/write_golden.py

The golden inputs are each workload at its default seed and a small
scale. ``run.py`` re-codes them on every run and fails when a sample or
message moved, so rewrite this file only for a deliberate change of the
wire format or of the samples, and record that change in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import run

if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    import workloads

    golden = {
        name: run.golden_entry(
            workloads.build(name, workloads.DEFAULT_SEED, run.GOLDEN_SCALE).run_pass()
        )
        for name in workloads.NAMES
    }
    run.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"wrote {run.GOLDEN}")
