"""The codec path loads neither numpy nor the experiment harness.

``import reckit`` and the CLI's ``isokl``, ``encode`` and ``decode``
commands run on the standard library alone; only ``reckit.bench`` (the
``bench-*`` and ``verify`` commands) needs numpy. Each check runs in a
fresh interpreter, since the test process itself has numpy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

BLOCK_MODEL = {
    "coordinates": [
        {"block_id": "a", "prior_mean": 0.0, "prior_std": 1.0, "target_mean": 0.4},
        {"block_id": "b", "prior_mean": 1.0, "prior_std": 2.0, "target_mean": 1.5},
        {"block_id": "a", "prior_mean": 0.5, "prior_std": 1.0, "target_mean": 0.2},
    ],
    "block_kappa": {"a": 0.9, "b": 1.4},
}

_SCRIPT = """\
import json, sys
import reckit, reckit.cli
from reckit.cli import main

block_model = sys.argv[1]
codes = [main(["isokl", "--kl", "1.0", "--dinf", "2.0", "--out", "pair.json"])]
for flags in (["--exact", "ad"], ["--limited", "dad", "--budget", "6"]):
    codes.append(main(["encode", "--model", "pair.json", "--seed", "7", "--count", "3",
                       "--out", "msg.bin"] + flags))
    codes.append(main(["decode", "--model", "pair.json", "--seed", "7",
                       "--in", "msg.bin", "--samples", "dec.txt"]))
codes.append(main(["encode", "--block-model", block_model, "--seed", "3",
                   "--out", "blk.bin"]))
codes.append(main(["decode", "--block-model", block_model, "--seed", "3",
                   "--in", "blk.bin", "--samples", "blk.txt"]))
missing = [n for n in reckit.__all__ if not hasattr(reckit, n)]
print(json.dumps({"codes": codes, "missing": missing,
                  "loaded": [m for m in ("numpy", "reckit.bench") if m in sys.modules]}))
"""


def test_codec_path_loads_no_numpy(tmp_path):
    model = tmp_path / "blocks.json"
    model.write_text(json.dumps(BLOCK_MODEL))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(model)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * 7
    assert result["missing"] == []
    assert result["loaded"] == []
