"""The codec path loads neither numpy nor the experiment harness.

``import reckit`` and the CLI's ``isokl``, ``encode`` and ``decode``
commands run on the standard library alone. numpy serves only the
harness's statistics: ``reckit.bench`` imports it where the k-NN
estimator, the bias grid's fresh samples, shrinkage verification and the
row summaries compute, so its pair builders, configs and CSV writing
load none. Each check runs in a fresh interpreter, since the test
process itself has numpy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import reckit
from reckit.bench import knn_kl_estimate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

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


def run_fresh(script, *args, cwd):
    """The last stdout line of ``script`` run in a fresh interpreter, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_codec_path_loads_no_numpy(tmp_path):
    model = tmp_path / "blocks.json"
    model.write_text(json.dumps(BLOCK_MODEL))
    result = run_fresh(_SCRIPT, model, cwd=tmp_path)
    assert result["codes"] == [0] * 7
    assert result["missing"] == []
    assert result["loaded"] == []


PUBLIC_NAMES = {
    "AbsoluteContinuityError", "BitReader", "BitWriter", "BlockCodecConfig",
    "BudgetExhaustedError", "CODERS", "Code", "DegenerateRegionError",
    "DepthExceededError", "Distribution1D", "DomainError", "Gaussian",
    "InfeasibleParameterError", "InvalidCodeError", "IsoKLGaussianBlock",
    "MODE_BLOCK", "MODE_EXACT", "MalformedMessageError", "MessageFrame",
    "MixtureComponent", "PairSpec", "PartitionKind", "RecError", "TrialStats",
    "UnboundedRatioError", "Uniform", "UniformMixture", "Variant", "decode",
    "decode_block_vector", "derive_seed", "distribution_from_dict", "encode_astar",
    "encode_block_vector", "encode_dad", "encode_mrc", "gaussian_from_kl_dinf",
    "gaussian_from_mean_kl", "lambert_w0", "load_block_model", "read_message",
    "uniform_from_mean_kl", "write_message",
}


def test_public_names_are_pinned():
    # one decoder, dict-based model loading: no per-coder decoders, no JSON wrappers
    assert len(reckit.__all__) == len(PUBLIC_NAMES) == 43
    assert set(reckit.__all__) == PUBLIC_NAMES


def test_import_loads_no_json(tmp_path):
    # only the CLI reads model and config files
    script = 'import sys, reckit\nprint("true" if "json" in sys.modules else "false")'
    assert run_fresh(script, cwd=tmp_path) is False


SAMPLES_P = [0.1, 0.7, -0.4, 1.9, 0.25, -1.3, 0.9, 0.05]
SAMPLES_Q = [0.3, -0.2, 1.1, 0.6, -0.9, 2.2]

_HARNESS_SCRIPT = """\
import json, sys
from reckit.bench import ExperimentConfig, knn_kl_estimate, mixture_pair, rows_to_csv

mixture_pair(8, 1.0)
with open(sys.argv[1]) as fh:
    ExperimentConfig.from_dict(json.load(fh))
rows_to_csv([])
before = "numpy" in sys.modules
estimate = knn_kl_estimate(json.loads(sys.argv[2]), json.loads(sys.argv[3]))
print(json.dumps({"before": before, "after": "numpy" in sys.modules, "estimate": estimate}))
"""


def test_harness_loads_numpy_only_for_statistics(tmp_path):
    result = run_fresh(_HARNESS_SCRIPT, ROOT / "configs" / "runtime_grid.json",
                       json.dumps(SAMPLES_P), json.dumps(SAMPLES_Q), cwd=tmp_path)
    assert result["before"] is False
    assert result["after"] is True
    assert result["estimate"] == knn_kl_estimate(SAMPLES_P, SAMPLES_Q)
