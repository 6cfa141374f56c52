"""reckit runs without numpy, and the codec path loads no harness.

``import reckit`` and the CLI's ``isokl``, ``encode`` and ``decode``
commands load neither numpy nor ``reckit.bench``, and nothing loads
``dataclasses`` or ``inspect``. numpy serves only the
harness's bias grid: ``reckit.bench`` imports it where the k-NN
estimator and the grid's fresh target samples compute, so its pair
builders, configs and CSV writing load none, and ``verify``,
``bench-runtime`` and ``bench-modes`` run where numpy is not installed.
Each check runs in a fresh interpreter, since the test process itself
has numpy loaded.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import reckit
from reckit.bench import knn_kl_estimate
from reckit.cli import main

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

# dataclasses and the inspect module it loads would be about half of a fresh import
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
                  "loaded": [m for m in ("numpy", "reckit.bench", "dataclasses", "inspect")
                             if m in sys.modules]}))
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
    "MixtureComponent", "PairSpec", "RecError", "TrialStats",
    "UnboundedRatioError", "Uniform", "UniformMixture", "Variant", "decode",
    "decode_block_vector", "derive_seed", "distribution_from_dict", "encode",
    "encode_block_vector", "gaussian_from_kl_dinf", "gaussian_from_mean_kl",
    "lambert_w0", "load_block_model", "read_message", "uniform_from_mean_kl",
    "write_message",
}


def test_public_names_are_pinned():
    # one encoder and one decoder, dict-based model loading: no per-coder
    # entry points, no partition kinds, no JSON wrappers
    assert len(reckit.__all__) == len(PUBLIC_NAMES) == 40
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
before = [m for m in ("numpy", "statistics", "dataclasses", "inspect") if m in sys.modules]
estimate = knn_kl_estimate(json.loads(sys.argv[2]), json.loads(sys.argv[3]))
print(json.dumps({"before": before, "after": "numpy" in sys.modules, "estimate": estimate}))
"""


def test_harness_loads_numpy_only_for_statistics(tmp_path):
    result = run_fresh(_HARNESS_SCRIPT, ROOT / "configs" / "runtime_grid.json",
                       json.dumps(SAMPLES_P), json.dumps(SAMPLES_Q), cwd=tmp_path)
    assert result["before"] == []
    assert result["after"] is True
    assert result["estimate"] == knn_kl_estimate(SAMPLES_P, SAMPLES_Q)


_NO_NUMPY_SCRIPT = """\
import contextlib, io, json, sys
sys.modules["numpy"] = None  # import numpy fails, as where it is not installed
import reckit.bench
from reckit.cli import main

results = {}
for name, argv in json.loads(sys.argv[1]).items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results[name] = [code, out.getvalue(), err.getvalue()]
print(json.dumps(results))
"""

HARNESS_CONFIGS = {
    "runtime.json": {"algorithms": ["as", "ad", "pfr"], "trials": 4, "seed": 3,
                     "gaussian_cells": [{"kl_nats": 0.9, "dinf_nats": 2.0}],
                     "uniform_cells": [{"kl_nats": 1.0}]},
    "modes.json": {"algorithms": ["as", "ad"], "trials": 4, "seed": 3,
                   "mixture_cells": [{"n_modes": 1, "dinf_nats": 1.0},
                                     {"n_modes": 4, "dinf_nats": 1.0}]},
    "bias.json": {"algorithms": ["dad"], "trials": 1, "seed": 3,
                  "batch": 20, "extra_bits": [2],
                  "gaussian_cells": [{"kl_nats": 0.9, "dinf_nats": 2.0}]},
}
HARNESS_COMMANDS = {
    "verify": ["verify", "--suite", "all", "--trials", "50"],
    "runtime": ["bench-runtime", "--config", "runtime.json", "--out", "runtime.csv"],
    "modes": ["bench-modes", "--config", "modes.json", "--out", "modes.csv"],
    "bias": ["bench-bias", "--config", "bias.json", "--out", "bias.csv"],
}


def test_harness_runs_without_numpy_but_the_bias_grid(tmp_path, monkeypatch):
    without, with_numpy = tmp_path / "without", tmp_path / "with"
    for folder in (without, with_numpy):
        folder.mkdir()
        for name, config in HARNESS_CONFIGS.items():
            (folder / name).write_text(json.dumps(config))
    result = run_fresh(_NO_NUMPY_SCRIPT, json.dumps(HARNESS_COMMANDS), cwd=without)
    monkeypatch.chdir(with_numpy)
    for name in ("verify", "runtime", "modes"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(HARNESS_COMMANDS[name]) == 0
        assert result[name] == [0, out.getvalue(), ""]
    for csv_name in ("runtime.csv", "modes.csv"):
        assert (without / csv_name).read_bytes() == (with_numpy / csv_name).read_bytes()
    code, out, err = result["bias"]
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "reckit[bench]" in err
    assert not (without / "bias.csv").exists()
