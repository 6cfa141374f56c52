"""End-to-end command line tests driven through main(argv).

Exit code contract: 0 success, 1 violated verification, 2 usage or
input problems.
"""

import json

import pytest

from reckit.bitstream import BitReader, read_message
from reckit.cli import main
from reckit.tree import MAX_DEPTH

# Frozen messages of three symbols at seed 7 on the `isokl --kl 1 --dinf 2`
# pair, one per coder: (encode flags, message hex, float.hex of each sample).
# They pin the variant tags 1-5 and the heap-index, arrival-index and
# codeword unit layouts.
WIRE_GOLDEN = {
    "as": (["--exact", "as"], "c8fbc0",
           ["0x1.11cd55ec550c3p+1", "0x1.09e0c1580f934p+1", "0x1.10c1f71f06d1bp+1"]),
    "ad": (["--exact", "ad"], "a23ea0",
           ["0x1.025dc110686d8p+1", "0x1.09e0c1580f934p+1", "0x1.a3fa0142a15d8p+0"]),
    "pfr": (["--exact", "pfr"], "b232a0",
            ["0x1.addcc776fc644p-2", "0x1.09e0c1580f934p+1", "0x1.7b5df85521066p+0"]),
    "dad": (["--limited", "dad", "--budget", "6"], "4431070430",
            ["0x1.025dc110686d8p+1", "0x1.09e0c1580f934p+1", "0x1.a3fa0142a15d8p+0"]),
    "mrc": (["--limited", "mrc", "--budget", "6"], "453108a620",
            ["0x1.2181a2210c06bp-1", "0x1.e0c98965a466ep+0", "0x1.347ee4243145cp+0"]),
}

GOLDEN_HEADER = (
    "algorithm,family,d_kl_nats,d_inf_nats,n_modes,t_extra_bits,"
    "trial_index,steps,depth,payload_bits,kl_bias_estimate,error"
)


@pytest.fixture()
def model(tmp_path):
    path = tmp_path / "model.json"
    assert main(["isokl", "--kl", "1.0", "--dinf", "2.0", "--out", str(path)]) == 0
    return path


def run_roundtrip(tmp_path, model, encode_flags, seed="7", count="5"):
    msg = tmp_path / "msg.bin"
    first = tmp_path / "enc.txt"
    second = tmp_path / "dec.txt"
    assert main(["encode", "--model", str(model), "--seed", seed,
                 "--count", count, "--out", str(msg), "--samples", str(first)]
                + encode_flags) == 0
    assert main(["decode", "--model", str(model), "--seed", seed,
                 "--in", str(msg), "--samples", str(second)]) == 0
    return first.read_bytes(), second.read_bytes(), msg


def test_isokl_model_contents(model):
    data = json.loads(model.read_text())
    assert data["target"]["family"] == "gaussian"
    assert data["proposal"] == {"family": "gaussian", "mean": 0.0, "variance": 1.0}
    assert data["kl_nats"] == pytest.approx(1.0, rel=1e-9)
    assert data["dinf_nats"] == pytest.approx(2.0, rel=1e-9)


def test_isokl_uniform_family(tmp_path, capsys):
    assert main(["isokl", "--family", "uniform", "--prior-center", "0.0",
                 "--prior-width", "2.0", "--kappa", "0.8", "--beta", "1.0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["target"]["family"] == "uniform"
    assert data["kl_nats"] == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("flags", [
    ["--exact", "ad"],
    ["--exact", "as"],
    ["--exact", "pfr"],
    ["--limited", "dad", "--budget", "6"],
    ["--limited", "mrc", "--budget", "5"],
])
def test_encode_decode_byte_identical(tmp_path, model, flags):
    enc, dec, _ = run_roundtrip(tmp_path, model, flags)
    assert enc == dec
    assert len(enc.splitlines()) == 5


@pytest.mark.parametrize("coder", sorted(WIRE_GOLDEN))
def test_wire_format_golden(tmp_path, model, coder):
    flags, message, samples = WIRE_GOLDEN[coder]
    enc, dec, msg = run_roundtrip(tmp_path, model, flags, count="3")
    assert msg.read_bytes().hex() == message
    assert [line.split()[0] for line in enc.splitlines()] == [s.encode() for s in samples]
    assert dec == enc


def test_exact_encode_is_step_bounded(tmp_path, model, monkeypatch, capsys):
    msg = str(tmp_path / "m.bin")
    # the budget reaches the search (checked first, on a pair that finishes
    # anyway, so an unbounded encode fails here instead of running on)
    monkeypatch.setattr("reckit.cli.MAX_STEPS", 1)
    assert main(["encode", "--model", str(model), "--exact", "ad", "--seed", "7",
                 "--count", "5", "--out", msg]) == 2
    # D-infinity ~ 450 nats: the global-bound race would need ~e^450 arrivals
    far = tmp_path / "far.json"
    far.write_text(json.dumps({
        "target": {"family": "gaussian", "mean": 3.0, "variance": 0.99 ** 2},
        "proposal": {"family": "gaussian", "mean": 0.0, "variance": 1.0},
    }))
    monkeypatch.setattr("reckit.cli.MAX_STEPS", 1000)
    assert main(["encode", "--model", str(far), "--exact", "pfr", "--seed", "1",
                 "--out", msg]) == 2
    assert "exceeded 1000 steps" in capsys.readouterr().err


def test_mrc_encode_is_step_bounded(tmp_path, model, capsys):
    # 2^40 draws would not finish; the CLI's step budget refuses them up front
    msg = tmp_path / "m.bin"
    assert main(["encode", "--model", str(model), "--limited", "mrc", "--budget", "40",
                 "--seed", "1", "--out", str(msg)]) == 2
    assert "exceed the budget of 1000000 steps" in capsys.readouterr().err
    assert not msg.exists()


def test_limited_budget_beyond_the_block_header_is_refused(tmp_path, model, capsys):
    # a block header carries at most MAX_DEPTH bits per codeword: encode
    # refuses any budget its own decoder could not read back
    msg = tmp_path / "m.bin"
    for budget in ("70", str(MAX_DEPTH + 1)):
        for coder in ("dad", "mrc"):
            assert main(["encode", "--model", str(model), "--limited", coder,
                         "--budget", budget, "--seed", "1", "--out", str(msg)]) == 2
            assert not msg.exists()
        assert main(["encode", "--model", str(model), "--limited", "dad", "--budget",
                     budget, "--count", "0", "--seed", "1", "--out", str(msg)]) == 2
    assert "budget must be" in capsys.readouterr().err
    enc, dec, _ = run_roundtrip(tmp_path, model, ["--limited", "dad", "--budget",
                                                  str(MAX_DEPTH)], count="2")
    assert enc == dec


def test_decode_needs_only_the_proposal(tmp_path, model):
    enc, dec, msg = run_roundtrip(tmp_path, model, ["--exact", "ad"])
    bare = tmp_path / "proposal.json"
    bare.write_text('{"family": "gaussian", "mean": 0.0, "variance": 1.0}')
    out = tmp_path / "bare.txt"
    assert main(["decode", "--model", str(bare), "--seed", "7",
                 "--in", str(msg), "--samples", str(out)]) == 0
    assert out.read_bytes() == enc


def test_block_model_roundtrip(tmp_path):
    bm = tmp_path / "blocks.json"
    bm.write_text(json.dumps({
        "coordinates": [
            {"block_id": "a", "prior_mean": 0.0, "prior_std": 1.0, "target_mean": 0.4},
            {"block_id": "b", "prior_mean": 1.0, "prior_std": 2.0, "target_mean": 1.5},
            {"block_id": "a", "prior_mean": 0.5, "prior_std": 1.0, "target_mean": 0.2},
            {"block_id": "b", "prior_mean": -1.0, "prior_std": 2.0, "target_mean": 0.1},
            {"block_id": "a", "prior_mean": 2.0, "prior_std": 1.0, "target_mean": 2.6},
        ],
        "block_kappa": {"a": 0.9, "b": 1.4},
    }))
    msg = tmp_path / "msg.bin"
    first = tmp_path / "enc.txt"
    second = tmp_path / "dec.txt"
    assert main(["encode", "--block-model", str(bm), "--seed", "3",
                 "--out", str(msg), "--samples", str(first)]) == 0
    assert main(["decode", "--block-model", str(bm), "--seed", "3",
                 "--in", str(msg), "--samples", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_bytes().splitlines()) == 5
    # a mismatched slack setting changes the expected budget header
    assert main(["decode", "--block-model", str(bm), "--seed", "3",
                 "--in", str(msg), "--samples", str(second),
                 "--extra-bits", "3"]) == 2


@pytest.mark.parametrize("flags", [
    ["--exact", "ad"],
    ["--limited", "dad"],
    ["--budget", "3"],
    ["--limited", "dad", "--budget", "3"],
    ["--count", "5"],
    ["--count", "1"],
])
def test_block_model_refuses_coder_budget_and_count(tmp_path, flags, capsys):
    """A block model names its coordinates, and kappa their budgets: the
    per-symbol coder flags would be ignored, so encode refuses them."""
    bm = tmp_path / "blocks.json"
    bm.write_text(json.dumps({
        "coordinates": [
            {"block_id": "a", "prior_mean": 0.0, "prior_std": 1.0, "target_mean": 0.4}],
        "block_kappa": {"a": 0.9},
    }))
    msg = tmp_path / "msg.bin"
    assert main(["encode", "--block-model", str(bm), "--seed", "3", "--out", str(msg)]
                + flags) == 2
    err = capsys.readouterr().err
    assert "--block-model does not take" in err
    assert all(flag in err for flag in flags if flag.startswith("--"))
    assert not msg.exists()


@pytest.mark.parametrize("coder", [["--exact", "ad"], ["--limited", "mrc", "--budget", "6"]])
def test_extra_bits_goes_only_with_a_block_model(tmp_path, model, coder, capsys):
    """--extra-bits is the block codec's slack: with --model it would be
    ignored, so encode and decode refuse it and encode writes no message."""
    msg = tmp_path / "msg.bin"
    assert main(["encode", "--model", str(model), "--seed", "7", "--extra-bits", "9",
                 "--out", str(msg)] + coder) == 2
    assert "error: --extra-bits goes only with --block-model" in capsys.readouterr().err
    assert not msg.exists()
    assert main(["encode", "--model", str(model), "--seed", "7", "--out", str(msg)]
                + coder) == 0
    samples = tmp_path / "dec.txt"
    assert main(["decode", "--model", str(model), "--seed", "7", "--in", str(msg),
                 "--extra-bits", "2", "--samples", str(samples)]) == 2
    assert "error: --extra-bits goes only with --block-model" in capsys.readouterr().err
    assert not samples.exists()


def test_bench_runtime_cli(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "algorithms": ["as", "ad", "pfr"],
        "trials": 10,
        "seed": 20260817,
        "gaussian_cells": [{"kl_nats": 0.5, "dinf_nats": 1.0}],
    }))
    out = tmp_path / "r.csv"
    assert main(["bench-runtime", "--config", str(config), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0] == GOLDEN_HEADER
    assert len(text.splitlines()) == 31
    assert "steps mean=" in capsys.readouterr().out
    again = tmp_path / "r2.csv"
    assert main(["bench-runtime", "--config", str(config), "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_bench_bias_cli(tmp_path):
    config = tmp_path / "bias.json"
    config.write_text(json.dumps({
        "algorithms": ["dad", "mrc"],
        "trials": 2,
        "seed": 9,
        "gaussian_cells": [{"kl_nats": 1.0, "dinf_nats": 2.0}],
        "extra_bits": [0, 2],
        "batch": 30,
    }))
    out = tmp_path / "bias.csv"
    assert main(["bench-bias", "--config", str(config), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 9  # header + 2t x 2alg x 2 trials


@pytest.mark.parametrize("command", ["bench-runtime", "bench-bias", "bench-modes"])
def test_bench_without_out_exits_2(tmp_path, monkeypatch, capsys, command):
    """The CSV path is ``--out`` alone: without it no grid runs and nothing is written."""
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"algorithms": ["ad", "dad"], "trials": 1, "seed": 9,
                                  "mixture_cells": [{"n_modes": 2, "dinf_nats": 0.7}]}))
    assert main([command, "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"reckit {command}: error: the following arguments are required: --out"]
    assert [p.name for p in tmp_path.iterdir()] == ["grid.json"]


def test_verify_cli(capsys):
    assert main(["verify", "--suite", "shrinkage", "--trials", "300",
                 "--depth-max", "5"]) == 0
    out = capsys.readouterr().out
    assert "shrinkage sample_split: ok" in out
    assert "shrinkage dyadic: ok" in out
    for trials in ("20", "1"):  # exactly --trials seeds, as the shrinkage suite runs
        assert main(["verify", "--suite", "roundtrip", "--trials", trials]) == 0
        assert capsys.readouterr().out == f"roundtrip: ok ({trials} seeds x 5 coders)\n"


def test_verify_exit_code_on_violation(monkeypatch):
    from reckit.bench import ShrinkageReport

    def broken(kind, depth_max, trials, seed):
        return ShrinkageReport(kind, (1,), (1.0,), (0.5,), passed=False)

    monkeypatch.setattr("reckit.bench.verify_shrinkage", broken)
    assert main(["verify", "--suite", "shrinkage"]) == 1


@pytest.mark.parametrize("args", [
    ("--suite", "shrinkage", "--trials", "0"),
    ("--suite", "shrinkage", "--depth-max", "0"),
    ("--suite", "shrinkage", "--depth-max", str(MAX_DEPTH + 1)),
    ("--suite", "all", "--depth-max", str(MAX_DEPTH + 1)),
    ("--suite", "roundtrip", "--trials", "0"),
    ("--suite", "roundtrip", "--trials", "-1"),
])
def test_verify_refuses_sizes_out_of_range_before_any_work(args, monkeypatch, capsys):
    """A shrinkage depth outside 1..MAX_DEPTH and a trial count below 1 are
    refused with one error line, before a single descent or encode runs."""
    def no_work(*_):
        raise AssertionError("verify ran a trial before refusing its arguments")

    monkeypatch.setattr("reckit.bench.node_sample", no_work)
    monkeypatch.setattr("reckit.cli.derive_seed", no_work)
    assert main(["verify", *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_verify_checks_shrinkage_down_to_the_deepest_node(capsys):
    assert main(["verify", "--suite", "shrinkage", "--depth-max", str(MAX_DEPTH),
                 "--trials", "5"]) in (0, 1)  # accepted: a verdict, not a refusal
    out = capsys.readouterr().out
    assert "shrinkage dyadic: ok" in out and f"depth {MAX_DEPTH}:" in out


def test_usage_exit_codes(tmp_path, model, capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["encode", "--model", str(model), "--out", "x"]) == 2  # no seed
    msg = tmp_path / "m.bin"
    # neither / both model flags
    assert main(["encode", "--seed", "1", "--out", str(msg)]) == 2
    assert main(["encode", "--model", str(model), "--block-model", str(model),
                 "--seed", "1", "--out", str(msg)]) == 2
    err = capsys.readouterr().err  # argparse's own messages
    assert "one of the arguments --model --block-model is required" in err
    assert "not allowed with argument" in err
    # model present but no coder selected
    assert main(["encode", "--model", str(model), "--seed", "1",
                 "--out", str(msg)]) == 2
    # --limited without --budget
    assert main(["encode", "--model", str(model), "--seed", "1",
                 "--limited", "dad", "--out", str(msg)]) == 2
    # one coder only: --exact and --limited are exclusive
    assert main(["encode", "--model", str(model), "--seed", "1", "--exact", "ad",
                 "--limited", "dad", "--budget", "4", "--out", str(msg)]) == 2
    # --budget without --limited
    assert main(["encode", "--model", str(model), "--seed", "1", "--exact", "ad",
                 "--budget", "4", "--out", str(msg)]) == 2
    assert "--budget goes only with --limited" in capsys.readouterr().err
    # a negative symbol count
    assert main(["encode", "--model", str(model), "--seed", "1",
                 "--exact", "ad", "--count", "-3", "--out", str(msg)]) == 2
    # a zero count writes an empty frame
    assert main(["encode", "--model", str(model), "--seed", "1",
                 "--exact", "ad", "--count", "0", "--out", str(msg)]) == 0
    assert read_message(BitReader(msg.read_bytes())).codes == ()
    # encoding needs a target: a bare distribution is not a pair
    bare = tmp_path / "proposal.json"
    bare.write_text('{"family": "gaussian", "mean": 0.0, "variance": 1.0}')
    assert main(["encode", "--model", str(bare), "--seed", "1",
                 "--exact", "ad", "--out", str(msg)]) == 2
    assert "needs a pair model" in capsys.readouterr().err


def test_bad_input_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["bench-runtime", "--config", str(missing), "--out", "r.csv"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["bench-runtime", "--config", str(bad), "--out", "r.csv"]) == 2
    no_out = tmp_path / "conf.json"
    no_out.write_text(json.dumps({"trials": 2, "seed": 1,
                                  "gaussian_cells": [{"kl_nats": 0.1, "dinf_nats": 0.3}]}))
    assert main(["bench-runtime", "--config", str(no_out)]) == 2
    # infeasible divergence request
    assert main(["isokl", "--kl", "2.0", "--dinf", "1.0"]) == 2
    assert main(["isokl", "--kl", "1.0"]) == 2
    assert main(["isokl", "--family", "uniform", "--prior-center", "0.0"]) == 2
    # a truncated message file
    stub = tmp_path / "stub.bin"
    stub.write_bytes(b"\x00")
    sink = tmp_path / "sink.txt"
    model2 = tmp_path / "p.json"
    model2.write_text('{"family": "gaussian", "mean": 0.0, "variance": 1.0}')
    assert main(["decode", "--model", str(model2), "--seed", "1",
                 "--in", str(stub), "--samples", str(sink)]) == 2
    capsys.readouterr()


_UNIFORM_RECIPE = ["--family", "uniform", "--prior-center", "0.0", "--prior-width", "2.0",
                   "--kappa", "0.8"]
_GAUSSIAN_RECIPE = ["--prior-mean", "0.0", "--prior-std", "1.0", "--target-mean", "0.5",
                    "--kappa", "0.3"]


@pytest.mark.parametrize("argv,unread", [
    # the joint inversion builds a gaussian pair from --kl and --dinf alone
    (["--family", "uniform", "--kl", "1.0", "--dinf", "2.0"], "--family uniform"),
    (["--kl", "1.0", "--dinf", "2.0", "--beta", "0.5"], "--beta"),
    (["--kl", "1.0", "--dinf", "2.0", "--kappa", "1.0"], "--kappa"),
    (["--kl", "1.0", "--dinf", "2.0", "--prior-mean", "0.3", "--prior-center", "1.0"],
     "--prior-mean, --prior-center"),
    # the gaussian recipe reads no uniform prior and no --beta
    (_GAUSSIAN_RECIPE + ["--prior-center", "1.0"], "--prior-center"),
    (_GAUSSIAN_RECIPE + ["--prior-width", "3.0"], "--prior-width"),
    (_GAUSSIAN_RECIPE + ["--beta", "0.5"], "--beta"),
    # the uniform recipe reads no gaussian prior and no target mean
    (_UNIFORM_RECIPE + ["--prior-mean", "0.3"], "--prior-mean"),
    (_UNIFORM_RECIPE + ["--prior-std", "1.5"], "--prior-std"),
    (_UNIFORM_RECIPE + ["--target-mean", "0.5"], "--target-mean"),
])
def test_isokl_refuses_a_flag_its_recipe_does_not_read(tmp_path, capsys, argv, unread):
    out = tmp_path / "pair.json"
    assert main(["isokl", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert captured.err.endswith(f" does not take {unread}\n")
    assert not out.exists()


def test_isokl_recipes_take_their_own_flags(tmp_path):
    # --beta unset is 0.0, and --family gaussian, the default, goes with --kl/--dinf
    unset, zero = tmp_path / "unset.json", tmp_path / "zero.json"
    assert main(["isokl", *_UNIFORM_RECIPE, "--out", str(unset)]) == 0
    assert main(["isokl", *_UNIFORM_RECIPE, "--beta", "0.0", "--out", str(zero)]) == 0
    assert unset.read_bytes() == zero.read_bytes()
    assert main(["isokl", *_GAUSSIAN_RECIPE, "--out", str(tmp_path / "g.json")]) == 0
    assert main(["isokl", "--family", "gaussian", "--kl", "1.0", "--dinf", "2.0",
                 "--out", str(tmp_path / "joint.json")]) == 0


_GAUSS = {"family": "gaussian", "mean": 0.0, "variance": 1.0}
_RECORD = {"block_id": "a", "prior_mean": 0.0, "prior_std": 1.0, "target_mean": 0.4}
_BIAS = {"algorithms": ["dad"], "trials": 1, "seed": 9, "batch": 20,
         "gaussian_cells": [{"kl_nats": 1.0, "dinf_nats": 2.0}]}
_RUNTIME = {"algorithms": ["ad"], "trials": 2, "seed": 9,
            "gaussian_cells": [{"kl_nats": 0.34, "dinf_nats": 1.0}]}


@pytest.mark.parametrize("command,flag,content", [
    # a pair whose gaussian target has no variance
    ("encode", "--model", {"target": {"family": "gaussian", "mean": 0.5}, "proposal": _GAUSS}),
    # a proposal with a non-numeric center
    ("decode", "--model", {"family": "uniform", "center": "x", "width": 1}),
    # a mixture component with no high end
    ("encode", "--model", {"target": {"family": "uniform_mixture",
                                      "components": [{"weight": 1.0, "low": 0.2}]},
                           "proposal": {"family": "uniform", "center": 0.5, "width": 1.0}}),
    # block-model coordinates with no target mean, or a non-numeric prior mean
    ("encode", "--block-model", {"coordinates": [{k: v for k, v in _RECORD.items()
                                                  if k != "target_mean"}],
                                 "block_kappa": {"a": 1.0}}),
    ("encode", "--block-model", {"coordinates": [{**_RECORD, "prior_mean": "zero"}],
                                 "block_kappa": {"a": 1.0}}),
    # a bias config whose extra bits are not integers
    ("bench-bias", "--config", {**_BIAS, "extra_bits": ["1"]}),
    # a number of the wrong type, which no loader coerces: an integer config
    # field takes no float, a real model or config field no bool or string
    ("bench-runtime", "--config", {**_RUNTIME, "trials": 2.9}),
    ("bench-runtime", "--config", {**_RUNTIME, "seed": "7"}),
    ("bench-runtime", "--config", {**_RUNTIME, "batch": 1.9}),
    ("bench-runtime", "--config", {**_RUNTIME, "gaussian_cells": [{"kl_nats": "0.34",
                                                                   "dinf_nats": 1.0}]}),
    ("bench-runtime", "--config", {**_RUNTIME, "gaussian_cells": [{"kl_nats": 0.34,
                                                                   "dinf_nats": True}]}),
    ("encode", "--block-model", {"coordinates": [{**_RECORD, "prior_std": True}],
                                 "block_kappa": {"a": 1.0}}),
    ("encode", "--block-model", {"coordinates": [{**_RECORD, "prior_mean": "0.0"}],
                                 "block_kappa": {"a": 1.0}}),
    ("encode", "--model", {"target": {**_GAUSS, "mean": "0.5", "variance": 0.8},
                           "proposal": _GAUSS}),
    ("encode", "--model", {"target": {**_GAUSS, "variance": True}, "proposal": _GAUSS}),
    # a file that holds no JSON object
    ("bench-runtime", "--config", [_BIAS]),
    # a block id that is not a string: block_kappa's keys are strings
    ("encode", "--block-model", {"coordinates": [{**_RECORD, "block_id": 1}],
                                 "block_kappa": {"1": 1.0}}),
    ("encode", "--block-model", {"coordinates": [{**_RECORD, "block_id": True}],
                                 "block_kappa": {"True": 1.0}}),
    ("encode", "--block-model", {"coordinates": [{**_RECORD, "block_id": 1},
                                                 {**_RECORD, "block_id": "1"}],
                                 "block_kappa": {"1": 0.9}}),
    # a config key that is not one: the CSV path is --out alone, so "output"
    # is refused as unknown (an integer path would be a file descriptor to open())
    ("bench-runtime", "--config", {**_RUNTIME, "output": 1}),
    # a config that names none of its grid's coders, rather than a header-only
    # CSV: bench-bias runs only dad/mrc, and the default algorithms are as/ad/pfr
    ("bench-bias", "--config", {k: v for k, v in _BIAS.items() if k != "algorithms"}),
    ("bench-runtime", "--config", {**_RUNTIME, "algorithms": ["dad", "mrc"]}),
    ("bench-modes", "--config", {**_RUNTIME, "algorithms": ["mrc"],
                                 "mixture_cells": [{"n_modes": 2, "dinf_nats": 0.7}]}),
    # a bias batch too small to fill two PIT bins
    ("bench-bias", "--config", {**_BIAS, "batch": -1}),
    # a step budget that refuses every encode, a negative extra-bit count and
    # a repeated entry, which would write two rows under one (cell, trial) key
    ("bench-runtime", "--config", {**_RUNTIME, "max_steps": 0}),
    ("bench-bias", "--config", {**_BIAS, "extra_bits": [0, -5]}),
    ("bench-runtime", "--config", {**_RUNTIME, "algorithms": ["ad", "ad"]}),
    ("bench-bias", "--config", {**_BIAS, "extra_bits": [2, 2]}),
    ("bench-runtime", "--config", {**_RUNTIME, "gaussian_cells": 2 * _RUNTIME["gaussian_cells"]}),
    # the mode sweep runs mixture cells alone: a gaussian cell is refused
    ("bench-modes", "--config", {**_RUNTIME, "mixture_cells": [{"n_modes": 2,
                                                                "dinf_nats": 0.7}]}),
])
def test_malformed_files_exit_2(tmp_path, capsys, command, flag, content):
    path = tmp_path / "file.json"
    path.write_text(json.dumps(content))
    out = str(tmp_path / "out")
    rest = {
        "encode": ["--seed", "1", "--out", out] + (["--exact", "ad"] if flag == "--model" else []),
        "decode": ["--seed", "1", "--in", str(path), "--samples", out],
    }.get(command, ["--out", out])
    assert main([command, flag, str(path), *rest]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert captured.err.count("\n") == 1 and not (tmp_path / "out").exists()
