"""Harness tests: estimator calibration, grid semantics, CSV stability."""

import json
import math
import random

import numpy as np
import pytest

from reckit.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    ResultRow,
    knn_kl_estimate,
    mixture_pair,
    rows_to_csv,
    run_bias_grid,
    run_mode_sweep,
    run_runtime_grid,
    summarize_rows,
    verify_shrinkage,
)
from reckit.cli import main
from reckit.errors import DomainError
from reckit.tree import PartitionKind

GOLDEN_HEADER = (
    "algorithm,family,d_kl_nats,d_inf_nats,n_modes,t_extra_bits,"
    "trial_index,steps,depth,payload_bits,kl_bias_estimate,error"
)


def small_config(**kw) -> ExperimentConfig:
    base = dict(algorithms=("as", "ad", "pfr"), trials=20, seed=20260817,
                gaussian_cells=((0.5, 1.0),))
    base.update(kw)
    return ExperimentConfig(**base)


# ------------------------------------------------------------- estimator

def test_knn_guards():
    x = [0.1, 0.2, 0.3, 0.4]
    with pytest.raises(DomainError):
        knn_kl_estimate(x, x, k=0)
    with pytest.raises(DomainError):
        knn_kl_estimate(x, x, k=3)  # k = n - 1 leaves no self-excluded kNN
    with pytest.raises(DomainError):
        knn_kl_estimate([0.1, 0.2], x, k=1)
    with pytest.raises(DomainError):
        knn_kl_estimate(x, [0.5], k=1)


def test_knn_duplicate_jitter_warns():
    rng = np.random.default_rng(1)
    x = rng.normal(size=50)
    x[7] = x[3]  # exact tie
    with pytest.warns(UserWarning, match="jitter"):
        est = knn_kl_estimate(x, rng.normal(size=50))
    assert math.isfinite(est)


def test_knn_null_calibration():
    rng = np.random.default_rng(42)
    estimates = [
        knn_kl_estimate(rng.normal(size=1000), rng.normal(size=1000))
        for _ in range(100)
    ]
    assert abs(float(np.mean(estimates))) < 0.05


def test_knn_shift_calibration():
    rng = np.random.default_rng(7)
    for kl in (0.0, 0.25, 0.5, 1.0):
        shift = math.sqrt(2.0 * kl)
        estimates = [
            knn_kl_estimate(rng.normal(shift, 1.0, size=5000),
                            rng.normal(0.0, 1.0, size=5000))
            for _ in range(100)
        ]
        assert float(np.mean(estimates)) == pytest.approx(kl, abs=0.1)


def test_knn_higher_k():
    rng = np.random.default_rng(3)
    est = knn_kl_estimate(rng.normal(1.0, 1.0, 3000), rng.normal(0.0, 1.0, 3000), k=5)
    assert est == pytest.approx(0.5, abs=0.15)


def test_knn_matches_kdtree_reference():
    # the estimator finds neighbours by sorting; scipy's k-d tree is the
    # reference it must match exactly, jittered duplicates included
    from scipy.spatial import cKDTree

    def reference(x, y, k):
        rho = cKDTree(x[:, None]).query(x[:, None], k=k + 1)[0][:, k]
        nu = cKDTree(y[:, None]).query(x[:, None], k=k)[0]
        nu = nu[:, k - 1] if k > 1 else nu
        return float(np.mean(np.log(nu / rho)) + math.log(len(y) / (len(x) - 1)))

    rng = np.random.default_rng(5)
    for scale in (1e-6, 1.0, 1e3):
        for k in (1, 2, 3):
            x = rng.normal(0.0, scale, 300)
            y = rng.normal(0.3 * scale, 1.2 * scale, 200)
            assert knn_kl_estimate(x, y, k=k) == reference(x, y, k)
    x = np.round(rng.normal(size=200), 2)  # many exact ties
    y = rng.normal(size=100)
    x_jit = x + 1e-12 * np.arange(len(x))
    y_jit = y + 1e-12 * math.sqrt(2.0) * np.arange(len(y))
    with pytest.warns(UserWarning, match="jitter"):
        assert knn_kl_estimate(x, y) == reference(x_jit, y_jit, 1)


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(DomainError):
        small_config(trials=0)
    for batch in (-1, 0, 2):  # the k-NN estimate needs k + 2 = 3 points a batch
        with pytest.raises(DomainError, match="batch must be >= 3"):
            small_config(batch=batch)
    assert small_config(batch=3).batch == 3
    with pytest.raises(DomainError):
        ExperimentConfig(algorithms=("as",), trials=5, seed=1)  # no cells
    with pytest.raises(DomainError):
        small_config(algorithms=("as", "bogus"))
    # max_steps 0 would turn every encode into an error row
    for max_steps in (0, -5):
        with pytest.raises(DomainError, match="max_steps must be >= 1"):
            small_config(max_steps=max_steps)
    assert small_config(max_steps=1).max_steps == 1
    # a negative extra-bit count would run at the budget floor of 1 under its own label
    with pytest.raises(DomainError, match="extra_bits must be >= 0"):
        small_config(extra_bits=(0, -5))
    # a repeated entry would write two rows under one (cell, trial) key
    for repeated in (dict(algorithms=("ad", "ad")), dict(extra_bits=(1, 2, 1)),
                     dict(gaussian_cells=((0.5, 1.0), (0.5, 1.0))),
                     dict(uniform_cells=(0.5, 0.5)),
                     dict(mixture_cells=((2, 0.7), (4, 0.7), (2, 0.7)))):
        with pytest.raises(DomainError, match="repeats an entry"):
            small_config(**repeated)
    assert small_config(uniform_cells=(0.5,)).uniform_cells == (0.5,)


def test_config_from_json():
    text = """{
        "algorithms": ["ad", "pfr"],
        "trials": 12,
        "seed": 99,
        "gaussian_cells": [{"kl_nats": 0.5, "dinf_nats": 1.0}],
        "uniform_cells": [{"kl_nats": 0.25}],
        "mixture_cells": [{"n_modes": 2, "dinf_nats": 0.7}],
        "extra_bits": [0, 2],
        "batch": 64
    }"""
    config = ExperimentConfig.from_dict(json.loads(text))
    assert config.algorithms == ("ad", "pfr")
    assert config.gaussian_cells == ((0.5, 1.0),)
    assert config.uniform_cells == (0.25,)
    assert config.mixture_cells == ((2, 0.7),)
    assert config.extra_bits == (0, 2)
    assert config.batch == 64 and config.max_steps == 1_000_000
    # an integer where a real is expected loads as a float
    config = ExperimentConfig.from_dict({"trials": 1, "seed": 1, "uniform_cells": [{"kl_nats": 1}]})
    assert config.uniform_cells == (1.0,) and type(config.uniform_cells[0]) is float
    with pytest.raises(DomainError):
        ExperimentConfig.from_dict({"seed": 1})  # trials missing
    with pytest.raises(DomainError):
        ExperimentConfig.from_dict({"trials": "many", "seed": 1})
    for extra_bits in (["1"], [1.5], [True], 3):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict({"trials": 1, "seed": 1, "extra_bits": extra_bits,
                                        "gaussian_cells": [{"kl_nats": 1, "dinf_nats": 2}]})


def test_config_refuses_unknown_keys():
    """A misspelt key is refused rather than dropped, which would leave its
    default in force without a word; so is a key the config no longer has:
    the bias grid's repeat count is ``trials``, and the CSV path is ``--out``."""
    cells = {"trials": 3, "seed": 1, "gaussian_cells": [{"kl_nats": 1, "dinf_nats": 2}]}
    assert ExperimentConfig.from_dict(cells).trials == 3
    for key, value in (("repeat", 5), ("extra_bit", [9]), ("algorithm", ["dad"]),
                       ("repeats", 5), ("output", "rows.csv")):
        with pytest.raises(DomainError, match=f"unknown keys \\['{key}'\\]"):
            ExperimentConfig.from_dict({**cells, key: value})


def test_mixture_pair_properties():
    pair = mixture_pair(4, 1.0)
    assert pair.analytic_dinf() == pytest.approx(1.0, abs=1e-12)
    assert pair.analytic_kl() == pytest.approx(1.0, abs=1e-12)
    assert len(pair.target.components) == 4
    with pytest.raises(DomainError):
        mixture_pair(0, 1.0)
    with pytest.raises(DomainError):
        mixture_pair(2, 0.0)


# ------------------------------------------------------------- runtime grid

def test_runtime_grid_identity_cell_takes_one_step():
    rows = run_runtime_grid(small_config(gaussian_cells=((0.0, 0.0),), trials=50))
    assert len(rows) == 150
    for row in rows:
        assert row.error is None
        assert row.steps == 1
        assert row.depth == 1 and row.payload_bits == 1


def test_runtime_grid_csv_deterministic():
    config = small_config()
    first = rows_to_csv(run_runtime_grid(config))
    second = rows_to_csv(run_runtime_grid(config))
    assert first == second
    assert first.splitlines()[0] == GOLDEN_HEADER
    assert len(first.splitlines()) == 1 + 3 * 20


def test_runtime_grid_pfr_near_expected_arrivals():
    dinf = math.log(4.0)
    config = ExperimentConfig(
        algorithms=("pfr",), trials=1000, seed=11,
        gaussian_cells=((0.6, dinf),),
    )
    rows = run_runtime_grid(config)
    mean_steps = float(np.mean([r.steps for r in rows]))
    assert 2.0 <= mean_steps <= 8.0  # within factor 2 of e^dinf = 4


def test_runtime_grid_error_rows_on_step_budget():
    config = small_config(gaussian_cells=((1.5, 3.0),), algorithms=("as",),
                          trials=30, max_steps=1)
    rows = run_runtime_grid(config)
    errors = [r for r in rows if r.error is not None]
    assert errors and all(r.steps is None for r in errors)
    assert "exceeded" in errors[0].error
    assert "exceeded" in rows_to_csv(rows)


def test_runtime_grid_skips_intractable_pfr():
    config = small_config(gaussian_cells=((1.0, 8.0),), trials=5)
    rows = run_runtime_grid(config)
    assert {r.algorithm for r in rows} == {"as", "ad"}
    assert len(rows) == 10


def test_runtime_grid_ignores_depth_limited_algorithms():
    config = small_config(algorithms=("ad", "dad", "mrc"), trials=4)
    rows = run_runtime_grid(config)
    assert {r.algorithm for r in rows} == {"ad"}


# The CSVs of `reckit bench-runtime` and `bench-modes` on two small configs
# that need no numpy, pinned byte for byte: every row field, the skipped
# fixed-width coder, the error rows of a tight step budget and the sort.
PINNED_RUNTIME_CONFIG = {
    "algorithms": ["as", "ad", "pfr", "dad"], "trials": 2, "seed": 5, "max_steps": 3,
    "gaussian_cells": [{"kl_nats": 0.5, "dinf_nats": 1.0}], "uniform_cells": [{"kl_nats": 0.7}],
    "mixture_cells": [{"n_modes": 2, "dinf_nats": 1.0}],
}
PINNED_RUNTIME_CSV = GOLDEN_HEADER + """
ad,gaussian,0.5,1.0,,,0,3,3,3,,
ad,gaussian,0.5,1.0,,,1,2,2,2,,
ad,uniform,0.7,0.7,,,0,1,1,1,,
ad,uniform,0.7,0.7,,,1,1,1,1,,
ad,uniform_mixture,1.0,1.0,2,,0,1,1,1,,
ad,uniform_mixture,1.0,1.0,2,,1,1,1,1,,
as,gaussian,0.5,1.0,,,0,2,2,2,,
as,gaussian,0.5,1.0,,,1,1,1,1,,
as,uniform,0.7,0.7,,,0,1,1,1,,
as,uniform,0.7,0.7,,,1,1,1,1,,
as,uniform_mixture,1.0,1.0,2,,0,,,,,search exceeded 3 steps
as,uniform_mixture,1.0,1.0,2,,1,2,2,2,,
pfr,gaussian,0.5,1.0,,,0,1,1,1,,
pfr,gaussian,0.5,1.0,,,1,2,2,2,,
pfr,uniform,0.7,0.7,,,0,3,3,2,,
pfr,uniform,0.7,0.7,,,1,1,1,1,,
pfr,uniform_mixture,1.0,1.0,2,,0,,,,,search exceeded 3 steps
pfr,uniform_mixture,1.0,1.0,2,,1,2,2,2,,
"""
PINNED_MODES_CONFIG = {
    "algorithms": ["as", "ad"], "trials": 2, "seed": 5,
    "mixture_cells": [{"n_modes": 1, "dinf_nats": 1.5}, {"n_modes": 3, "dinf_nats": 1.5}],
}
PINNED_MODES_CSV = GOLDEN_HEADER + """
ad,uniform_mixture,1.5,1.5,1,,0,2,2,2,,
ad,uniform_mixture,1.5,1.5,1,,1,5,4,4,,
ad,uniform_mixture,1.5,1.5,3,,0,3,2,2,,
ad,uniform_mixture,1.5,1.5,3,,1,3,3,3,,
as,uniform_mixture,1.5,1.5,1,,0,1,1,1,,
as,uniform_mixture,1.5,1.5,1,,1,1,1,1,,
as,uniform_mixture,1.5,1.5,3,,0,3,3,3,,
as,uniform_mixture,1.5,1.5,3,,1,1,1,1,,
"""


@pytest.mark.parametrize("command, config, expected", [
    ("bench-runtime", PINNED_RUNTIME_CONFIG, PINNED_RUNTIME_CSV),
    ("bench-modes", PINNED_MODES_CONFIG, PINNED_MODES_CSV),
])
def test_grid_csv_is_pinned(tmp_path, command, config, expected):
    path, out = tmp_path / "config.json", tmp_path / "rows.csv"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    assert out.read_text() == expected


# --------------------------------------------------------------- mode sweep

def test_mode_sweep_shared_dinf():
    config = ExperimentConfig(
        algorithms=("ad",), trials=10, seed=5,
        mixture_cells=((1, 0.7), (2, 0.7), (4, 0.7)),
    )
    rows = run_mode_sweep(config)
    assert len(rows) == 30
    assert {r.n_modes for r in rows} == {1, 2, 4}
    assert all(r.family == "uniform_mixture" for r in rows)
    assert all(r.d_inf_nats == 0.7 for r in rows)


@pytest.mark.parametrize("runner, algorithms", [
    (run_runtime_grid, ("dad", "mrc")),
    (run_mode_sweep, ("mrc",)),
    (run_bias_grid, ("as", "ad", "pfr")),
])
def test_grid_refuses_a_config_that_runs_no_coder(runner, algorithms):
    """The runtime grids run only exact coders and the bias grid only the
    fixed-width ones: a config naming none of a grid's coders is refused,
    rather than giving a header-only CSV."""
    config = small_config(algorithms=algorithms, mixture_cells=((2, 0.7),))
    with pytest.raises(DomainError, match="run no coder"):
        runner(config)


def test_mode_sweep_rejects_mixed_dinf():
    config = ExperimentConfig(
        algorithms=("ad",), trials=5, seed=5,
        mixture_cells=((1, 0.7), (2, 0.8)),
    )
    with pytest.raises(DomainError):
        run_mode_sweep(config)
    with pytest.raises(DomainError):
        run_mode_sweep(small_config())  # no mixture cells
    # a gaussian or uniform cell is refused, not dropped
    for other in (dict(), dict(gaussian_cells=(), uniform_cells=(0.5,))):
        with pytest.raises(DomainError, match="mixture cells alone"):
            run_mode_sweep(small_config(mixture_cells=((2, 0.7),), **other))


# ---------------------------------------------------------------- bias grid

def test_bias_grid_shape_and_budgets():
    config = ExperimentConfig(
        algorithms=("dad", "mrc"), trials=3, seed=3,
        gaussian_cells=((1.0, 2.0),), extra_bits=(0, 3), batch=40,
    )
    rows = run_bias_grid(config)
    assert len(rows) == 12  # 1 cell x 2 t x 2 algorithms x 3 trials
    assert sorted({r.trial_index for r in rows}) == [0, 1, 2]
    base_bits = math.ceil(1.0 / math.log(2.0))
    for row in rows:
        assert row.error is None
        assert row.depth == row.payload_bits == base_bits + row.t_extra_bits
        assert math.isfinite(row.kl_bias_estimate)
    mrc = [r for r in rows if r.algorithm == "mrc" and r.t_extra_bits == 3]
    dad = [r for r in rows if r.algorithm == "dad" and r.t_extra_bits == 3]
    for r in mrc:
        assert r.steps == float(1 << (base_bits + 3))  # MRC always scans 2^D
    assert np.mean([r.steps for r in dad]) < np.mean([r.steps for r in mrc])


def test_bias_grid_deterministic():
    config = ExperimentConfig(
        algorithms=("dad",), trials=2, seed=8,
        gaussian_cells=((0.7, 1.4),), extra_bits=(1,), batch=30,
    )
    assert rows_to_csv(run_bias_grid(config)) == rows_to_csv(run_bias_grid(config))


# ---------------------------------------------------------------- shrinkage

def test_shrinkage_dyadic_exact():
    report = verify_shrinkage(PartitionKind.DYADIC, depth_max=5, trials=50)
    assert report.passed
    assert report.depths == (1, 2, 3, 4, 5)
    assert report.mean_mass == (1.0, 0.5, 0.25, 0.125, 0.0625)
    assert report.bounds == report.mean_mass


def test_shrinkage_refuses_the_global_bound(monkeypatch):
    """The global-bound race never cuts a region, so it has no partition
    to check: it is refused up front, before any draw."""
    def no_draw(*_):
        raise AssertionError("verify_shrinkage drew before refusing the global bound")

    monkeypatch.setattr("reckit.bench.node_sample", no_draw)
    with pytest.raises(DomainError):
        verify_shrinkage(PartitionKind.GLOBAL_BOUND, depth_max=4, trials=30)


def test_shrinkage_sample_split_rate():
    report = verify_shrinkage(PartitionKind.SAMPLE_SPLIT, depth_max=8, trials=400)
    assert report.passed
    for d, mean, bound in zip(report.depths, report.mean_mass, report.bounds):
        assert mean <= bound
        assert bound == pytest.approx(0.75 ** (d - 1), rel=0.2)
    with pytest.raises(DomainError):
        verify_shrinkage(PartitionKind.DYADIC, trials=0)


# ---------------------------------------------------------------------- CSV

def test_summarize_rows():
    rows = [
        ResultRow("ad", "gaussian", 1.0, 2.0, trial_index=i, steps=s,
                  payload_bits=3, kl_bias_estimate=0.1 * i)
        for i, s in enumerate((1.0, 2.0, 3.0, 4.0))
    ]
    rows.append(ResultRow("ad", "gaussian", 1.0, 2.0, trial_index=9, error="boom"))
    (entry,) = summarize_rows(rows)
    assert entry["trials"] == 4  # the error row is excluded
    assert entry["steps_mean"] == 2.5
    assert entry["steps_q1"] == 1.75
    assert entry["steps_median"] == 2.5
    assert entry["steps_q3"] == 3.25
    assert entry["payload_bits_mean"] == 3.0
    assert entry["bias_mean"] == pytest.approx(0.15)
    assert entry["bias_se"] > 0.0


def test_summary_groups_come_in_the_csv_order():
    # numbers sort as numbers: mode count 16 after 8, and kl 10.0 after 2.0,
    # where the strings "16" and "10.0" would sort first
    rows = [ResultRow("ad", "uniform_mixture", 1.0, 1.0, n, trial_index=i, steps=n + i)
            for n in (16, 4, 1, 8, 2) for i in range(2)]
    rows += [ResultRow("as", "gaussian", kl, 2 * kl, trial_index=0, steps=3)
             for kl in (10.0, 2.0)]
    random.Random(3).shuffle(rows)
    summary = summarize_rows(rows)
    assert [(e["algorithm"], e["n_modes"]) for e in summary if e["algorithm"] == "ad"] == [
        ("ad", 1), ("ad", 2), ("ad", 4), ("ad", 8), ("ad", 16)]
    assert [e["d_kl_nats"] for e in summary if e["algorithm"] == "as"] == [2.0, 10.0]
    csv_cells = []
    for line in rows_to_csv(rows).splitlines()[1:]:
        cell = line.split(",")[:5]
        if cell not in csv_cells:
            csv_cells.append(cell)
    assert [[e["algorithm"], e["family"], repr(e["d_kl_nats"]), repr(e["d_inf_nats"]),
             "" if e["n_modes"] is None else str(e["n_modes"])] for e in summary] == csv_cells


def test_summary_statistics_match_numpy():
    # the standard-library port keeps numpy's figures. Quartiles match bit for
    # bit. Means of integer steps match too (both sums are exact); for real
    # steps math.fsum rounds once, where np.mean's running sums err by up to
    # about n ulps of the mean on positive data
    rng = random.Random(16)
    for n in range(1, 51):
        for steps in ([rng.randrange(1, 300) for _ in range(n)],
                      [rng.uniform(0.0, 40.0) for _ in range(n)]):
            rows = [ResultRow("ad", "gaussian", 1.0, 2.0, trial_index=i, steps=s)
                    for i, s in enumerate(steps)]
            (entry,) = summarize_rows(rows)
            for key, q in (("steps_q1", 0.25), ("steps_median", 0.5), ("steps_q3", 0.75)):
                assert entry[key] == float(np.quantile(np.array(steps, dtype=float), q))
            mean = float(np.mean(np.array(steps, dtype=float)))
            tolerance = 0.0 if type(steps[0]) is int else 2 * n * math.ulp(mean)
            assert abs(entry["steps_mean"] - mean) <= tolerance


def test_write_rows():
    # the CLI writes rows_to_csv's text as the CSV file
    rows = run_runtime_grid(small_config(trials=3))
    text = rows_to_csv(rows)
    assert text.startswith(GOLDEN_HEADER + "\n")
    assert rows_to_csv(reversed(rows)) == text
