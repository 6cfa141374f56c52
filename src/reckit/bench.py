"""Experiment harness: runtime/codelength grids, bias-vs-slack grids, the
mode sweep, Monte-Carlo shrinkage verification, and the PIT score that
rates an encoded batch's bias against its target's CDF.

Everything is driven by an :class:`ExperimentConfig` (built from a dict) and
emits :class:`ResultRow` records with a fixed CSV schema. Runs are fully
deterministic: every trial's stream seed is derived from the config seed
and the trial's position, and rows are sorted before writing, so a given
config always produces byte-identical CSV.

The harness runs on the standard library alone, and loads nothing beyond
``math`` until a statistic (shrinkage verification, ``summarize_rows``)
runs.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Iterable, Sequence

from .coders import CODERS, MAX_STEPS, Variant
from .distributions import (
    Distribution1D,
    MixtureComponent,
    PairSpec,
    Uniform,
    UniformMixture,
    Gaussian,
    as_number,
    sample_restricted_u,
)
from .errors import DomainError, Frozen, RecError
from .isokl import gaussian_from_kl_dinf, uniform_from_mean_kl
from .randomness import DrawSlot, derive_seed, seed_uniform
from .tree import MAX_DEPTH, PartitionKind, expand

_LN2 = math.log(2.0)

class ResultRow(Frozen):
    __slots__ = _fields = (
        "algorithm", "family", "d_kl_nats", "d_inf_nats", "n_modes", "t_extra_bits",
        "trial_index", "steps", "depth", "payload_bits", "kl_bias_estimate", "error")

    def __init__(self, algorithm: str, family: str, d_kl_nats: float, d_inf_nats: float,
                 n_modes: int | None = None, t_extra_bits: int | None = None,
                 trial_index: int = 0, steps: float | None = None, depth: int | None = None,
                 payload_bits: int | None = None, kl_bias_estimate: float | None = None,
                 error: str | None = None) -> None:
        self._store(algorithm, family, d_kl_nats, d_inf_nats, n_modes, t_extra_bits,
                    trial_index, steps, depth, payload_bits, kl_bias_estimate, error)

    def as_record(self) -> list[str]:
        def fmt(v) -> str:
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)

        return [fmt(getattr(self, c)) for c in CSV_COLUMNS]


CSV_COLUMNS = ResultRow._fields


_EXACT_NAMES = tuple(v.value for v, spec in CODERS.items() if not spec.fixed_width)


class ExperimentConfig(Frozen):
    """Grids and knobs for one harness run.

    Gaussian cells are (kl_nats, dinf_nats) pairs realized exactly through
    the joint KL/D-infinity inversion; uniform cells are kl values inside
    a fixed uniform prior; mixture cells hold a mode count at a shared
    dinf. ``trials`` is the runtime grids' encodes per (cell, algorithm)
    and the bias grid's batches per (cell, algorithm, t); ``extra_bits``
    and ``batch`` only matter to the bias grid. A batch needs 4 encodes,
    the fewest whose ``pit_kl`` score has two bins (isqrt(batch) of them):
    one bin scores 0 whatever the coder.
    ``max_steps`` is at least 1, an extra-bit count at least 0, and no
    list repeats an entry.
    """

    __slots__ = _fields = (
        "algorithms", "trials", "seed", "gaussian_cells", "uniform_cells", "mixture_cells",
        "extra_bits", "batch", "max_steps")

    def __init__(
        self, algorithms: tuple[str, ...], trials: int, seed: int,
        gaussian_cells: tuple[tuple[float, float], ...] = (),
        uniform_cells: tuple[float, ...] = (),
        mixture_cells: tuple[tuple[int, float], ...] = (),
        extra_bits: tuple[int, ...] = (0, 1, 2, 3, 4), batch: int = 100, max_steps: int = MAX_STEPS,
    ) -> None:
        for name, value, least in (("trials", trials, 1), ("batch", batch, 4),
                                   ("max_steps", max_steps, 1),
                                   *(("extra_bits", t, 0) for t in extra_bits)):
            if value < least:
                raise DomainError(f"{name} must be >= {least}, got {value}")
        if not (gaussian_cells or uniform_cells or mixture_cells):
            raise DomainError("config needs at least one grid cell")
        unknown = set(algorithms) - {v.value for v in Variant}
        if unknown:
            raise DomainError(f"unknown algorithms {sorted(unknown)}")
        self._store(tuple(algorithms), trials, seed, tuple(gaussian_cells), tuple(uniform_cells),
                    tuple(mixture_cells), tuple(extra_bits), batch, max_steps)
        for name in ("algorithms", "gaussian_cells", "uniform_cells", "mixture_cells",
                     "extra_bits"):
            entries = getattr(self, name)
            if len(set(entries)) < len(entries):
                raise DomainError(f"{name} repeats an entry: {list(entries)}")

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        """The config a dict describes (the CLI reads it from a JSON file).
        A key the dict leaves out keeps its default. A missing required
        key, an unknown key or a value of the wrong type raises DomainError."""
        unknown = set(data) - {"algorithms", "trials", "seed", *_OPTIONAL_KEYS}
        if unknown:
            raise DomainError(f"bad experiment config: unknown keys {sorted(unknown)}")
        try:
            return ExperimentConfig(
                algorithms=tuple(data.get("algorithms", _EXACT_NAMES)),
                trials=as_number(data["trials"], int),
                seed=as_number(data["seed"], int),
                **{key: read(data[key]) for key, read in _OPTIONAL_KEYS.items() if key in data},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad experiment config: {exc}") from None


def _int(value) -> int:
    return as_number(value, int)


# How ``from_dict`` reads each optional key of a config dict
_OPTIONAL_KEYS = {
    "gaussian_cells": lambda cells: tuple(
        (as_number(c["kl_nats"]), as_number(c["dinf_nats"])) for c in cells),
    "uniform_cells": lambda cells: tuple(as_number(c["kl_nats"]) for c in cells),
    "mixture_cells": lambda cells: tuple(
        (_int(c["n_modes"]), as_number(c["dinf_nats"])) for c in cells),
    "extra_bits": lambda bits: tuple(_int(t) for t in bits),
    "batch": _int,
    "max_steps": _int,
}


# -- cell construction -------------------------------------------------------

_UNIFORM_PRIOR = Uniform(0.0, 2.0)
_UNIFORM_BETA = 0.5


class _Cell(Frozen):
    __slots__ = _fields = ("family", "pair", "kl", "dinf", "n_modes")

    def __init__(self, family: str, pair: PairSpec, kl: float, dinf: float,
                 n_modes: int | None = None) -> None:
        self._store(family, pair, kl, dinf, n_modes)


def mixture_pair(n_modes: int, dinf: float) -> PairSpec:
    """Equal-mass disjoint uniform components spread inside Uniform(0.5, 1).

    Every component has density ratio e^dinf, so KL = D-infinity = dinf
    no matter how many modes there are; only the search geometry changes.
    """
    if n_modes < 1:
        raise DomainError(f"need at least one mode, got {n_modes}")
    if dinf <= 0.0:
        raise DomainError(f"mode sweep needs dinf > 0, got {dinf}")
    length = math.exp(-dinf) / n_modes
    comps = []
    for i in range(n_modes):
        center = (i + 0.5) / n_modes
        comps.append(
            MixtureComponent(1.0 / n_modes, center - length / 2, center + length / 2)
        )
    return PairSpec(UniformMixture(tuple(comps)), Uniform(0.5, 1.0))


def _cells_for(config: ExperimentConfig) -> list[_Cell]:
    cells: list[_Cell] = []
    for kl, dinf in config.gaussian_cells:
        mean, variance = gaussian_from_kl_dinf(kl, dinf)
        pair = PairSpec(Gaussian(mean, variance), Gaussian(0.0, 1.0))
        cells.append(_Cell("gaussian", pair, kl, dinf))
    for kl in config.uniform_cells:
        target = uniform_from_mean_kl(
            _UNIFORM_PRIOR.center, _UNIFORM_PRIOR.width, kl, _UNIFORM_BETA
        )
        pair = PairSpec(target, _UNIFORM_PRIOR)
        cells.append(_Cell("uniform", pair, kl, kl))
    for n_modes, dinf in config.mixture_cells:
        pair = mixture_pair(n_modes, dinf)
        cells.append(_Cell("uniform_mixture", pair, dinf, dinf, n_modes))
    return cells


# -- the bias score -------------------------------------------------------------


def pit_kl(target: Distribution1D, xs: Sequence[float], bins: int) -> float:
    """How far the batch ``xs`` is from ``target``, in nats, scored through
    the probability integral transform: ``target.cdf(x)`` is uniform when x
    follows the target. The values fall into ``bins`` equal bins (1.0 in
    the last), and the score is the plug-in KL of the binned law against a
    uniform, less the Miller-Madow correction (bins - 1) / (2n). It reads
    about 0 on exact samples and is not sign-constrained; 2n times it plus
    bins - 1 is the G statistic, chi-square with bins - 1 degrees of
    freedom under the target."""
    n = len(xs)
    if n < 1 or bins < 1:
        raise DomainError(f"pit_kl needs a sample and a bin, got {n} and {bins}")
    counts = [0] * bins
    for x in xs:
        counts[min(int(target.cdf(x) * bins), bins - 1)] += 1
    return math.fsum(c * math.log(c * bins / n) for c in counts if c) / n - (bins - 1) / (2 * n)


# -- grids --------------------------------------------------------------------


def _trial_seed(config_seed: int, cell_idx: int, alg_idx: int, trial: int) -> int:
    return derive_seed(derive_seed(config_seed, (cell_idx << 8) | alg_idx), trial)


def _row(cell: _Cell, algorithm: str, trial: int, t: int | None = None,
         **measured) -> ResultRow:
    """The row of one trial of ``algorithm`` at ``cell`` (and extra bits ``t``)
    with its ``measured`` fields: steps, depth and payload bits, or an error."""
    return ResultRow(algorithm, cell.family, cell.kl, cell.dinf, cell.n_modes, t, trial,
                     **measured)


def _check_runs_a_coder(config: ExperimentConfig, fixed_width: bool) -> None:
    """Refuse a config under which a grid would run no coder: the bias grid
    runs the fixed-width coders alone, the runtime grids the exact ones."""
    names = [v.value for v, spec in CODERS.items() if spec.fixed_width == fixed_width]
    if not set(names) & set(config.algorithms):
        raise DomainError(f"config names none of {names}, so the grid would run no coder")


def run_runtime_grid(config: ExperimentConfig) -> list[ResultRow]:
    """One exact encode per (cell, algorithm, trial) with step counting.

    A coder is skipped above its tractable D-infinity (``max_dinf`` in its
    table entry: 7 nats for PFR); per-trial failures become rows carrying
    an error flag. A config that names no exact coder raises DomainError.
    """
    _check_runs_a_coder(config, fixed_width=False)
    rows: list[ResultRow] = []
    cells = _cells_for(config)
    for ci, cell in enumerate(cells):
        for ai, alg in enumerate(config.algorithms):
            spec = CODERS[Variant(alg)]
            if spec.fixed_width or cell.dinf > spec.max_dinf:
                continue  # fixed-width coders have no exact-runtime cell
            for trial in range(config.trials):
                seed = _trial_seed(config.seed, ci, ai, trial)
                try:
                    _, _, st = spec.encode(cell.pair, seed, None, config.max_steps)
                    rows.append(_row(cell, alg, trial, steps=st.steps, depth=st.returned_depth,
                                     payload_bits=st.payload_bits))
                except RecError as exc:
                    rows.append(_row(cell, alg, trial, error=str(exc)))
    return rows


def run_mode_sweep(config: ExperimentConfig) -> list[ResultRow]:
    """Runtime grid over mixture cells that all sit at the same D-infinity.
    A config with a gaussian or uniform cell, or cells at two D-infinities,
    raises DomainError."""
    _check_runs_a_coder(config, fixed_width=False)
    if config.gaussian_cells or config.uniform_cells:
        raise DomainError("the mode sweep runs mixture cells alone, not gaussian or uniform ones")
    dinfs = {round(c.pair.analytic_dinf(), 9) for c in _cells_for(config)}
    if len(dinfs) != 1:
        raise DomainError(f"mode sweep cells must share one dinf, got {sorted(dinfs)}")
    return run_runtime_grid(config)


def run_bias_grid(config: ExperimentConfig) -> list[ResultRow]:
    """Bias of the depth-limited coders versus the extra-bit slack.

    Per (cell, t, trial): encode a batch with DAD* and with MRC at the
    shared budget ceil(KL/ln2) + t, then score each batch against the
    target's CDF with ``pit_kl`` in isqrt(batch) bins. One row per (cell,
    algorithm, t, trial) carrying the batch's mean steps and its score in
    ``kl_bias_estimate``. A config that names neither DAD* nor MRC raises
    DomainError.

    Common random numbers: within a trial, both coders at every budget
    reuse the same per-symbol seeds (their keyed streams are disjoint by
    slot), so bias comparisons across algorithms and across t are paired
    rather than compounding independent noise.
    """
    _check_runs_a_coder(config, fixed_width=True)
    rows: list[ResultRow] = []
    cells = _cells_for(config)
    bins = math.isqrt(config.batch)
    for ci, cell in enumerate(cells):
        base_bits = math.ceil(cell.kl / _LN2)
        for trial in range(config.trials):
            enc_base = _trial_seed(config.seed, ci, 0xE0, trial)
            for t in config.extra_bits:
                budget = max(1, base_bits + t)
                for variant, spec in CODERS.items():
                    if not spec.fixed_width or variant.value not in config.algorithms:
                        continue
                    try:
                        encoded: list[float] = []
                        steps = 0
                        for b in range(config.batch):
                            seed = derive_seed(enc_base, b)
                            _, x, st = spec.encode(cell.pair, seed, budget, config.max_steps)
                            encoded.append(x)
                            steps += st.steps
                        bias = pit_kl(cell.pair.target, encoded, bins)
                        rows.append(_row(cell, variant.value, trial, t, steps=steps / config.batch,
                                         depth=budget, payload_bits=budget,
                                         kl_bias_estimate=bias))
                    except RecError as exc:
                        rows.append(_row(cell, variant.value, trial, t, error=str(exc)))
    return rows


# -- shrinkage verification ----------------------------------------------------


class ShrinkageReport(Frozen):
    __slots__ = _fields = ("kind", "depths", "mean_mass", "bounds", "passed")

    def __init__(self, kind: PartitionKind, depths: tuple[int, ...],
                 mean_mass: tuple[float, ...], bounds: tuple[float, ...], passed: bool) -> None:
        self._store(kind, depths, mean_mass, bounds, passed)


def _no_bound(low: float, high: float) -> float:
    return 0.0  # a shrinkage descent has no target, so its children need no ratio bound


def verify_shrinkage(
    kind: PartitionKind,
    depth_max: int = 10,
    trials: int = 2000,
    seed: int = 20260817,
) -> ShrinkageReport:
    """Monte-Carlo check of region-mass shrinkage along worst-case descents.

    Descends into the larger-mass child at every level (the binding case
    for the 3/4 rate of sample splitting) and compares the per-depth mean
    mass against (3/4)^(d-1) + 3 SE; the dyadic rule must halve exactly,
    so its masses are compared to 2^-(d-1) directly. A ``depth_max``
    outside 1..MAX_DEPTH, fewer than one trial or the global bound, which
    never cuts a region, is refused up front.
    """
    if kind is PartitionKind.GLOBAL_BOUND:
        raise DomainError("the global-bound race has no partition to shrink")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if not 1 <= depth_max <= MAX_DEPTH:
        raise DomainError(f"depth_max must be 1 to {MAX_DEPTH}, got {depth_max}")
    proposal = Gaussian(0.0, 1.0)
    masses = [[1.0] * trials for _ in range(depth_max)]  # masses[d - 1][trial]: mass at depth d
    for trial in range(trials):
        trial_seed = derive_seed(seed, trial)
        index, low, high, ulow, uhigh = 1, -math.inf, math.inf, 0.0, 1.0
        for d in range(1, depth_max):
            # the node's sample, drawn as a decoder draws it: shrinkage reads no Gumbel
            u = seed_uniform(trial_seed, index, DrawSlot.SAMPLE, 0)
            x = sample_restricted_u(proposal, ulow, uhigh, u)
            children = expand(kind, proposal, _no_bound, x, index, low, high, ulow, uhigh)
            if not children:
                break
            index, low, high, ulow, uhigh, _ = max(children, key=lambda c: c[4] - c[3])
            masses[d][trial] = uhigh - ulow
    depths = tuple(range(1, depth_max + 1))
    mean_mass = tuple(math.fsum(col) / trials for col in masses)
    if kind is PartitionKind.DYADIC:
        bounds = tuple(2.0 ** -(d - 1) for d in depths)
        passed = all(m == bounds[d - 1] for d in depths for m in masses[d - 1])
    else:
        from statistics import stdev

        bound_list = []
        passed = True
        for d in depths:
            se = stdev(masses[d - 1]) / math.sqrt(trials) if trials > 1 else 0.0
            bound = 0.75 ** (d - 1) + 3.0 * se
            bound_list.append(bound)
            if mean_mass[d - 1] > bound:
                passed = False
        bounds = tuple(bound_list)
    return ShrinkageReport(kind, depths, mean_mass, bounds, passed)


# -- CSV ------------------------------------------------------------------------


def _row_order(r: ResultRow) -> tuple:
    """The order of the CSV rows, and so of the summary groups: numbers in
    numeric order, an unset mode count or extra-bit count first."""
    return (r.algorithm, r.family, r.d_kl_nats, r.d_inf_nats,
            -1 if r.n_modes is None else r.n_modes,
            -1 if r.t_extra_bits is None else r.t_extra_bits, r.trial_index)


def rows_to_csv(rows: Iterable[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in sorted(rows, key=_row_order):
        writer.writerow(row.as_record())
    return buf.getvalue()


def _quantile(xs: Sequence[float], q: float) -> float:
    """The q-quantile of the sorted ``xs``, equal to ``np.quantile(xs, q)``
    bit for bit: numpy's default linear method, with its ``_lerp``
    interpolating from the nearer neighbour."""
    pos = (len(xs) - 1) * q
    i = int(pos)
    if i >= len(xs) - 1:
        return xs[-1]
    t = pos - i
    diff = xs[i + 1] - xs[i]
    return xs[i + 1] - diff * (1 - t) if t >= 0.5 else xs[i] + diff * t


def summarize_rows(rows: Iterable[ResultRow]) -> list[dict]:
    """Per-cell mean and quartiles of steps / payload bits (and bias when
    present), mirroring how the grids are usually plotted. The groups come
    in the CSV's order."""
    groups: dict[tuple, list[ResultRow]] = {}
    for row in sorted(rows, key=_row_order):
        if row.error is not None:
            continue
        key = (row.algorithm, row.family, row.d_kl_nats, row.d_inf_nats,
               row.n_modes, row.t_extra_bits)
        groups.setdefault(key, []).append(row)
    out = []
    for key, rows_g in groups.items():
        steps = sorted(float(r.steps) for r in rows_g)
        entry = {
            "algorithm": key[0],
            "family": key[1],
            "d_kl_nats": key[2],
            "d_inf_nats": key[3],
            "n_modes": key[4],
            "t_extra_bits": key[5],
            "trials": len(rows_g),
            "steps_mean": math.fsum(steps) / len(steps),
            "steps_q1": _quantile(steps, 0.25),
            "steps_median": _quantile(steps, 0.5),
            "steps_q3": _quantile(steps, 0.75),
        }
        bits = [r.payload_bits for r in rows_g if r.payload_bits is not None]
        if bits:
            entry["payload_bits_mean"] = math.fsum(bits) / len(bits)
        biases = [r.kl_bias_estimate for r in rows_g if r.kl_bias_estimate is not None]
        if biases:
            from statistics import stdev

            entry["bias_mean"] = math.fsum(biases) / len(biases)
            entry["bias_se"] = stdev(biases) / math.sqrt(len(biases)) if len(biases) > 1 else 0.0
        out.append(entry)
    return out
