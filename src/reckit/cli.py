"""Command line front end.

Subcommands:

* ``encode`` / ``decode``: run the coders over a JSON model file, reading
  and writing binary message files plus a text sample file (one
  ``float.hex() repr(float)`` pair per line, so round trips can be
  compared byte for byte). Symbol i of a multi-symbol message uses the
  stream derived from the seed by its index.
* ``bench-runtime`` / ``bench-bias`` / ``bench-modes``: read an
  experiment config JSON and write the CSV to ``--out``.
* ``verify``: run Monte-Carlo property suites (region-mass shrinkage, and
  round trips through ``coders.encode``); exits 1 on violation.
* ``isokl``: solve the constant-divergence parameterizations and print
  the resulting pair as JSON; a flag the chosen recipe does not read is
  refused.

Usage problems (bad flags, malformed config or model files, unreadable
messages) exit with status 2; a failed verification exits with 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from .bitstream import (
    BitReader,
    MODE_BLOCK,
    MODE_EXACT,
    MessageFrame,
    read_message,
    write_message,
)
from .coders import CODERS, MAX_STEPS, Variant, decode, encode
from .distributions import (
    Distribution1D,
    Gaussian,
    PairSpec,
    Uniform,
    distribution_from_dict,
)
from .errors import DomainError, RecError
from .isokl import (
    BlockCodecConfig,
    decode_block_vector,
    encode_block_vector,
    gaussian_from_kl_dinf,
    gaussian_from_mean_kl,
    load_block_model,
    uniform_from_mean_kl,
)
from .randomness import absorb, derive_seed, seed_state
from .tree import PartitionKind


def _coder_names(fixed_width: bool) -> list[str]:
    return sorted(v.value for v, spec in CODERS.items() if spec.fixed_width == fixed_width)


def _load_object(path: str) -> dict:
    """The object a model or config file holds; the library parses it."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise DomainError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _load_pair(path: str) -> PairSpec:
    data = _load_object(path)
    if "target" in data and "proposal" in data:
        return PairSpec.from_dict(data)
    raise DomainError(f"{path}: encoding needs a pair model (target and proposal)")


def _load_proposal(path: str) -> Distribution1D:
    """Decoding never touches the target: take a bare distribution or the
    proposal of a pair."""
    data = _load_object(path)
    if "proposal" in data:
        return distribution_from_dict(data["proposal"])
    if "family" in data:
        return distribution_from_dict(data)
    raise DomainError(f"{path}: expected a pair or a single distribution object")


def _samples_text(xs: Sequence[float]) -> str:
    return "".join(f"{x.hex()} {x!r}\n" for x in xs)


def _write_samples(path: str, xs: Sequence[float]) -> None:
    with open(path, "w") as fh:
        fh.write(_samples_text(xs))


def _block_config(extra_bits: int | None) -> BlockCodecConfig:
    """The block codec's config; ``--extra-bits`` unset keeps its default of 2."""
    return BlockCodecConfig() if extra_bits is None else BlockCodecConfig(extra_bits)


def _cmd_encode(args: argparse.Namespace) -> int:
    if args.block_model:
        given = [flag for flag, value in (("--exact", args.exact), ("--limited", args.limited),
                                          ("--budget", args.budget), ("--count", args.count))
                 if value is not None]
        if given:  # a block model names its coordinates and their budgets itself
            raise DomainError(f"--block-model does not take {', '.join(given)}")
        blocks, permutation = load_block_model(_load_object(args.block_model))
        config = _block_config(args.extra_bits)
        data = encode_block_vector(blocks, config, args.seed)
        with open(args.out, "wb") as fh:
            fh.write(data)
        if args.samples:
            ordered = _file_order(
                decode_block_vector(blocks, config, data, args.seed), permutation
            )
            _write_samples(args.samples, ordered)
        print(f"wrote {len(data)} bytes ({sum(len(b) for b in blocks)} coordinates)")
        return 0

    if args.budget is not None and not args.limited:
        raise DomainError("--budget goes only with --limited")
    pair = _load_pair(args.model)
    name = args.exact or args.limited
    if name is None:
        raise DomainError("encode needs --exact or --limited (or --block-model)")
    if args.limited and args.budget is None:
        raise DomainError("--limited needs --budget")
    count = 1 if args.count is None else args.count
    if count < 0:
        raise DomainError(f"--count must be >= 0, got {count}")
    variant = Variant(name)
    spec = CODERS[variant]
    codes, samples = [], []
    stream = seed_state(args.seed)  # symbol i draws from derive_seed(seed, i)
    for i in range(count):
        code, x, _ = spec.encode(pair, absorb(stream, i), args.budget, MAX_STEPS)
        codes.append(code)
        samples.append(x)
    # an exact coder has no --budget, and its frame no budget
    frame = MessageFrame(MODE_BLOCK if spec.fixed_width else MODE_EXACT, variant, tuple(codes),
                         args.budget)
    data = write_message(frame).getvalue()
    with open(args.out, "wb") as fh:
        fh.write(data)
    if args.samples:
        _write_samples(args.samples, samples)
    print(f"wrote {len(data)} bytes ({len(samples)} symbols)")
    return 0


def _file_order(samples: Sequence[float], permutation: Sequence[int]) -> list[float]:
    out = [0.0] * len(samples)
    for block_major, file_pos in enumerate(permutation):
        out[file_pos] = samples[block_major]
    return out


def _cmd_decode(args: argparse.Namespace) -> int:
    with open(args.infile, "rb") as fh:
        data = fh.read()
    if args.block_model:
        blocks, permutation = load_block_model(_load_object(args.block_model))
        config = _block_config(args.extra_bits)
        samples = _file_order(
            decode_block_vector(blocks, config, data, args.seed), permutation
        )
    else:
        proposal = _load_proposal(args.model)
        frame = read_message(BitReader(data))
        stream = seed_state(args.seed)
        samples = [decode(proposal, code, absorb(stream, i)) for i, code in enumerate(frame.codes)]
    _write_samples(args.samples, samples)
    print(f"decoded {len(samples)} symbols")
    return 0


def _run_bench(args: argparse.Namespace, runner: str) -> int:
    from . import bench  # the codec commands never load the harness

    config = bench.ExperimentConfig.from_dict(_load_object(args.config))
    rows = getattr(bench, runner)(config)
    with open(args.out, "w", newline="") as fh:
        fh.write(bench.rows_to_csv(rows))
    errors = sum(1 for r in rows if r.error is not None)
    print(f"wrote {len(rows)} rows to {args.out}" + (f" ({errors} errored)" if errors else ""))
    for entry in bench.summarize_rows(rows):
        cell = "{algorithm:>4} {family:<15} kl={d_kl_nats:<8g} dinf={d_inf_nats:<8g}".format(
            **entry
        )
        extras = ""
        if entry["n_modes"] is not None:
            extras += f" modes={entry['n_modes']}"
        if entry["t_extra_bits"] is not None:
            extras += f" t={entry['t_extra_bits']}"
        stats = " steps mean={steps_mean:.2f} q1={steps_q1:g} med={steps_median:g} q3={steps_q3:g}".format(
            **entry
        )
        if "bias_mean" in entry:
            stats += f" bias={entry['bias_mean']:+.4f}±{entry['bias_se']:.4f}"
        print(cell + extras + stats)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import bench

    failures = 0
    if args.suite in ("shrinkage", "all"):
        for kind in (PartitionKind.SAMPLE_SPLIT, PartitionKind.DYADIC):
            report = bench.verify_shrinkage(kind, args.depth_max, args.trials, args.seed)
            status = "ok" if report.passed else "VIOLATED"
            print(f"shrinkage {kind.value}: {status}")
            for d, mass, bound in zip(report.depths, report.mean_mass, report.bounds):
                print(f"  depth {d:>2}: mean mass {mass:.6f}  bound {bound:.6f}")
            if not report.passed:
                failures += 1
    if args.suite in ("roundtrip", "all"):
        failures += _verify_roundtrip(args.trials, args.seed)
    return 1 if failures else 0


def _verify_roundtrip(trials: int, seed: int) -> int:
    if trials < 1:
        raise DomainError("trials must be >= 1")
    mean, variance = gaussian_from_kl_dinf(1.0, 2.0)
    pair = PairSpec(Gaussian(mean, variance), Gaussian(0.0, 1.0))
    bad = 0
    for i in range(trials):
        s = derive_seed(seed, i)
        for variant, spec in CODERS.items():
            code, x, _ = encode(pair, variant, s, 8 if spec.fixed_width else None, MAX_STEPS)
            if decode(pair.proposal, code, s) != x:
                print(f"roundtrip {variant.value}: MISMATCH at trial {i}")
                bad += 1
    print(f"roundtrip: {'ok' if bad == 0 else 'VIOLATED'} ({trials} seeds x {len(CODERS)} coders)")
    return 1 if bad else 0


# The flags each isokl recipe reads (all but --beta, which defaults to 0,
# are required); a recipe refuses the others' flags
_ISOKL_RECIPES = {
    "--kl/--dinf": ("kl", "dinf"),
    "--family gaussian": ("prior_mean", "prior_std", "target_mean", "kappa"),
    "--family uniform": ("prior_center", "prior_width", "kappa", "beta"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _cmd_isokl(args: argparse.Namespace) -> int:
    joint = args.kl is not None or args.dinf is not None
    recipe = "--kl/--dinf" if joint else f"--family {args.family}"
    reads = _ISOKL_RECIPES[recipe]
    given = [_flag(n) for n in dict.fromkeys(sum(_ISOKL_RECIPES.values(), ()))
             if n not in reads and getattr(args, n) is not None]
    if joint and args.family != "gaussian":  # the joint inversion builds a gaussian pair
        given.insert(0, f"--family {args.family}")
    if given:
        raise DomainError(f"{recipe} does not take {', '.join(given)}")
    missing = [_flag(n) for n in reads if n != "beta" and getattr(args, n) is None]
    if missing:
        raise DomainError(f"{recipe} needs {', '.join(missing)}")
    if joint:
        mean, variance = gaussian_from_kl_dinf(args.kl, args.dinf)
        pair = PairSpec(Gaussian(mean, variance), Gaussian(0.0, 1.0))
    elif args.family == "uniform":
        target = uniform_from_mean_kl(
            args.prior_center, args.prior_width, args.kappa,
            0.0 if args.beta is None else args.beta,
        )
        pair = PairSpec(target, Uniform(args.prior_center, args.prior_width))
    else:
        variance = gaussian_from_mean_kl(
            args.prior_mean, args.prior_std, args.target_mean, args.kappa
        )
        pair = PairSpec(
            Gaussian(args.target_mean, variance),
            Gaussian(args.prior_mean, args.prior_std**2),
        )
    payload = pair.to_dict()
    payload["kl_nats"] = pair.analytic_kl()
    dinf = pair.analytic_dinf()
    payload["dinf_nats"] = dinf if math.isfinite(dinf) else "inf"
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reckit",
        description="Relative entropy coding over 1-D continuous distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode target samples into a message file")
    model = enc.add_mutually_exclusive_group(required=True)
    model.add_argument("--model", help="pair model JSON (target + proposal)")
    model.add_argument("--block-model", help="blocked coordinate model JSON")
    enc.add_argument("--seed", type=int, required=True, help="shared randomness seed")
    coder = enc.add_mutually_exclusive_group()
    coder.add_argument("--exact", choices=_coder_names(fixed_width=False), help="exact coder")
    coder.add_argument("--limited", choices=_coder_names(fixed_width=True), help="depth-limited coder")
    enc.add_argument("--budget", type=int, help="bit budget for --limited")
    enc.add_argument("--count", type=int, help="symbols to encode (default 1)")
    enc.add_argument("--extra-bits", type=int,
                     help="block-model slack bits over ceil(kappa/ln 2) (default 2)")
    enc.add_argument("--out", required=True, help="binary message output path")
    enc.add_argument("--samples", help="also write the encoded samples here")
    enc.set_defaults(func=_cmd_encode)

    dec = sub.add_parser("decode", help="decode a message file back to samples")
    model = dec.add_mutually_exclusive_group(required=True)
    model.add_argument("--model", help="pair or proposal model JSON")
    model.add_argument("--block-model", help="blocked coordinate model JSON")
    dec.add_argument("--seed", type=int, required=True)
    dec.add_argument("--in", dest="infile", required=True, help="binary message path")
    dec.add_argument("--extra-bits", type=int, help="as for encode (default 2)")
    dec.add_argument("--samples", required=True, help="decoded sample output path")
    dec.set_defaults(func=_cmd_decode)

    for name, runner, desc in (
        ("bench-runtime", "run_runtime_grid", "steps/codelength grid"),
        ("bench-bias", "run_bias_grid", "bias vs extra-bit slack grid"),
        ("bench-modes", "run_mode_sweep", "steps vs mode count sweep"),
    ):
        grid = sub.add_parser(name, help=desc)
        grid.add_argument("--config", required=True, help="experiment config JSON")
        grid.add_argument("--out", required=True, help="CSV output path")
        grid.set_defaults(func=lambda a, r=runner: _run_bench(a, r))

    ver = sub.add_parser("verify", help="run Monte-Carlo property suites")
    ver.add_argument("--suite", choices=("shrinkage", "roundtrip", "all"),
                     default="shrinkage")
    ver.add_argument("--trials", type=int, default=2000)
    ver.add_argument("--depth-max", type=int, default=10)
    ver.add_argument("--seed", type=int, default=20260817)
    ver.set_defaults(func=_cmd_verify)

    iso = sub.add_parser(
        "isokl", help="solve constant-divergence parameterizations to model JSON"
    )
    iso.add_argument("--family", choices=("gaussian", "uniform"), default="gaussian")
    iso.add_argument("--kl", type=float, help="KL divergence in nats (with --dinf)")
    iso.add_argument("--dinf", type=float, help="ratio supremum in nats (with --kl)")
    iso.add_argument("--prior-mean", type=float)
    iso.add_argument("--prior-std", type=float)
    iso.add_argument("--target-mean", type=float)
    iso.add_argument("--prior-center", type=float)
    iso.add_argument("--prior-width", type=float)
    iso.add_argument("--kappa", type=float, help="KL divergence in nats")
    iso.add_argument("--beta", type=float,
                     help="where in the slack the uniform target sits (default 0)")
    iso.add_argument("--out", help="write JSON here instead of stdout")
    iso.set_defaults(func=_cmd_isokl)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors with code 2
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "extra_bits", None) is not None and not args.block_model:  # encode, decode
        print("error: --extra-bits goes only with --block-model", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (RecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
