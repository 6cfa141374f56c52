"""Benchmark of reckit's coders, run from a source checkout.

    python3 benchmarks/run.py --workload exact_stream --seed 1 --seconds 20 --trace 0

Workloads (see design.json for why each was chosen and the layers it
loads): ``exact_stream``, ``block_codec`` and ``mrc_select``. Each is a
single-threaded closed loop with one caller: the next call starts when
the previous one returns.

``--trace 0`` measures the end-to-end metrics: repeated encode + decode
passes over the seed's inputs until they have taken ``--seconds``, then
fresh-interpreter set-up probes. Every message is
timed between two runs of a fixed gauge loop, at most 50 ms apart, and
scaled to nominal machine speed by them; each message and each call
takes the median of its scaled times over the passes, so that the slow
bursts and phases caused by other tenants of a shared machine drop
out. ``--trace 1`` runs untraced passes, then one pass with every
layer's entry points wrapped, and reports the per-layer metrics (raw,
per symbol); it writes the spans to ``benchmarks/out``.

Every run first re-codes the golden inputs (default seed, small scale)
and compares them with ``golden.json``: a sample or message that moved
fails the run. Every pass is checked bit for bit: each decoded sample
must equal the encoded one by ``float.hex``, and every pass must repeat
the first one exactly. The counts that must repeat at one seed are kept
in ``benchmarks/out/counts.json`` and compared across runs.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. ``attempted`` and ``failed``
count the symbols of the seed's inputs and those refused or decoded
wrongly; every pass repeats them exactly, so they do not depend on how
many passes fit in ``--seconds``. The exit status is 0 for a
correct run, 1 when a check failed and 2 when the benchmark could not
start (for example when ``src/reckit`` is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

# One caller on one thread: numpy, which reckit imports, would otherwise
# start BLAS threads that compete with it for the machine's CPUs. Set
# before reckit is imported; the set-up and command-line probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from gauge import NOMINAL_NS  # noqa: E402  (imports nothing from reckit)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

SETUP_REPEATS = 9  # fresh-interpreter set-ups per run; setup_s is their median
PROBE_REPEATS = 3  # import / cold-start probes per traced run
UNTRACED_PASSES = 3  # untraced passes a traced run compares against
GOLDEN_SCALE = 0.1
PROBE_TIMEOUT_S = 120
# _REF_PROBE's typical fastest time on a 2-vCPU Intel Xeon cloud VM under
# CPython 3.11.7 with numpy 1.x and scipy 1.x
REF_NOMINAL_S = 0.35

END_TO_END_UNITS = {
    "encode_sym_s": "symbols/s",
    "decode_sym_s": "symbols/s",
    "encode_call_us_p50": "us",
    "encode_call_us_p99": "us",
    "decode_call_us_p50": "us",
    "decode_call_us_p99": "us",
    "bits_per_symbol": "bits",
    "ok_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
FAILURE_CLASSES = (
    "AbsoluteContinuityError",
    "BudgetExhaustedError",
    "DegenerateRegionError",
    "DepthExceededError",
    "DomainError",
    "InfeasibleParameterError",
    "InvalidCodeError",
    "MalformedMessageError",
    "UnboundedRatioError",
    "mismatch",
)
SPAN_CALLS = (
    "randomness.keyed_uniform", "randomness.trunc_gumbel", "randomness.derive_seed",
    "distributions.bound_M", "distributions.log_ratio", "distributions.inv_cdf",
    "distributions.cdf", "tree.expand", "bitstream.read_bits",
)
SPAN_SELF = (
    "randomness.keyed_uniform", "randomness.trunc_gumbel", "randomness.derive_seed",
    "distributions.bound_M", "distributions.log_ratio", "distributions.inv_cdf",
    "distributions.cdf", "tree.expand", "coders.encode", "coders.decode",
    "bitstream.write_message", "bitstream.read_message",
    "isokl.encode_block_vector", "isokl.decode_block_vector", "bench.loop",
)
LOOP_SPAN = "bench.loop"
# the entry points whose calls the workloads time, as spans under LOOP_SPAN
CALL_SPANS = {
    "encode": ("coders.encode", "isokl.encode_block_vector"),
    "decode": ("coders.decode", "isokl.decode_block_vector"),
}
ACCOUNTED_MIN = 0.95  # least share of the timed calls' time their spans must cover

_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), float(sys.argv[5]))
print(time.perf_counter() - t0)
"""
# a fixed reference for set-up: a fresh import of numpy and scipy.spatial,
# the bulk of reckit's own import time
_REF_PROBE = """\
import time
t0 = time.perf_counter()
import numpy, scipy.spatial
print(time.perf_counter() - t0)
"""
_IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import reckit
print(time.perf_counter() - t0)
"""


# -- statistics ----------------------------------------------------------------

def percentile(values: list[int], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def at_nominal(times, intervals, gauges) -> array:
    """Scale each time to nominal machine speed by the faster of the two
    gauge readings around the interval it fell in."""
    return array("d", (t * NOMINAL_NS / min(gauges[g], gauges[g + 1])
                       for t, g in zip(times, intervals)))


def medians(rows: list) -> list[float]:
    """Element-wise median of equally long timing rows, one row per pass."""
    return [statistics.median(col) for col in zip(*rows)]


def _probe(args: list[str], env: dict | None = None) -> float:
    out = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def setup_seconds(name: str, seed: int, scale: float) -> list[float]:
    """SETUP_REPEATS times, fresh interpreter to inputs ready (import
    reckit, build the inputs), at nominal machine speed.

    Import time is mostly unmarshalling, allocation and loading shared
    libraries, and it does not follow the gauge loop's speed. So each
    probe is scaled by the faster of the two reference probes run just
    before and just after it, which do the same kind of work.
    """
    refs = [_probe(["-c", _REF_PROBE])]
    walls = []
    for _ in range(SETUP_REPEATS):
        walls.append(_probe(["-c", _SETUP_PROBE, str(SRC), str(HERE), name, str(seed),
                             str(scale)]))
        refs.append(_probe(["-c", _REF_PROBE]))
    return [w * REF_NOMINAL_S / min(a, b) for w, a, b in zip(walls, refs, refs[1:])]


def import_seconds() -> float:
    return statistics.median(
        _probe(["-c", _IMPORT_PROBE, str(SRC)]) for _ in range(PROBE_REPEATS)
    )


def cold_start_seconds() -> float:
    """Wall time of a fresh ``python -m reckit.cli --help``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "reckit.cli", "--help"], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


# -- checks ----------------------------------------------------------------------

def golden_entry(res) -> dict:
    return {"symbols": res.records, "units": [[h, list(ids)] for h, ids in res.units]}


def compare_golden(golden: dict, current: dict) -> list[str]:
    """Problems where the current outputs differ from the golden ones.

    A symbol that coded in the golden run must decode to the same code
    and sample. A symbol the golden run refused may now code (that is a
    fix, not a change). A message whose symbols are the golden ones must
    have the golden bytes.
    """
    if len(golden["symbols"]) != len(current["symbols"]):
        return [f"golden set has {len(golden['symbols'])} symbols, run has "
                f"{len(current['symbols'])}"]
    problems = [
        f"symbol {i}: golden {g}, now {c}"
        for i, (g, c) in enumerate(zip(golden["symbols"], current["symbols"]))
        if not g.startswith("err:") and g != c
    ]
    problems += [
        f"message {k}: bytes changed ({g[0]} -> {c[0]})"
        for k, (g, c) in enumerate(zip(golden["units"], current["units"]))
        if g[1] == c[1] and g[0] != c[0]
    ]
    return problems


def check_golden(workloads, name: str) -> list[str]:
    golden = json.loads(GOLDEN.read_text())
    if name not in golden:
        return [f"golden.json has no entry for {name}"]
    res = workloads.build(name, workloads.DEFAULT_SEED, GOLDEN_SCALE).run_pass()
    return compare_golden(golden[name], golden_entry(res))


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*(SRC / "reckit").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(key: str, counts: dict) -> list[str]:
    """Compare with the counts an earlier run of the same code and seed
    recorded; record these ones."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "counts.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    earlier = store.get(key, {})
    problems = [
        f"nondeterminism: {field} is {counts[field]}, an earlier run at this seed "
        f"had {earlier[field]}"
        for field in counts
        if field in earlier and earlier[field] != counts[field]
    ]
    store[key] = {**earlier, **counts}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


# -- tracing sites ---------------------------------------------------------------

def _tally_expand(tracer, children) -> None:
    tracer.per_symbol[tracer.current_symbol]["children"] += len(children)


def _tally_encode(tracer, result) -> None:
    stats = result[2]
    c = tracer.per_symbol[tracer.current_symbol]
    c["encodes_ok"] += 1
    c["steps"] += stats.steps
    c["depth"] += stats.returned_depth
    c["payload_bits"] += stats.payload_bits


def trace_sites() -> list:
    """Every rebinding a traced pass makes, where callers look the names up."""
    from reckit import bitstream, coders, distributions, isokl, randomness, tree
    from tracing import Site

    sites = [
        Site(coders, "encode_astar", "coders.encode", _tally_encode),
        Site(coders, "encode_mrc", "coders.encode", _tally_encode),
        Site(isokl, "encode_dad", "coders.encode", _tally_encode),
        Site(coders, "decode", "coders.decode"),
        Site(isokl, "decode_dad", "coders.decode"),
        Site(coders, "expand", "tree.expand", _tally_expand),
        Site(randomness, "derive_seed", "randomness.derive_seed"),
        Site(isokl, "derive_seed", "randomness.derive_seed"),
        Site(distributions.PairSpec, "bound_M", "distributions.bound_M"),
        Site(distributions.PairSpec, "log_ratio", "distributions.log_ratio"),
        Site(bitstream, "write_message", "bitstream.write_message"),
        Site(isokl, "write_message", "bitstream.write_message"),
        Site(bitstream, "read_message", "bitstream.read_message"),
        Site(isokl, "read_message", "bitstream.read_message"),
        Site(bitstream.BitReader, "read_bits", "bitstream.read_bits"),
        Site(isokl, "encode_block_vector", "isokl.encode_block_vector"),
        Site(isokl, "decode_block_vector", "isokl.decode_block_vector"),
    ]
    for module in (tree, coders):
        sites.append(Site(module, "keyed_uniform", "randomness.keyed_uniform"))
        sites.append(Site(module, "trunc_gumbel", "randomness.trunc_gumbel"))
    for family in (distributions.Gaussian, distributions.Uniform,
                   distributions.UniformMixture):
        sites.append(Site(family, "cdf", "distributions.cdf"))
        sites.append(Site(family, "inv_cdf", "distributions.inv_cdf"))
    return sites


# -- runs ------------------------------------------------------------------------

def _line(name: str, value: float, unit: str, n: int | str) -> str:
    return f"{name:<34} {value:>14.6g} {unit:<10} (n={n})"


def end_to_end(wl, name: str, seed: int, seconds: float, scale: float):
    first = wl.run_pass()  # untimed: warms up, and every timed pass must repeat it
    # Other tenants of a shared machine slow it down in bursts and in
    # phases that can outlast a run. Each message is timed between two
    # runs of a fixed gauge loop, at most 50 ms apart, and scaled to
    # nominal speed by them; as the passes repeat the same inputs, each
    # message and each call then takes the median of its scaled times
    # over the passes. A median, not a minimum, so that the estimate does
    # not drift with the number of passes a run fits in.
    times: dict[str, list[array]] = {
        f"{kind}_{what}": [] for kind in ("encode", "decode") for what in ("unit", "call")
    }
    gauge_medians: list[float] = []
    problems: list[str] = []
    passes = 0
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        res = wl.run_pass(gauged=True)
        passes += 1
        if res.digest() != first.digest():
            problems.append(f"nondeterminism: pass {passes} differs from pass 0")
        for kind in ("encode", "decode"):
            gauges = getattr(res, f"{kind}_gauge_ns")
            for what in ("unit", "call"):
                times[f"{kind}_{what}"].append(at_nominal(
                    getattr(res, f"{kind}_{what}_ns"), getattr(res, f"{kind}_{what}_interval"),
                    gauges))
        gauge_medians.append(statistics.median(res.encode_gauge_ns + res.decode_gauge_ns))
    measured = time.perf_counter() - t_start
    setups = setup_seconds(name, seed, scale)

    med = {key: medians(rows) for key, rows in times.items()}
    enc_calls, dec_calls = med["encode_call"], med["decode_call"]
    enc_s = sum(med["encode_unit"]) / 1e9
    dec_s = sum(med["decode_unit"]) / 1e9
    n_enc = f"{len(enc_calls)} calls, median of {passes} passes"
    n_dec = f"{len(dec_calls)} calls, median of {passes} passes"
    values = {
        "encode_sym_s": (first.attempted / enc_s,
                         f"{first.attempted} symbols, median of {passes} passes"),
        "decode_sym_s": (first.decoded / dec_s,
                         f"{first.decoded} symbols, median of {passes} passes"),
        "encode_call_us_p50": (percentile(enc_calls, 50) / 1e3, n_enc),
        "encode_call_us_p99": (percentile(enc_calls, 99) / 1e3, n_enc),
        "decode_call_us_p50": (percentile(dec_calls, 50) / 1e3, n_dec),
        "decode_call_us_p99": (percentile(dec_calls, 99) / 1e3, n_dec),
        "bits_per_symbol": (first.message_bits / max(1, first.coded), first.coded),
        "failed_frac": (first.failed / first.attempted, first.attempted),
        "ok_frac": (1.0 - first.failed / first.attempted, first.attempted),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    units = {**END_TO_END_UNITS, "failed_frac": "fraction"}
    lines = [f"passes: {passes} over {first.attempted} symbols, {measured:.2f} s in passes",
             f"machine speed: gauge loop median {statistics.median(gauge_medians) / 1e3:.1f} us, "
             f"nominal {NOMINAL_NS / 1e3:.1f} us; timings below are at nominal speed"]
    lines += [_line(k, v, units[k], n) for k, (v, n) in values.items()]
    metrics = {k: {"value": values[k][0], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return first, metrics, problems, lines


def per_layer(wl, name: str):
    import tracing

    problems: list[str] = []
    untraced = [wl.run_pass() for _ in range(UNTRACED_PASSES)]
    first = untraced[0]
    problems += [
        f"nondeterminism: untraced pass {i} differs from pass 0"
        for i, p in enumerate(untraced) if p.digest() != first.digest()
    ]
    tracer = tracing.Tracer()
    with tracer.installed(trace_sites()):
        with tracer.span(LOOP_SPAN):
            traced = wl.run_pass(tracer)
    if traced.digest() != first.digest():
        problems.append("nondeterminism: the traced pass differs from the untraced ones")

    n = traced.attempted
    by_name = tracer.by_name()
    sym = tracer.per_symbol.values()
    ok = [c for c in sym if c["encodes_ok"]]
    encodes_ok = sum(c["encodes_ok"] for c in ok)
    steps = sum(c["steps"] for c in ok)
    payload_bits = sum(c["payload_bits"] for c in ok)
    children_ok = sum(c["children"] for c in ok)
    realized_ok = children_ok + encodes_ok if children_ok else 0  # one root per search
    # The spans of the timed entry points must match the calls the
    # workload timed, one for one, and the self times of those spans and
    # of every span below them must account for the calls' time. An entry
    # point that is not traced, or self times that do not add up, fail.
    calls_ns = spans_self_ns = 0
    for kind, names in CALL_SPANS.items():
        timed = getattr(traced, f"{kind}_call_ns")
        spans, self_ns = tracer.calls_under(0, names)
        if spans != len(timed):
            problems.append(f"{spans} traced {kind} calls, {len(timed)} timed")
        calls_ns += sum(timed)
        spans_self_ns += self_ns
    untraced_wall = statistics.median(p.encode_s + p.decode_s for p in untraced)

    values: dict[str, tuple[float, str]] = {}
    for span in SPAN_CALLS:
        values[f"{span}.calls"] = (by_name.get(span, (0, 0))[0] / n, "count")
    for span in SPAN_SELF:
        values[f"{span}.self_us"] = (by_name.get(span, (0, 0))[1] / n / 1e3, "us")
    values.update({
        "tree.children": (sum(c["children"] for c in sym) / n, "count"),
        "coders.steps": (steps / encodes_ok if encodes_ok else 0.0, "count"),
        "coders.depth": (sum(c["depth"] for c in ok) / encodes_ok if encodes_ok else 0.0,
                         "count"),
        "coders.pop_ratio": (steps / realized_ok if realized_ok else 0.0, "ratio"),
        "bitstream.overhead_frac": (
            1.0 - payload_bits / traced.message_bits if traced.message_bits else 0.0,
            "fraction"),
        "isokl.block_build_s": (getattr(wl, "block_build_s", 0.0), "s"),
        "cli.import_s": (import_seconds(), "s"),
        "cli.cold_start_s": (cold_start_seconds(), "s"),
        "trace_overhead_frac": ((traced.encode_s + traced.decode_s) / untraced_wall - 1.0,
                                "fraction"),
        "trace.wrapper_us": (tracing.calibrate() / 1e3, "us"),
        "trace.accounted_frac": (spans_self_ns / calls_ns, "fraction"),
    })
    for cls in FAILURE_CLASSES:
        values[f"coders.failed.{cls}"] = (float(first.failures.get(cls, 0)), "count")
    if not ACCOUNTED_MIN <= values["trace.accounted_frac"][0] <= 1.0:
        problems.append(f"the traced layers' self times account for "
                        f"{values['trace.accounted_frac'][0]:.4f} of the timed calls")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}.csv.gz"
    tracer.write(spans_path)
    lines = [f"traced pass: {len(tracer)} spans over {n} symbols, written to "
             f"{spans_path.relative_to(ROOT)}; per-layer values are per symbol"]
    lines += [_line(k, v, u, n) for k, (v, u) in values.items()]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return first, metrics, problems, lines


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Run one workload; return (result JSON object, report lines).

    ``scale`` shrinks the inputs (the tests use a small one); the
    benchmark's figures are measured at 1.
    """
    import workloads

    if Path(workloads.reckit.__file__).resolve().parent != (SRC / "reckit").resolve():
        raise RuntimeError(f"imported reckit from {workloads.reckit.__file__}, not {SRC}")
    wl = workloads.build(name, seed, scale)
    problems = [f"golden: {p}" for p in check_golden(workloads, name)]
    if trace:
        first, metrics, more, lines = per_layer(wl, name)
    else:
        first, metrics, more, lines = end_to_end(wl, name, seed, seconds, scale)
    problems += more
    if first.roundtrip_failed:
        problems.append(f"{first.roundtrip_failed} coded symbols did not decode to "
                        "their encoded sample")
    counts = first.counts()
    if trace:  # every per-layer count repeats exactly too
        counts.update((k, m["value"]) for k, m in metrics.items()
                      if m["unit"] in ("count", "ratio"))
    problems += check_repeat(f"{source_hash()}:{name}:{seed}:{scale}", counts)
    failures = ", ".join(f"{k}={v}" for k, v in sorted(first.failures.items())) or "none"
    lines = [
        f"workload {name} seed {seed} trace {int(trace)}",
        f"golden: {'ok' if not any(p.startswith('golden') for p in problems) else 'CHANGED'}",
        f"digest {first.digest()[:16]}  failures per pass: {failures}",
        *lines,
        *(f"PROBLEM {p}" for p in problems),
    ]
    result = {"correct": not problems, "attempted": first.attempted, "failed": first.failed,
              "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reckit" / "__init__.py").is_file():
        print(f"error: no reckit sources under {SRC}", file=sys.stderr)
        return 2
    if not GOLDEN.is_file():
        print(f"error: {GOLDEN} is missing", file=sys.stderr)
        return 2
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
