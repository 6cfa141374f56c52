"""Inputs and timed passes of the reckit benchmark workloads.

A workload is a fixed list of messages generated from a seed. Symbol i
(a coded coordinate) draws its shared randomness from
``derive_seed(seed, i)``, as the command line does. One pass encodes
every message (the encode phase, framing included) and then decodes
every message (the decode phase, ``read_message`` included); each call
into a public encode or decode entry point is timed on its own.

Every workload is stratified: the share of each (coder, cell) or
(budget) stratum is fixed and the seed moves only the randomness and
the order of the messages, so figures from different seeds measure the
same mix of work. The one exception is the tail pair of
``exact_stream``, whose symbols the coders refuse at random at this
point: its randomness is pinned to TAIL_SEED, so every seed carries the
same refusals and runs at different seeds agree on what failed.

This module imports reckit at import time on purpose: the benchmark's
set-up time is measured from a fresh interpreter importing this module
to ``build`` returning.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field

import reckit  # noqa: F401  set-up time includes the package import
from reckit import bitstream, coders, isokl, randomness
from reckit.bench import mixture_pair
from reckit.distributions import Gaussian, PairSpec
from reckit.errors import RecError
from reckit.tree import PartitionKind

from gauge import gauge_ns

DEFAULT_SEED = 20260817
NAMES = ("exact_stream", "block_codec", "mrc_select")
MAX_STEPS = 20_000  # every exact encode has a finite search budget
FRAME_SIZE = 10  # symbols per exact or MRC frame
GAUGE_EVERY_NS = 50_000_000  # a gauged pass gauges between messages this often
# Symbol j of the pinned strata draws from derive_seed(TAIL_SEED, j), whatever the seed.
TAIL_SEED = 0x7A11

_KINDS = {
    "as": (PartitionKind.SAMPLE_SPLIT, coders.Variant.AS_STAR),
    "ad": (PartitionKind.DYADIC, coders.Variant.AD_STAR),
    "pfr": (PartitionKind.GLOBAL_BOUND, coders.Variant.PFR),
}
_STD_NORMAL = Gaussian(0.0, 1.0)
_KAPPAS = (0.5, 1.0, 2.0, 3.0, 4.0)
_BLOCKS_PER_VECTOR = 3
_COORDS_PER_BLOCK = 2
_BLOCK_CONFIG = isokl.BlockCodecConfig(extra_bits=2)


def _kl_dinf_cell(kl: float, dinf: float) -> PairSpec:
    mean, variance = isokl.gaussian_from_kl_dinf(kl, dinf)
    return PairSpec(Gaussian(mean, variance), _STD_NORMAL)


def _gaussian_cells() -> tuple[PairSpec, ...]:
    """(KL, D-inf) = (0.9, 2), (2.1, 4) and (3.0, 6) nats under N(0, 1)."""
    return _kl_dinf_cell(0.9, 2.0), _kl_dinf_cell(2.1, 4.0), _kl_dinf_cell(3.0, 6.0)


def _frames(weight: int, scale: float) -> int:
    return max(1, round(weight * scale))


class _Gauges:
    """Gauge readings of one phase of a gauged pass: before the first
    message, between messages once GAUGE_EVERY_NS have passed since the
    last reading, and after the last message. Gauging before every
    message would leave every message's first call cold."""

    def __init__(self, readings: list[int], on: bool) -> None:
        self.readings, self.on, self.last = readings, on, 0

    def interval(self) -> int:
        """Gauge if due; return the index of the interval between two
        readings that the next message falls in."""
        if self.on and (not self.readings
                        or time.perf_counter_ns() - self.last >= GAUGE_EVERY_NS):
            self.readings.append(gauge_ns())
            self.last = time.perf_counter_ns()
        return len(self.readings) - 1

    def close(self) -> None:
        if self.on:
            self.readings.append(gauge_ns())


def _digest(parts: list[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class PassResult:
    """Timings and outcomes of one encode + decode pass.

    ``records`` holds one string per attempted symbol: the code and the
    ``float.hex`` of the decoded sample, or ``err:<class>`` for a symbol
    that raised or decoded to a different sample. ``units`` holds, per
    message, the sha256 of its bytes and the indices of the symbols it
    carries.
    """

    encode_s: float = 0.0
    decode_s: float = 0.0
    encode_call_ns: list[int] = field(default_factory=list)
    decode_call_ns: list[int] = field(default_factory=list)
    # per message: encode calls plus write_message, read_message plus decode calls
    encode_unit_ns: list[int] = field(default_factory=list)
    decode_unit_ns: list[int] = field(default_factory=list)
    # gauged passes: the gauge readings of each phase (see _Gauges), and
    # the interval between two readings that each message and call fell in
    encode_gauge_ns: list[int] = field(default_factory=list)
    decode_gauge_ns: list[int] = field(default_factory=list)
    encode_unit_interval: list[int] = field(default_factory=list)
    decode_unit_interval: list[int] = field(default_factory=list)
    encode_call_interval: list[int] = field(default_factory=list)
    decode_call_interval: list[int] = field(default_factory=list)
    records: list[str] = field(default_factory=list)
    units: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    message_bits: int = 0
    coded: int = 0  # symbols carried by the messages
    decoded: int = 0  # coded symbols that decoded to their encoded sample
    roundtrip_failed: int = 0  # coded symbols that did not
    steps: int | None = None  # TrialStats sums, where the entry point returns them
    depth: int | None = None

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def digest(self) -> str:
        return _digest(self.records + [f"{h}:{ids}" for h, ids in self.units])

    def counts(self) -> dict:
        """The figures that must repeat exactly at one seed."""
        out = {
            "digest": self.digest(),
            "message_bits": self.message_bits,
            "coded": self.coded,
            "failures": dict(sorted(self.failures.items())),
        }
        if self.steps is not None:
            out["steps"] = self.steps
            out["depth"] = self.depth
        return out


class _FramedWorkload:
    """Messages of FRAME_SIZE single-symbol calls each (exact or MRC frames).

    A frame is (pair, partition kind or None for MRC, variant, frame mode,
    MRC budget or None, symbol ids, base seed, index offset): symbol i of
    the frame draws its randomness from ``derive_seed(base, i + offset)``.
    """

    name = ""

    def __init__(self, seed: int, strata: list[tuple]) -> None:
        """``strata`` lists (pair, kind, variant, mode, budget, frame count,
        pinned); the frames of a pinned stratum draw from TAIL_SEED."""
        frames, pinned_symbols = [], 0
        for *spec, count, pinned in strata:
            for _ in range(count):
                frames.append((*spec, pinned_symbols if pinned else None))
                pinned_symbols += FRAME_SIZE if pinned else 0
        random.Random(f"{self.name}:{seed}").shuffle(frames)
        self.frames = []
        for k, (*spec, pinned_at) in enumerate(frames):
            first = k * FRAME_SIZE
            base, offset = (seed, 0) if pinned_at is None else (TAIL_SEED, pinned_at - first)
            self.frames.append(
                (*spec, tuple(range(first, first + FRAME_SIZE)), base, offset))
        self.symbols = len(frames) * FRAME_SIZE

    def run_pass(self, tracer=None, gauged: bool = False) -> PassResult:
        res = PassResult(steps=0, depth=0)
        perf = time.perf_counter_ns
        # Entry points are looked up on their modules at each call, so a
        # traced pass sees the tracer's rebinding.
        encoded: list[tuple[bytes, dict, dict]] = []
        gauges = _Gauges(res.encode_gauge_ns, gauged)
        t_enc = time.perf_counter()
        for pair, kind, variant, mode, budget, ids, base, offset in self.frames:
            g = gauges.interval()
            t_unit = perf()
            codes, xs, errors = [], {}, {}
            for sym in ids:
                if tracer is not None:
                    tracer.current_symbol = sym
                s = randomness.derive_seed(base, sym + offset)
                t0 = perf()
                try:
                    if kind is None:
                        code, x, stats = coders.encode_mrc(pair, s, budget)
                    else:
                        code, x, stats = coders.encode_astar(
                            pair, kind, s, max_steps=MAX_STEPS
                        )
                except RecError as exc:
                    res.encode_call_ns.append(perf() - t0)
                    res.encode_call_interval.append(g)
                    errors[sym] = type(exc).__name__
                    continue
                res.encode_call_ns.append(perf() - t0)
                res.encode_call_interval.append(g)
                codes.append(code)
                xs[sym] = (code, x, stats)
            data = bitstream.write_message(
                bitstream.MessageFrame(mode, variant, tuple(codes), budget)
            ).getvalue()
            res.encode_unit_ns.append(perf() - t_unit)
            res.encode_unit_interval.append(g)
            encoded.append((data, xs, errors))
        gauges.close()
        res.encode_s = time.perf_counter() - t_enc

        decoded: list[dict] = []
        gauges = _Gauges(res.decode_gauge_ns, gauged)
        t_dec = time.perf_counter()
        for (pair, *_, base, offset), (data, xs, _) in zip(self.frames, encoded):
            out: dict = {}
            g = gauges.interval()
            t_unit = perf()
            try:
                frame = bitstream.read_message(bitstream.BitReader(data))
            except RecError as exc:
                res.decode_unit_ns.append(perf() - t_unit)
                res.decode_unit_interval.append(g)
                decoded.append({sym: type(exc).__name__ for sym in xs})
                continue
            proposal = pair.proposal
            for sym, code in zip(xs, frame.codes):
                if tracer is not None:
                    tracer.current_symbol = sym
                s = randomness.derive_seed(base, sym + offset)
                t0 = perf()
                try:
                    out[sym] = coders.decode(proposal, code, s)
                except RecError as exc:
                    out[sym] = type(exc).__name__
                res.decode_call_ns.append(perf() - t0)
                res.decode_call_interval.append(g)
            res.decode_unit_ns.append(perf() - t_unit)
            res.decode_unit_interval.append(g)
            out["codes"] = frame.codes
            decoded.append(out)
        gauges.close()
        res.decode_s = time.perf_counter() - t_dec

        for (*_, ids, _, _), (data, xs, errors), out in zip(self.frames, encoded, decoded):
            frame_ok = tuple(out.get("codes", ())) == tuple(c for c, _, _ in xs.values())
            ok_ids = []
            for sym in ids:
                if sym in errors:
                    res.failures[errors[sym]] += 1
                    res.records.append(f"err:{errors[sym]}")
                    continue
                code, x, stats = xs[sym]
                y = out.get(sym)
                if isinstance(y, str) or not frame_ok or y is None or y.hex() != x.hex():
                    cls = y if isinstance(y, str) else "mismatch"
                    res.failures[cls] += 1
                    res.records.append(f"err:{cls}")
                    res.roundtrip_failed += 1
                else:
                    ok_ids.append(sym)
                    res.decoded += 1
                    res.steps += stats.steps
                    res.depth += stats.returned_depth
                    res.records.append(f"{code.payload}/{code.depth_or_budget}/{y.hex()}")
            res.units.append((hashlib.sha256(data).hexdigest()[:16], tuple(ok_ids)))
            res.message_bits += 8 * len(data)
            res.coded += len(xs)
        return res


class ExactStream(_FramedWorkload):
    """Exact frames from ``as``, ``ad`` and ``pfr`` over a cell grid.

    Nine tenths of the symbols come from the KL/D-inf Gaussian cells and
    the 8-mode mixture (``pfr`` only where D-inf <= 2); one tenth from the
    mirrored tail pair N(+-3, 0.9), whose inputs the coders refuse at this
    point (upper-tail saturation and the depth cap). The tail stays in:
    its refusals count as failures. Which tail symbols are refused
    depends on their randomness, so the tail draws from TAIL_SEED: every
    seed carries the same refusals.
    """

    name = "exact_stream"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        low_dinf, *high_dinf = _gaussian_cells()
        tails = (
            PairSpec(Gaussian(3.0, 0.9), _STD_NORMAL),
            PairSpec(Gaussian(-3.0, 0.9), _STD_NORMAL),
        )
        # (pairs, coders, frames per (pair, coder), pinned): 5400 + 560 symbols
        groups = (
            ((low_dinf, mixture_pair(8, 1.0)), ("as", "ad", "pfr"), 54, False),
            (high_dinf, ("as", "ad"), 54, False),
            (tails, ("as", "ad"), 14, True),
        )
        strata = [
            (pair, *_KINDS[coder], bitstream.MODE_EXACT, None, _frames(weight, scale), pinned)
            for pairs, coder_names, weight, pinned in groups
            for pair in pairs
            for coder in coder_names
        ]
        super().__init__(seed, strata)


class MrcSelect(_FramedWorkload):
    """MRC block frames at budgets 6, 7 and 8 bits on the Gaussian cells."""

    name = "mrc_select"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        strata = [
            (pair, None, coders.Variant.MRC, bitstream.MODE_BLOCK, bits, _frames(12, scale),
             False)
            for pair in _gaussian_cells()
            for bits in (6, 7, 8)
        ]
        super().__init__(seed, strata)


class BlockCodec:
    """Latent vectors of IsoKL Gaussian blocks, coded with the block codec.

    One call encodes or decodes a whole vector; a symbol is one of its
    coordinates. Block j of vector v has kappa _KAPPAS[(3v + j) % 5], so
    every budget from 3 to 8 bits carries the same share of blocks.
    """

    name = "block_codec"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        n_vectors = max(1, round(1000 * scale))
        t0 = time.perf_counter()
        self.vectors = []
        for v in range(n_vectors):
            blocks = []
            for j in range(_BLOCKS_PER_VECTOR):
                kappa = _KAPPAS[(_BLOCKS_PER_VECTOR * v + j) % len(_KAPPAS)]
                prior_means = tuple(rng.uniform(-1.0, 1.0) for _ in range(_COORDS_PER_BLOCK))
                prior_stds = tuple(rng.uniform(0.5, 2.0) for _ in range(_COORDS_PER_BLOCK))
                # inside the Lambert-W radius prior_std * sqrt(2 kappa)
                target_means = tuple(
                    nu + rho * math.sqrt(2.0 * kappa) * rng.uniform(-0.9, 0.9)
                    for nu, rho in zip(prior_means, prior_stds)
                )
                blocks.append(
                    isokl.IsoKLGaussianBlock(prior_means, prior_stds, target_means, kappa)
                )
            self.vectors.append(blocks)
        self.block_build_s = time.perf_counter() - t0
        self.symbols = n_vectors * _BLOCKS_PER_VECTOR * _COORDS_PER_BLOCK
        self._reference: list[list[str]] | None = None

    def run_pass(self, tracer=None, gauged: bool = False) -> PassResult:
        res = PassResult()
        perf = time.perf_counter_ns
        seed = self.seed
        messages: list = []
        gauges = _Gauges(res.encode_gauge_ns, gauged)
        t_enc = time.perf_counter()
        for v, blocks in enumerate(self.vectors):
            g = gauges.interval()
            if tracer is not None:
                tracer.current_symbol = v
            s = randomness.derive_seed(seed, v)
            t0 = perf()
            try:
                messages.append(isokl.encode_block_vector(blocks, _BLOCK_CONFIG, s))
            except RecError as exc:
                messages.append(type(exc).__name__)
            res.encode_call_ns.append(perf() - t0)
            res.encode_call_interval.append(g)
            res.encode_unit_ns.append(res.encode_call_ns[-1])
            res.encode_unit_interval.append(g)
        gauges.close()
        res.encode_s = time.perf_counter() - t_enc

        decoded: list = []
        gauges = _Gauges(res.decode_gauge_ns, gauged)
        t_dec = time.perf_counter()
        for v, (blocks, data) in enumerate(zip(self.vectors, messages)):
            g = gauges.interval()
            if isinstance(data, str):
                decoded.append(data)
                res.decode_unit_ns.append(0)
                res.decode_unit_interval.append(g)
                continue
            if tracer is not None:
                tracer.current_symbol = v
            s = randomness.derive_seed(seed, v)
            t0 = perf()
            try:
                decoded.append(isokl.decode_block_vector(blocks, _BLOCK_CONFIG, data, s))
            except RecError as exc:
                decoded.append(type(exc).__name__)
            res.decode_call_ns.append(perf() - t0)
            res.decode_call_interval.append(g)
            res.decode_unit_ns.append(res.decode_call_ns[-1])
            res.decode_unit_interval.append(g)
        gauges.close()
        res.decode_s = time.perf_counter() - t_dec

        reference = self.reference_samples()
        sym = 0
        for blocks, data, ys, ref in zip(self.vectors, messages, decoded, reference):
            n = sum(len(b) for b in blocks)
            ids = tuple(range(sym, sym + n))
            sym += n
            if isinstance(data, str):  # the encoder refused the vector
                res.failures[data] += n
                res.records.extend([f"err:{data}"] * n)
                res.units.append(("", ()))
                continue
            res.units.append((hashlib.sha256(data).hexdigest()[:16], ids))
            res.message_bits += 8 * len(data)
            res.coded += n
            if isinstance(ys, str) or len(ys) != n:
                ys = [ys if isinstance(ys, str) else "mismatch"] * n
            for y, x_hex in zip(ys, ref):
                if isinstance(y, float) and y.hex() == x_hex:
                    res.decoded += 1
                    res.records.append(y.hex())
                else:
                    cls = y if isinstance(y, str) else "mismatch"
                    res.failures[cls] += 1
                    res.records.append(f"err:{cls}")
                    res.roundtrip_failed += 1
        return res

    def reference_samples(self) -> list[list[str]]:
        """The encoder's samples, which ``encode_block_vector`` does not
        return: re-run ``encode_dad`` per coordinate exactly as the block
        codec does. Computed once, outside every timed phase."""
        if self._reference is None:
            self._reference = []
            for v, blocks in enumerate(self.vectors):
                s = randomness.derive_seed(self.seed, v)
                xs, index = [], 0
                for block in blocks:
                    budget = _BLOCK_CONFIG.budget(block.kappa)
                    for i in range(len(block)):
                        _, x, _ = coders.encode_dad(
                            block.pair(i), randomness.derive_seed(s, index), budget
                        )
                        xs.append(x.hex())
                        index += 1
                self._reference.append(xs)
        return self._reference


def build(name: str, seed: int, scale: float = 1.0):
    """Generate the inputs of one workload from its seed."""
    if name == "exact_stream":
        return ExactStream(seed, scale)
    if name == "block_codec":
        return BlockCodec(seed, scale)
    if name == "mrc_select":
        return MrcSelect(seed, scale)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
