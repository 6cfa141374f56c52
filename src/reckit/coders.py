"""Relative entropy coders over a shared keyed-randomness stream.

All variants race truncated Gumbels attached to proposal regions and
return the identity of the winning candidate, which the decoder can
regenerate from the seed alone:

* AS_STAR / AD_STAR: exact branch-and-bound search over the sample-split
  or dyadic tree; the code is the winner's heap index.
* DAD_STAR: the dyadic search truncated to a depth budget D, plus a
  second root-level candidate reserved for codeword 0, so every one of
  the 2^D codewords is usable.
* PFR: the same race without region shrinking (global bound), coded by
  the 1-based arrival index of the winner. With no region to cut it has
  no tree: it is a loop with one ratio bound per search and two counter
  draws per arrival, and its decode is one draw.
* MRC: importance selection among 2^bits independent proposal draws.

``CODERS`` is the one place that says what each coder is: its wire tag,
its unit layout and its encode/decode pair. Every caller that picks a
coder by name or tag reads it; ``encode`` and ``decode`` dispatch
through it.

A ``Code`` stores what the wire carries, its payload and a fixed-width
code's budget, and derives its width (``Code.depth_or_budget``).

The tree search follows the branch-and-bound schedule: a priority queue
ordered by Gumbel plus the region's ratio bound, an incumbent lower
bound from scored samples, and pruning of children whose bound cannot
beat the incumbent. Ties are broken toward smaller heap indices. A
queue entry is the node itself, as nine flat fields (priority, heap index,
bound, region ends, their CDF values, sample uniform, Gumbel), unpacked
once per pop; the index carries the depth. A queued child may not have
its Gumbel yet: it waits at its parent's Gumbel, an upper bound on its
own, with no sample uniform, and draws both in one two-lane draw
(``tree.realize``) when it reaches the top. Both searches return
(winner's index, sample, steps, lower bound); the winner's depth is
the index's bit length.

A dyadic node's children and their ratio bounds depend on the pair and
the heap index alone, never on the seed, so the AD* and DAD* searches
share one memo on the pair, which ``_astar_search`` alone reads and
fills and its docstring describes. The PFR and MRC searches and every
decode do without it.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from enum import Enum
from itertools import accumulate
from typing import Callable, Iterable

from .distributions import Distribution1D, PairSpec, sample_restricted_u
from .errors import BudgetExhaustedError, DomainError, Frozen, InvalidCodeError
from .errors import UnboundedRatioError
from .randomness import DrawSlot, absorb, counter_uniform, counter_uniforms, derive_seed
from .randomness import seed_state, slot_uniform
from .randomness import keyed_uniform, trunc_gumbel  # noqa: F401  (traced by benchmarks/run.py)
from .tree import MAX_DEPTH, PartitionKind, expand, locate, realize

INF = math.inf
_GLOBAL_BOUND, _DYADIC = PartitionKind.GLOBAL_BOUND, PartitionKind.DYADIC
_GUMBEL = int(DrawSlot.GUMBEL)
_SAMPLE = int(DrawSlot.SAMPLE)


class Variant(Enum):
    AS_STAR = "as"
    AD_STAR = "ad"
    DAD_STAR = "dad"
    PFR = "pfr"
    MRC = "mrc"

    # Members are singletons and compare by identity, so identity hashing
    # keeps every dict and set the same and skips Enum's Python-level hash.
    __hash__ = object.__hash__


# Step budget of the exact searches that the CLI and the bench grids run.
MAX_STEPS = 1_000_000


def _is_int(value) -> bool:
    """What a budget and a unit's payload must be (as ``as_number(value, int)``)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_budget(budget) -> bool:
    """The one statement of a budget a block header can carry: an int
    (``_is_int``) of 1 to ``tree.MAX_DEPTH``. Each caller picks its error."""
    return _is_int(budget) and 1 <= budget <= MAX_DEPTH


def check_budget(budget: int) -> None:
    """Refuse a budget ``is_budget`` refuses, with DomainError."""
    if not is_budget(budget):
        raise DomainError(f"budget must be an integer of 1 to {MAX_DEPTH} bits, got {budget!r}")


class Unit(Enum):
    """How one codeword sits on the wire: the one statement of each layout.
    ``write`` puts one unit on a ``bitstream.BitWriter``, ``read`` takes a
    frame's payloads off a ``bitstream.BitReader`` as bare ints, ``cost``
    prices one, and ``check`` admits exactly the (payload, budget) pairs
    that ``read`` can return. The two index layouts are one delta code,
    with a cap on its length field (``_DELTA_CAPS``)."""

    HEAP_INDEX = "heap_index"  # gamma(depth), then the index below its leading 1
    ARRIVAL_INDEX = "arrival_index"  # delta(K) of the 1-based arrival index
    CODEWORD = "codeword"  # budget bits under a block's shared header

    __hash__ = object.__hash__  # as for Variant

    def check(self, payload: int, budget: int | None) -> None:
        """Refuse a unit this layout cannot carry: an index is an int in
        [1, 2^cap) with no budget, a codeword an int in [0, 2^budget) with a
        budget ``is_budget`` admits, each an int (``_is_int``)."""
        cap = _DELTA_CAPS.get(self)
        if cap is not None:
            ok = budget is None and _is_int(payload) and 1 <= payload < (1 << cap)
        else:
            ok = is_budget(budget) and _is_int(payload) and 0 <= payload < (1 << budget)
        if not ok:
            raise InvalidCodeError(f"a {self.value} unit cannot carry payload {payload!r} "
                                   f"with budget {budget!r}")

    def cost(self, payload: int, budget: int | None) -> tuple[int, int]:
        """(payload bits, standalone framing bits) of one unit. An index is
        delta(index): L index bits and 2 * (bit_length(L) - 1) of framing."""
        if self is _CODEWORD:
            return budget, 0  # fixed-width codeword at the budget
        bits = payload.bit_length()
        return bits, 2 * (bits.bit_length() - 1)

    def write(self, writer, payload: int, budget: int | None) -> None:
        """Put one unit on ``writer``; a codeword's budget is in its frame's header."""
        if self is _CODEWORD:
            writer.write_bits(payload, budget)
        else:
            writer.write_elias_delta(payload)

    def read(self, reader, budget: int | None, count: int) -> list[int]:
        """Take the payloads of ``count`` units off ``reader``: codewords of
        the frame header's ``budget`` bits, or deltas under their cap."""
        return reader.read(count, budget, _DELTA_CAPS.get(self))


# Unit's methods compare with these: a class lookup of a member costs ~0.2 us
_HEAP_INDEX, _ARRIVAL_INDEX, _CODEWORD = Unit.HEAP_INDEX, Unit.ARRIVAL_INDEX, Unit.CODEWORD
# The longest delta length field of each index layout
_DELTA_CAPS = {_HEAP_INDEX: MAX_DEPTH, _ARRIVAL_INDEX: 64}
_set = object.__setattr__


class Code(Frozen):
    """A transmitted codeword: its variant, the payload its unit carries (a
    heap index, a 1-based arrival index or a codeword) and, keyword-only,
    the bit budget that a fixed-width code needs and an exact code refuses."""

    __slots__ = _fields = ("variant", "payload", "budget")

    def __init__(self, variant: Variant, payload: int, *, budget: int | None = None) -> None:
        CODERS[variant].unit.check(payload, budget)
        _set(self, "variant", variant)
        _set(self, "payload", payload)
        _set(self, "budget", budget)

    @property
    def depth_or_budget(self) -> int:
        """The code's width, the one statement of its rule: the budget, else a
        heap index's bit length, else an arrival index itself."""
        if self.budget is not None:
            return self.budget
        if CODERS[self.variant].unit is _ARRIVAL_INDEX:
            return self.payload
        return self.payload.bit_length()


class TrialStats(Frozen):
    """Search accounting for one encode: queue pops, winner depth, payload
    bits, standalone framing overhead, and the final incumbent value."""

    __slots__ = _fields = ("steps", "returned_depth", "payload_bits", "overhead_bits",
                           "lower_bound")

    def __init__(self, steps: int, returned_depth: int, payload_bits: int,
                 overhead_bits: int, lower_bound: float) -> None:
        _set(self, "steps", steps)  # one call a field: half the cost of _store, once per encode
        _set(self, "returned_depth", returned_depth)
        _set(self, "payload_bits", payload_bits)
        _set(self, "overhead_bits", overhead_bits)
        _set(self, "lower_bound", lower_bound)


def _stats(code: Code, steps: int, depth: int, lb: float) -> TrialStats:
    bits = CODERS[code.variant].unit.cost(code.payload, code.budget)
    return TrialStats(steps, depth, *bits, lb)


def _astar_search(pair: PairSpec, kind: PartitionKind, stream: int, max_depth: float,
                  max_steps: float):
    """Branch-and-bound core of the split-tree races (AS*, AD*, DAD*).

    Nodes at ``max_depth`` are scored but not expanded. A finite
    ``max_depth`` is the depth-limited coder's search, which starts from
    its extra root (heap index 0, a full-line Gumbel truncated at the
    root's): it competes in incumbent updates but is never enqueued, so
    it costs no search step.

    A queue entry is the node itself, as nine flat fields:
    (-(g + M), heap_index, M, low, high, ulow, uhigh, u, g), M the
    ratio bound over (low, high) that ``expand`` gives with the child and
    u the node's sample uniform. A node at ``max_depth``, an index of
    at least 2^(max_depth - 1), is a leaf. Heap indices are unique in a search,
    so no comparison reaches past the index. The root and the extra root
    are realized up front; a child from ``expand`` is queued before its
    Gumbel is drawn, with u None and its parent's Gumbel as g, an upper
    bound on its own; at the top, ``realize`` draws both and it is
    requeued at its true priority or pruned. A Gumbel never exceeds the
    bound it is truncated at, so the steps, their order and every result
    are those of drawing each child at expansion. A node's sample, the
    quantile of u over its region, is taken when it is popped (the extra
    root's at the start). ``stream`` is ``seed_state(seed)``.

    A dyadic cut is the region's proposal median, so a dyadic node's
    children and their bounds follow from the pair and the heap index
    alone, and every AD* or DAD* search keeps them in ``pair._dyadic_memo``:
    heap index to ``expand``'s children, each with its bound, and index 0,
    which no search expands, to the root's bound. A search reads each entry
    it needs, or computes and stores it. An expansion that raises (the depth
    cap, a saturated median) is never stored, so it raises again. Threads
    may share a pair: an entry is the same whichever search computes it.
    The memo changes how often ``expand``, ``bound_M`` and the median's
    ``inv_cdf`` run, never the steps or any result.

    Returns (winner's heap index, its sample, steps, LB), as ``_pfr_search``.
    """
    proposal, bound_M, log_ratio = pair.proposal, pair.bound_M, pair.log_ratio
    memo, dyadic = pair._dyadic_memo, kind is _DYADIC  # only a dyadic search touches the memo
    u, g = realize(stream, 1, 0.0, 1.0, INF)
    lb, best_index, best_x = -INF, None, math.nan
    leaves = INF  # the first heap index at max_depth: no leaf in an exact search
    if max_depth < INF:
        leaves = 1 << (max_depth - 1)
        extra_u, extra_g = realize(stream, 0, 0.0, 1.0, g)
        best_index = 0
        best_x = sample_restricted_u(proposal, 0.0, 1.0, extra_u)
        lb = extra_g + log_ratio(best_x)
    root_bound = memo.get(0) if dyadic else None
    if root_bound is None:
        root_bound = bound_M(-INF, INF)
        if dyadic:
            memo[0] = root_bound
    heap = [(-(g + root_bound), 1, root_bound, -INF, INF, 0.0, 1.0, u, g)]
    heappop, heappush = heapq.heappop, heapq.heappush
    sample = sample_restricted_u
    steps = 0
    while heap and lb < -heap[0][0]:
        _, index, bound, low, high, ulow, uhigh, u, g = heappop(heap)
        if u is None:  # its Gumbel is still to draw
            u, g = realize(stream, index, ulow, uhigh, g)
            top = g + bound
            if not lb < top:
                continue
            if heap and heap[0] < (-top, index):  # no longer on top: requeue it
                heappush(heap, (-top, index, bound, low, high, ulow, uhigh, u, g))
                continue
        if steps >= max_steps:
            raise BudgetExhaustedError(f"search exceeded {max_steps} steps")
        steps += 1
        x = sample(proposal, ulow, uhigh, u)
        score = g + log_ratio(x)
        if score > lb or (score == lb and (best_index is None or index < best_index)):
            lb, best_index, best_x = score, index, x
        if index < leaves:
            children = memo.get(index) if dyadic else None
            if children is None:
                children = expand(kind, proposal, bound_M, x, index, low, high, ulow, uhigh)
                if dyadic:
                    memo[index] = children
            for cindex, clow, chigh, culow, cuhigh, child_bound in children:
                if child_bound > bound:
                    # Rounding put a sub-region's bound above its region's. The
                    # child must then also beat lb under the parent's bound,
                    # which needs its own Gumbel now.
                    cu, cg = realize(stream, cindex, culow, cuhigh, g)
                    if not lb < cg + bound:
                        continue
                else:
                    cu, cg = None, g
                if lb < cg + child_bound:
                    heappush(heap, (-(cg + child_bound), cindex, child_bound, clow, chigh,
                                    culow, cuhigh, cu, cg))
    return best_index, best_x, steps, lb


def _counter_sample(proposal: Distribution1D, seed: int, index: int, counter: int) -> float:
    """The full-line quantile of the SAMPLE slot at ``counter`` after (seed, ``index``):
    PFR's arrival ``counter + 1`` at node 1, MRC's candidate ``counter`` at node 0."""
    return proposal.inv_cdf(counter_uniform(absorb(derive_seed(seed, index), _SAMPLE), counter))


def _pfr_search(pair: PairSpec, seed: int, max_steps: float):
    """The PFR race, arrival by arrival: the tree search's schedule on a
    chain that never cuts the full line, so every arrival has the ratio
    bound M of the whole line, drawn once. Arrival k draws its Gumbel and
    its sample from node 1's GUMBEL and SAMPLE slot states at counter
    k - 1; its Gumbel sits at log-mass 0, truncated at the previous
    arrival's. The race stops once the incumbent lb reaches g + M, with g
    the last Gumbel drawn: no later arrival can beat it. Each arrival is
    one step under the budget, and a tie keeps the earlier arrival.
    Returns (winner's arrival index, its sample, steps, LB)."""
    inv_cdf, log_ratio = pair.proposal.inv_cdf, pair.log_ratio
    draw, gumbel = counter_uniform, trunc_gumbel
    bound = pair.bound_M(-INF, INF)
    node = derive_seed(seed, 1)
    gumbels, samples = absorb(node, _GUMBEL), absorb(node, _SAMPLE)
    g = gumbel(draw(gumbels, 0), 0.0, INF)
    lb, best, best_x = -INF, 0, math.nan  # best 0: no arrival scored yet
    steps = 0
    while lb < g + bound:
        if steps >= max_steps:
            raise BudgetExhaustedError(f"search exceeded {max_steps} steps")
        x = inv_cdf(draw(samples, steps))  # sample_restricted_u over (0, 1), bit for bit
        steps += 1
        score = g + log_ratio(x)
        if score > lb or (score == lb and not best):
            lb, best, best_x = score, steps, x
            if not lb < g + bound:  # no later arrival can win: leave its Gumbel undrawn
                break
        g = gumbel(draw(gumbels, steps), 0.0, g)
    return best, best_x, steps, lb


def encode_astar(
    pair: PairSpec, kind: PartitionKind, seed: int, max_steps: float = INF
) -> tuple[Code, float, TrialStats]:
    """Race the tree for a target sample; code the winner's identity.

    With ``PartitionKind.GLOBAL_BOUND`` this is the PFR race
    (``_pfr_search``), which never shrinks a region and codes the
    winner's 1-based arrival index; its expected arrival count is exp of
    the ratio supremum.

    The search requires a finite ratio bound (sup log dQ/dP < inf); it
    refuses to start otherwise. ``encode_dad`` is the depth-limited race.
    """
    if pair.analytic_dinf() == INF:
        raise UnboundedRatioError("exact search requires a finite density-ratio supremum; "
                                  "use the depth-limited coder")
    if kind is _GLOBAL_BOUND:
        index, x, steps, lb = _pfr_search(pair, seed, max_steps)
    else:
        index, x, steps, lb = _astar_search(pair, kind, seed_state(seed), INF, max_steps)
    code = Code(_VARIANT_OF_KIND[kind], index)
    return code, x, _stats(code, steps, code.depth_or_budget, lb)


def encode_dad(
    pair: PairSpec, seed: int, budget: int, max_steps: float = INF
) -> tuple[Code, float, TrialStats]:
    """Depth-limited dyadic coder with a fixed budget of ``budget`` bits.

    Runs the dyadic race over the tree of depth <= budget plus one extra
    root-level candidate (a second full-line draw, arrival-truncated at
    the root's Gumbel). The extra candidate takes codeword 0; tree
    winners take their heap index, which fits in ``budget`` bits. A
    search past ``max_steps`` pops is refused, as an exact search's is.
    """
    check_budget(budget)
    index, x, steps, lb = _astar_search(pair, PartitionKind.DYADIC, seed_state(seed), budget,
                                        max_steps)
    code = Code(Variant.DAD_STAR, index, budget=budget)
    # transmitted width is the budget regardless of where the winner sat; the
    # extra root, index 0, sits at depth 1
    return code, x, _stats(code, steps, index.bit_length() or 1, lb)


def dad_payloads(pairs: Iterable[PairSpec], stream: int, first: int, budget: int) -> list[int]:
    """The DAD* codewords of a block of pairs at one ``budget``, bare: pair
    i's is ``encode_dad(pair, absorb(stream, first + i), budget)[0].payload``,
    bit for bit, with ``stream`` a ``seed_state``. The budget is checked once
    for the block, and no ``Code`` or ``TrialStats`` is built."""
    check_budget(budget)
    return [_astar_search(pair, _DYADIC, seed_state(absorb(stream, index)), budget, INF)[0]
            for index, pair in enumerate(pairs, first)]


def decode_dad(proposal: Distribution1D, code: Code, seed: int) -> float:
    """Regenerate the sample for a depth-limited dyadic codeword."""
    if code.variant is not Variant.DAD_STAR:
        raise InvalidCodeError(f"expected a DAD_STAR code, got {code.variant}")
    return locate(proposal, PartitionKind.DYADIC, seed, code.payload)


def decode_pfr(proposal: Distribution1D, code: Code, seed: int) -> float:
    """Regenerate the sample of a PFR arrival index: one draw, node 1's
    SAMPLE slot at counter index - 1, and its full-line quantile."""
    if code.variant is not Variant.PFR:
        raise InvalidCodeError(f"expected a PFR code, got {code.variant}")
    return _counter_sample(proposal, seed, 1, code.payload - 1)


def encode_mrc(
    pair: PairSpec, seed: int, bits: int, max_steps: float = INF
) -> tuple[Code, float, TrialStats]:
    """Importance selection among 2^bits independent proposal draws.

    Draw x_0 .. x_{N-1} from the proposal, weight each by the density
    ratio, and sample an index from the normalized weights with one
    additional keyed uniform (seed, 0, GUMBEL, 0). If every draw misses
    the target support the selection falls back to uniform over the N
    draws. Each draw counts as one step, so N > ``max_steps`` is refused
    before any is made.

    Candidate i is the proposal's quantile at counter i after (seed, 0,
    SAMPLE); the N uniforms come from one ``counter_uniforms`` call, which
    mixes them in packed batches, and ``decode_mrc`` redraws the chosen
    one alone with ``counter_uniform``. The candidates are scored in one
    batch pass, which checks the range and the support once for all of
    them: ``inv_cdfs`` takes their quantiles and ``PairSpec.log_ratios``
    their log weights, each equal to its scalar form bit for bit.
    """
    check_budget(bits)
    n = 1 << bits
    if n > max_steps:
        raise BudgetExhaustedError(f"{n} MRC draws exceed the budget of {max_steps} steps")
    proposal, node = pair.proposal, derive_seed(seed, 0)
    draws = absorb(node, _SAMPLE)
    xs = proposal.inv_cdfs(counter_uniforms(draws, 0, n))
    log_w = pair.log_ratios(xs)
    top = max(log_w)
    weights = [math.exp(lw - top) for lw in log_w] if top > -INF else [1.0] * n
    threshold = slot_uniform(node, _GUMBEL) * math.fsum(weights)
    # the first left-to-right partial sum to reach the threshold, else the last
    chosen = min(bisect_left(list(accumulate(weights)), threshold), n - 1)
    code = Code(Variant.MRC, chosen, budget=bits)
    return code, xs[chosen], _stats(code, n, bits, log_w[chosen])


def decode_mrc(proposal: Distribution1D, code: Code, seed: int) -> float:
    if code.variant is not Variant.MRC:
        raise InvalidCodeError(f"expected an MRC code, got {code.variant}")
    return _counter_sample(proposal, seed, 0, code.payload)


def encode(pair: PairSpec, variant: Variant, seed: int, budget: int | None = None,
           max_steps: float = INF) -> tuple[Code, float, TrialStats]:
    """Code a sample of ``pair``'s target with ``variant``'s coder: the mirror
    of ``decode``. A ``variant`` that names no coder is refused."""
    spec = CODERS.get(variant)
    if spec is None:
        raise DomainError(f"no coder is named {variant!r}; pick a Variant")
    return spec.encode(pair, seed, budget, max_steps)


def decode(proposal: Distribution1D, code: Code, seed: int) -> float:
    """Regenerate the sample of any codeword through its coder's entry."""
    return CODERS[code.variant].decode(proposal, code, seed)


class CoderSpec(Frozen):
    """What a coder is: its frozen wire tag, how its codewords sit on the
    wire, and its encode/decode pair.

    ``encode(pair, seed, budget, max_steps)`` returns (code, sample,
    stats): ``budget`` is the bit budget of a fixed-width coder, which an
    exact coder refuses unless it is None, and ``max_steps`` the step
    budget of every search and of MRC's draws. ``kind`` is the partition rule of an exact
    search (None for the fixed-width coders); ``max_dinf`` is the largest
    D-infinity in nats at which the runtime grid runs the coder.
    """

    __slots__ = _fields = ("tag", "unit", "encode", "decode", "kind", "max_dinf")

    def __init__(
        self, tag: int, unit: Unit,
        encode: Callable[[PairSpec, int, int | None, float], tuple[Code, float, TrialStats]],
        decode: Callable[[Distribution1D, Code, int], float],
        kind: PartitionKind | None = None, max_dinf: float = INF,
    ) -> None:
        self._store(tag, unit, encode, decode, kind, max_dinf)

    @property
    def fixed_width(self) -> bool:
        return self.unit is _CODEWORD


def _exact_spec(tag: int, unit: Unit, kind: PartitionKind, decode=None,
                max_dinf: float = INF) -> CoderSpec:
    """An exact coder: its ``encode`` refuses a bit budget, which its codes
    do not have, and its ``decode`` walks ``kind``'s tree unless it is given."""
    def encode(pair, seed, budget, max_steps):
        if budget is not None:
            raise DomainError(f"an exact coder takes no bit budget, got {budget!r}")
        return encode_astar(pair, kind, seed, max_steps)

    if decode is None:
        def decode(proposal, code, seed):  # ``decode`` picked this spec by code.variant
            return locate(proposal, kind, seed, code.payload)

    return CoderSpec(tag, unit, encode, decode, kind, max_dinf)


CODERS: dict[Variant, CoderSpec] = {
    Variant.AS_STAR: _exact_spec(1, Unit.HEAP_INDEX, PartitionKind.SAMPLE_SPLIT),
    Variant.AD_STAR: _exact_spec(2, Unit.HEAP_INDEX, PartitionKind.DYADIC),
    # expected arrivals grow like e^D-infinity: e^7 ~ 1100 per encode
    Variant.PFR: _exact_spec(3, Unit.ARRIVAL_INDEX, _GLOBAL_BOUND, decode_pfr, max_dinf=7.0),
    Variant.DAD_STAR: CoderSpec(4, Unit.CODEWORD, encode_dad, decode_dad),
    Variant.MRC: CoderSpec(5, Unit.CODEWORD, encode_mrc, decode_mrc),
}
_VARIANT_OF_KIND = {spec.kind: v for v, spec in CODERS.items() if spec.kind is not None}
