"""A reference encoder for every coder: AS*, AD* and DAD* as one plain
best-first loop (``encode``), PFR as a loop over arrivals (``pfr``) and
MRC as a loop over candidates (``mrc``), written from the algorithms and
none of ``reckit.coders``' shortcuts (late draws, flat queue entries,
packed draws, the dyadic memo, the PFR chain's branched key states). It
uses reckit only for the keyed draws (``keyed_uniform``, the reference
the fast draws are tested against, and ``trunc_gumbel``) and for the
pair's ``log_ratio``, ``bound_M`` and the proposal's ``cdf`` and
``inv_cdf``. MRC's 2^bits candidates share their key but the counter,
so it absorbs that prefix once and each counter after it, one field at a
time with ``absorb``, as ``keyed_uniform`` is defined.

A node is one object: its heap index (the root is 1 and node H has
children 2H and 2H+1), its region (low, high) with proposal-CDF ends
(ulow, uhigh), the ratio bound M = ``bound_M(low, high)`` and its Gumbel
g, located at log(uhigh - ulow) and truncated at its parent's Gumbel
(the root's is untruncated). Every Gumbel is drawn when its node is
made. A node's sample is the proposal's quantile at ulow + u * (uhigh -
ulow), drawn when the node is popped. The queue pops the largest
priority g + M first, a tie to the smaller heap index, and the search
ends when the incumbent lower bound lb reaches the top priority. A
popped node is one step: it is scored g + log_ratio(sample), and it
replaces the incumbent on a larger score, or on an equal score and a
smaller heap index. It is then split, unless it is a leaf: at its
sample under sample splitting (AS*), at its proposal median under
dyadic splitting (AD*, DAD*). A side whose ends meet, in x or in CDF
value, is no child.

The guard rule: a child is admitted to the queue when
lb < g_child + min(M_child, M_parent). A sub-region's supremum cannot
exceed its region's, so M_child <= M_parent in exact arithmetic and the
rule is the usual lb < g_child + M_child; when rounding puts M_child
above M_parent, the child must also beat lb under its parent's bound.

DAD* at budget D adds an extra root: heap index 0, a full-line node
drawn from the EXTRA_ROOT slots with its Gumbel truncated at the root's.
It starts as the incumbent and is never queued, so it costs no step.
Its leaves are the heap indices >= 2^(D-1).

Refusals: a split is cut first, then refused with ``DepthExceededError``
when the children would pass depth ``MAX_DEPTH``; a step past
``max_steps`` is refused with ``BudgetExhaustedError``. A quantile that
saturates raises whatever the proposal raises.

PFR is the same race on a chain that never cuts the full line: every
arrival has the whole line's bound M. Arrival k >= 1 draws its Gumbel
and its sample from node 1's GUMBEL and SAMPLE slots at counter k - 1;
the Gumbel sits at location 0, truncated at the previous arrival's. The
race ends before arrival k once lb >= g_k + M, and the code is the
winner's arrival index. Each arrival is one step under ``max_steps``.

MRC draws 2^bits candidates, candidate i the proposal's quantile of node
0's SAMPLE slot at counter i, weights each by its density ratio (scaled
by the largest, or all 1 when every candidate misses the target) and
picks the first whose running weight sum reaches u times the total, u
node 0's GUMBEL slot. More candidates than ``max_steps`` are refused up
front.
"""

import heapq
import math

from reckit.distributions import PairSpec
from reckit.randomness import DrawSlot, StreamKey, absorb, keyed_uniform, seed_state
from reckit.randomness import state_uniform, trunc_gumbel

INF = math.inf
MAX_DEPTH = 62  # the deepest heap index a code may name


class DepthExceededError(Exception):
    pass


class BudgetExhaustedError(Exception):
    pass


class Node:
    def __init__(self, pair: PairSpec, seed: int, index: int, low: float, high: float,
                 ulow: float, uhigh: float, parent_g: float):
        self.index, self.low, self.high, self.ulow, self.uhigh = index, low, high, ulow, uhigh
        self.bound = pair.bound_M(low, high)
        slot = DrawSlot.GUMBEL if index else DrawSlot.EXTRA_ROOT_GUMBEL
        u = keyed_uniform(StreamKey(seed, index, slot))
        self.g = trunc_gumbel(u, math.log(uhigh - ulow), parent_g)

    def sample(self, pair: PairSpec, seed: int) -> float:
        slot = DrawSlot.SAMPLE if self.index else DrawSlot.EXTRA_ROOT_SAMPLE
        u = keyed_uniform(StreamKey(seed, self.index, slot))
        return pair.proposal.inv_cdf(self.ulow + u * (self.uhigh - self.ulow))

    def children(self, pair: PairSpec, seed: int, dyadic: bool, x: float) -> list:
        if dyadic:
            ucut = 0.5 * (self.ulow + self.uhigh)
            cut = pair.proposal.inv_cdf(ucut)
        else:
            cut, ucut = x, pair.proposal.cdf(x)
        if self.index.bit_length() + 1 > MAX_DEPTH:
            raise DepthExceededError(f"children of node {self.index} pass depth {MAX_DEPTH}")
        sides = [(2 * self.index, self.low, cut, self.ulow, ucut),
                 (2 * self.index + 1, cut, self.high, ucut, self.uhigh)]
        return [Node(pair, seed, index, low, high, ulow, uhigh, self.g)
                for index, low, high, ulow, uhigh in sides if low < high and ulow < uhigh]


def encode(pair: PairSpec, seed: int, dyadic: bool, budget: int | None = None,
           max_steps: float = INF) -> tuple[int, float, int, float]:
    """(winner's heap index, its sample, steps, lb): AS* (``dyadic`` False),
    AD* (``dyadic`` True) or, with a ``budget``, DAD*."""
    root = Node(pair, seed, 1, -INF, INF, 0.0, 1.0, INF)
    lb, best, best_x = -INF, None, math.nan
    leaves = INF
    if budget is not None:
        leaves = 1 << (budget - 1)
        extra = Node(pair, seed, 0, -INF, INF, 0.0, 1.0, root.g)
        best, best_x = 0, extra.sample(pair, seed)
        lb = extra.g + pair.log_ratio(best_x)
    queue = [(-(root.g + root.bound), root.index, root)]
    steps = 0
    while queue and lb < -queue[0][0]:
        node = heapq.heappop(queue)[2]
        if steps >= max_steps:
            raise BudgetExhaustedError(f"search exceeded {max_steps} steps")
        steps += 1
        x = node.sample(pair, seed)
        score = node.g + pair.log_ratio(x)
        if score > lb or (score == lb and (best is None or node.index < best)):
            lb, best, best_x = score, node.index, x
        if node.index < leaves:
            for child in node.children(pair, seed, dyadic, x):
                if lb < child.g + min(child.bound, node.bound):
                    heapq.heappush(queue, (-(child.g + child.bound), child.index, child))
    return best, best_x, steps, lb


def pfr(pair: PairSpec, seed: int, max_steps: float = INF) -> tuple[int, float, int, float]:
    """(winner's arrival index, its sample, steps, lb) of the PFR race."""
    bound = pair.bound_M(-INF, INF)
    lb, best, best_x, g, steps = -INF, None, math.nan, INF, 0
    while True:
        g = trunc_gumbel(keyed_uniform(StreamKey(seed, 1, DrawSlot.GUMBEL, steps)), 0.0, g)
        if lb >= g + bound:
            return best, best_x, steps, lb
        if steps >= max_steps:
            raise BudgetExhaustedError(f"search exceeded {max_steps} steps")
        x = pair.proposal.inv_cdf(keyed_uniform(StreamKey(seed, 1, DrawSlot.SAMPLE, steps)))
        steps += 1
        score = g + pair.log_ratio(x)
        if score > lb or (score == lb and best is None):
            lb, best, best_x = score, steps, x


def mrc(pair: PairSpec, seed: int, bits: int,
        max_steps: float = INF) -> tuple[int, float, int, float]:
    """(chosen candidate, its sample, steps, its log ratio) of MRC at ``bits``."""
    n = 1 << bits
    if n > max_steps:
        raise BudgetExhaustedError(f"{n} MRC draws exceed the budget of {max_steps} steps")
    prefix = absorb(absorb(seed_state(seed), 0), DrawSlot.SAMPLE)  # all but the counter
    xs = [pair.proposal.inv_cdf(state_uniform(absorb(prefix, i))) for i in range(n)]
    log_w = [pair.log_ratio(x) for x in xs]
    top = max(log_w)
    weights = [math.exp(w - top) if top > -INF else 1.0 for w in log_w]
    threshold = keyed_uniform(StreamKey(seed, 0, DrawSlot.GUMBEL)) * math.fsum(weights)
    chosen, total = n - 1, 0.0
    for i, w in enumerate(weights):
        total += w
        if total >= threshold:
            chosen = i
            break
    return chosen, xs[chosen], n, log_w[chosen]
