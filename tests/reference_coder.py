"""A reference encoder for the split-tree coders: AS*, AD* and DAD* as one
plain best-first loop, written from the A* coding algorithm and none of
``reckit.coders``' shortcuts (late draws, flat queue entries, packed
draws, the dyadic memo). It uses reckit only for the keyed draws
(``keyed_uniform``, the reference the fast draws are tested against,
and ``trunc_gumbel``) and for the pair's ``log_ratio``, ``bound_M`` and
the proposal's ``cdf`` and ``inv_cdf``.

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
"""

import heapq
import math

from reckit.distributions import PairSpec
from reckit.randomness import DrawSlot, StreamKey, keyed_uniform, trunc_gumbel

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
