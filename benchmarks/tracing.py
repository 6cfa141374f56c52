"""Span tracing of reckit's layers from outside the package.

``Tracer.installed`` rebinds each wrapped name where its callers look it
up (a module attribute such as ``reckit.coders.expand``, or a method on a
class such as ``PairSpec.bound_M``) and restores the originals on exit.
Each wrapped call records one span: name, start, end, parent span and
the symbol being coded. Spans stay in memory, in flat arrays, until the
run writes them out.

A span's self time is its duration minus the part of it that its child
spans cover. Layers run on one thread with no queue between them, so
there is no waiting time to record.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

ROOT = -1  # parent of a top-level span


@dataclass(frozen=True)
class Site:
    """A name to rebind: ``owner.attr`` is traced as span ``span``.

    ``tally(tracer, result)`` runs after a call that returned normally and
    adds counts the span alone cannot give (children realized, steps).
    """

    owner: object
    attr: str
    span: str
    tally: Callable | None = None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.symbol = array("q")
        self.start = array("q")
        self.end = array("q")
        self.current_symbol = -1
        self.per_symbol: defaultdict = defaultdict(Counter)
        self._stack = [ROOT]

    def __len__(self) -> int:
        return len(self.name_id)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> int:
        idx = len(self.name_id)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.symbol.append(self.current_symbol)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def wrap(self, fn: Callable, name: str, tally: Callable | None = None) -> Callable:
        nid = self._intern(name)
        name_id, parent, symbol = self.name_id, self.parent, self.symbol
        start, end, stack = self.start, self.end, self._stack
        perf = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            symbol.append(tracer.current_symbol)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if tally is not None:
                tally(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    @contextmanager
    def installed(self, sites: list[Site]) -> Iterator[None]:
        """Rebind every site for the duration of the block."""
        originals = []
        try:
            for site in sites:
                original = vars(site.owner)[site.attr]  # defined there, not inherited
                originals.append((site.owner, site.attr, original))
                setattr(site.owner, site.attr, self.wrap(original, site.span, site.tally))
        except BaseException:
            _restore(originals)
            raise
        try:
            yield
        finally:
            _restore(originals)

    def self_ns(self) -> list[int]:
        return self_times(self.parent, self.start, self.end)

    def by_name(self) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, summed self time in ns)."""
        calls = [0] * len(self.names)
        self_total = [0] * len(self.names)
        for nid, s in zip(self.name_id, self.self_ns()):
            calls[nid] += 1
            self_total[nid] += s
        return {n: (calls[i], self_total[i]) for i, n in enumerate(self.names)}

    def calls_under(self, top: int, names) -> tuple[int, int]:
        """The number of spans named ``names`` directly under span ``top``,
        and the summed self time of those spans and every span below them."""
        ids = {self._ids[n] for n in names if n in self._ids}
        inside = []
        calls = 0
        for nid, p in zip(self.name_id, self.parent):
            call = p == top and nid in ids
            calls += call
            inside.append(p != ROOT and (inside[p] or call))
        return calls, sum(s for s, keep in zip(self.self_ns(), inside) if keep)

    def write(self, path) -> None:
        """Write every span as gzip-compressed CSV: name, start_ns, end_ns,
        parent, symbol. ``parent`` is the row number (0-based) of the parent
        span, -1 for a top-level span.
        """
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,symbol\n")
            names = self.names
            for nid, s, e, p, sym in zip(
                self.name_id, self.start, self.end, self.parent, self.symbol
            ):
                fh.write(f"{names[nid]},{s},{e},{p},{sym}\n")


def _restore(originals: list) -> None:
    for owner, attr, original in reversed(originals):
        setattr(owner, attr, original)


def self_times(parent, start, end) -> list[int]:
    """Duration of each span minus the time its children cover.

    Spans are listed in the order they opened, so the children of a
    span appear in order of their start. Each child interval is clipped
    to its parent's, and overlap between children is counted once.
    """
    out = [e - s for s, e in zip(start, end)]
    covered_to: dict[int, int] = {}
    for i, p in enumerate(parent):
        if p == ROOT:
            continue
        lo = max(start[i], covered_to.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            out[p] -= hi - lo
            covered_to[p] = hi
    return out


def calibrate(calls: int = 20_000) -> float:
    """Cost in ns that one wrapper adds to an empty call."""

    def empty():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(empty, "calibrate")
    best_plain = best_wrapped = float("inf")
    for _ in range(3):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            empty()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter_ns()
        best_plain = min(best_plain, t1 - t0)
        best_wrapped = min(best_wrapped, t2 - t1)
        del tracer.name_id[:], tracer.parent[:], tracer.symbol[:]
        del tracer.start[:], tracer.end[:]
    return (best_wrapped - best_plain) / calls
