"""In-memory span tracer that wraps library callables from outside.

Each wrapped call records one span: name, start, end and the span that was
open when it began (its parent).  Spans stay in parallel lists until the run
ends; nothing is written while the workload runs.  A callable is wrapped
where its caller looks it up (a module attribute, a class attribute or a
local binding in the benchmark), so the library itself is not modified.
"""

from __future__ import annotations

import functools
import resource
import time
from typing import Callable, Dict, List

import numpy as np

_PAGE = resource.getpagesize()


def current_rss_bytes() -> int:
    """Resident set size of this process now."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE


def peak_rss_bytes() -> int:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.rss_growth: Dict[str, float] = {}
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def wrap(self, fn: Callable, name: str, probe_rss: bool = False) -> Callable:
        """`fn` recording a span per call; with probe_rss, also the largest
        high-water RSS growth over the RSS at call entry, in bytes."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter
        growth = self.rss_growth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            rss0 = current_rss_bytes() if probe_rss else 0
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if probe_rss:
                    grown = float(max(0, peak_rss_bytes() - rss0))
                    growth[name] = max(growth.get(name, 0.0), grown)

        return traced

    def patch(self, owner, attr: str, name: str, probe_rss: bool = False) -> None:
        """Replace `owner.attr` (module or class) by its traced version."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, probe_rss))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        dur = self.durations()
        par = np.asarray(self.parents, dtype=np.int64)
        has = par >= 0
        covered = np.bincount(par[has], weights=dur[has], minlength=len(dur))
        return dur - covered

    def table(self) -> Dict[str, Dict[str, object]]:
        """Per span name: calls, total and self seconds, and the inclusive
        per-call durations in microseconds."""
        dur = self.durations()
        own = self.self_times()
        names = np.asarray(self.names, dtype=object)
        out: Dict[str, Dict[str, object]] = {}
        for name in sorted(set(self.names)):
            sel = names == name
            out[name] = {"calls": int(sel.sum()),
                         "total_s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum()),
                         "us": dur[sel] * 1e6}
        return out

    def children_pairs(self, parent_name: str, first: str, last: str) -> np.ndarray:
        """Microseconds from the start of each `first` span to the end of the
        next `last` span under the same `parent_name` span: one value per
        item of a loop whose body opens with `first` and closes with `last`."""
        out = []
        open_at: Dict[int, float] = {}
        for i in range(len(self.names)):
            p = self.parents[i]
            if p < 0 or self.names[p] != parent_name:
                continue
            if self.names[i] == first:
                open_at[p] = self.starts[i]
            elif self.names[i] == last and p in open_at:
                out.append(self.ends[i] - open_at.pop(p))
        return np.asarray(out) * 1e6
