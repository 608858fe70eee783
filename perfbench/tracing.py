"""Span and counter recorder for the benchmark's traced runs.

A Recorder wraps public peakcov functions where their callers look them
up: every module attribute bound to the target function object is
replaced by a wrapper, so calls made through `peakcov.x`, through a
`from .m import x` alias or through `linalg.x` are all recorded. A
target that no longer exists is reported as absent instead of failing.

Spans stay in memory (id, name, start, end, parent, thread CPU time at
start and end, thread) and are written out when the benchmark ends.
Recording is thread-safe: `mc_estimate` runs its streams on worker
threads, and a span that opens on a worker thread with nothing open on
that thread is parented to the innermost span open on the main thread
(the benchmark is a single closed-loop client, so that span is the call
that scheduled the work).

attribute() turns spans into per-name exclusive and inclusive wall
time. At every instant the open spans without an open child (the
leaves) own that instant, so a span's self time is its duration minus
what its children cover, concurrent children count once, and the self
times of all spans add up to the wall time they cover. Time when
leaves on several threads are open at once is split among them in
proportion to the CPU each thread spent in them: a worker thread that
released the interpreter lock (numpy's random generators do) and waits
to get it back is not charged for the other thread's work.

This module imports only the standard library at load time, so timing
`import peakcov` after importing it measures peakcov alone.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from time import perf_counter, thread_time


def _gap_slots(args, kwargs, gaps):
    # gap value g expands to g losses and one reception
    return {"markov.slots_drawn": int(gaps.sum()) + int(gaps.size)}


def _run_slots(args, kwargs, record):
    return {"sim.slots_simulated": int(getattr(record, "horizon", 0))}


# (module under peakcov, public function, optional counter hook)
TARGETS = [
    ("problems", "load_problem", None),
    ("problems", "load_matrix_file", None),
    ("problems", "dumps_report", None),
    ("cli", "main", None),
    ("system", "validate", None),
    ("system", "observability_index", None),
    ("system", "stacked", None),
    ("markov", "sample_gaps", _gap_slots),
    ("markov", "gaps_to_arrivals", None),
    ("riccati", "measurement_update", None),
    ("riccati", "time_update", None),
    ("linalg", "spectral_radius", None),
    ("linalg", "spectral_norm_sq", None),
    ("linalg", "sym_spectral_norm", None),
    ("linalg", "solve", None),
    ("stability", "min_norm_gain", None),
    ("stability", "closed_form_gains", None),
    ("stability", "gain_condition_matrix", None),
    ("stability", "norm_condition_matrix", None),
    ("stability", "search_gains", None),
    ("stability", "build_certificate", None),
    ("stability", "verify_certificate", None),
    ("stability", "strict_margin_floor", None),
    ("stability", "similarity_transform", None),
    ("stability", "compare_conditions", None),
    ("sim", "simulate_run", _run_slots),
    ("sim", "mc_estimate", None),
    ("sim", "enumerate_first_peak", None),
    ("sim", "growth_trend", None),
]


class Recorder:
    """Collects spans and counters; create it on the main thread."""

    def __init__(self):
        self.names: list[str] = []
        # (id, name index, start, end, parent id, cpu start, cpu end, thread)
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._index: dict[str, int] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name(self, name: str) -> int:
        with self._lock:
            if name not in self._index:
                self._index[name] = len(self.names)
                self.names.append(name)
            return self._index[name]

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is self._main_stack:
            parent = -1
        else:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = -1
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def _close(self, span: tuple) -> None:
        with self._lock:
            self.spans.append(span)

    def add(self, increments: dict) -> None:
        with self._lock:
            for k, v in increments.items():
                self.counters[k] = self.counters.get(k, 0) + v

    def wrap(self, fn, name: str, hook=None):
        idx = self._name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, stack = self._open()
            c0 = thread_time()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                self._close((sid, idx, t0, t1, parent, c0, c1, threading.get_ident()))
            if hook is not None:
                self.add(hook(args, kwargs, out))
            return out

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own (for code that is not a target)."""
        return self.wrap(fn, name)(*args, **kwargs)

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target at each place peakcov binds it; returns and
        remembers the targets that do not exist."""
        found = []
        for module, attr, hook in targets:
            name = f"{module}.{attr}"
            try:
                fn = getattr(importlib.import_module(f"peakcov.{module}"), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            found.append((fn, name, hook))
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "peakcov" or k.startswith("peakcov."))]
        for fn, name, hook in found:
            wrapper = self.wrap(fn, name, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
        return self.absent

    def dump(self) -> dict:
        with self._lock:
            return {"names": list(self.names), "spans": list(self.spans),
                    "counters": dict(self.counters), "absent": list(self.absent)}

    def merge(self, doc: dict) -> None:
        """Fold in the dump of another recorder (a traced child process);
        its span ids are shifted past this recorder's."""
        base = next(self._ids) + 1
        remap = [self._name(n) for n in doc["names"]]
        top = base
        with self._lock:
            for sid, idx, t0, t1, parent, *rest in doc["spans"]:
                self.spans.append((sid + base, remap[idx], t0, t1,
                                   parent + base if parent >= 0 else -1, *rest))
                top = max(top, sid + base)
            for a in doc["absent"]:
                if a not in self.absent:
                    self.absent.append(a)
        self.add(doc["counters"])
        self._ids = itertools.count(top + 1)


def attribute(names: list[str], spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, exclusive wall share (self_s) and inclusive
    wall share (incl_s, the name's spans and everything under them)."""
    import numpy as np

    n = len(spans)
    if n == 0:
        return {}
    pos = {s[0]: k for k, s in enumerate(spans)}
    parent = [pos.get(s[4], -1) for s in spans]

    # wall and CPU of each span's own part (children on its thread taken out)
    own_wall = [s[3] - s[2] for s in spans]
    own_cpu = [s[6] - s[5] for s in spans]
    for k, s in enumerate(spans):
        p = parent[k]
        if p >= 0 and spans[p][7] == s[7]:
            own_wall[p] -= s[3] - s[2]
            own_cpu[p] -= s[6] - s[5]

    starts = np.array([s[2] for s in spans])
    ends = np.array([s[3] for s in spans])
    times = np.concatenate([starts, ends])
    is_start = np.concatenate([np.ones(n, dtype=np.int8), np.zeros(n, dtype=np.int8)])
    order = np.lexsort((is_start, times))  # ends before starts on ties

    sole = [0.0] * n  # wall time as the only leaf
    shared = [0.0] * n  # wall time as one of several leaves
    shared_total = 0.0
    live_children = [0] * n
    live = [False] * n
    leaves: set[int] = set()
    times_l = times.tolist()
    prev = times_l[order[0]]
    for e in order.tolist():
        t = times_l[e]
        if len(leaves) == 1:
            for k in leaves:
                sole[k] += t - prev
        elif leaves:
            shared_total += t - prev
            for k in leaves:
                shared[k] += t - prev
        prev = t
        k = e if e < n else e - n
        p = parent[k]
        if e < n:
            live[k] = True
            leaves.add(k)
            if p >= 0:
                live_children[p] += 1
                leaves.discard(p)
        else:
            live[k] = False
            leaves.discard(k)
            if p >= 0:
                live_children[p] -= 1
                if live_children[p] == 0 and live[p]:
                    leaves.add(p)

    # CPU each span spent while sharing, estimated from its own CPU rate
    cpu_shared = [max(c, 0.0) * sh / (so + sh) if sh > 0 else 0.0
                  for c, so, sh in zip(own_cpu, sole, shared)]
    total = sum(cpu_shared)
    share = [so + (shared_total * c / total if total > 0 else 0.0)
             for so, c in zip(sole, cpu_shared)]

    incl = list(share)
    for k in np.argsort(starts, kind="stable")[::-1].tolist():
        if parent[k] >= 0:
            incl[parent[k]] += incl[k]

    out: dict[str, dict] = {}
    for k, s in enumerate(spans):
        agg = out.setdefault(names[s[1]], {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += share[k]
        agg["incl_s"] += incl[k]
    return out
