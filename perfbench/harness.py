"""Pass runner, spans, result tallies and profiler attribution.

A workload turns its seeded inputs into a list of items: (kind, fn) pairs
where fn(tracer, tally) calls into paqft, checks the result against an
oracle and returns True when the check holds.  run_pass times every item,
counts failures (a raised exception is a failure too) and records warnings
instead of silencing them.

Host speed.  On a shared host the same code runs up to 1.5x slower for
seconds to minutes at a time, while other tenants load the CPU's siblings;
process CPU time slows with wall time, so it is no steadier.  A measuring
pass therefore also times a fixed pure-Python probe right before and right
after each item, on the CPU the item runs on, and scales the item's time by
REF_PROBE_S / (median probe time): an item's scaled time is what it would
have taken on the host at the speed where the probe takes REF_PROBE_S.
"""

import cProfile
import hashlib
import os
import pstats
import statistics
import sys
import time
import traceback
import warnings
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans (name, start, end, parent, item) kept in memory.

    A disabled tracer records nothing; its span() costs one generator per
    call, which is noise next to the library calls it wraps.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self.item = None
        self._open = []

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None,
               "item": self.item}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self):
        """Per span name: duration minus the time covered by child spans."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s["name"]] += s["end"] - s["start"] - child[i]
        return dict(out)


OFF = Tracer(enabled=False)


def _bits(q):
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tally:
    """What a pass produced: exact results for the digest and the
    coefficient counters, and plain counts (rays, graphs)."""

    def __init__(self):
        self.digest = 0
        self.max_coeff_bits = 0
        self.terms_out = 0
        self.counts = defaultdict(int)
        self.rays = []

    def exact(self, F):
        """Fold one exact PolyFunctional into the order-independent digest."""
        lines = []
        for key, series in F.terms.items():
            for (h, l), c in series.coeff.items():
                lines.append("%s|%d|%d|%s|%s" % (key, h, l, c.re, c.im))
                self.max_coeff_bits = max(self.max_coeff_bits,
                                          _bits(c.re), _bits(c.im))
        lines.sort()
        h = hashlib.sha256("\n".join(lines).encode()).digest()
        self.digest = (self.digest + int.from_bytes(h[:16], "big")) % (1 << 128)
        self.terms_out += len(F.terms)


class PassResult:
    """item_times and wall are as measured; scaled_times and scaled_wall
    are at the reference host speed (empty and None unless measured with
    scale=True)."""

    def __init__(self, wall, kinds, item_times, failed, n_warnings, tally,
                 scaled_times=()):
        self.wall = wall
        self.kinds = kinds
        self.item_times = item_times
        self.failed = failed
        self.n_warnings = n_warnings
        self.tally = tally
        self.scaled_times = list(scaled_times)
        self.scaled_wall = sum(scaled_times) if scaled_times else None


CPUS = sorted(os.sched_getaffinity(0))


def _probe():
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


# Median time of _probe on the 2-vCPU Xeon host where baseline.json was
# recorded (CPython 3.11).  A constant, so that scaled times of two commits
# measured on one host compare directly.
REF_PROBE_S = 1.40e-3
PROBES = 5          # probe timings before and after each item


def probe_times(n=PROBES):
    out = []
    for _ in range(n):
        t = time.perf_counter()
        _probe()
        out.append(time.perf_counter() - t)
    return out


def speed_factor(probes):
    """REF_PROBE_S over the median of the probe timings: below 1 while the
    host runs slow."""
    return REF_PROBE_S / statistics.median(probes)


def pin_fastest_cpu():
    """Pin this thread to the usable CPU that runs a 1-2 ms probe fastest.

    On a shared host the CPUs are slowed in turn, for seconds at a time, by
    other tenants' work on their sibling threads; timing each item on the
    least contended CPU keeps some of that out of the numbers.
    """
    best = None
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        t = time.perf_counter()
        _probe()
        t = time.perf_counter() - t
        if best is None or t < best[0]:
            best = (t, cpu)
    os.sched_setaffinity(0, {best[1]})


def run_pass(items, tracer=OFF, scale=False):
    """Run every item once, in order; time each one and the whole pass
    (the CPU choice and the probes around each item are not timed).
    With scale, also the item times at the reference host speed."""
    tally = Tally()
    times, scaled, failed, n_warn = [], [], 0, 0
    t_pass = time.perf_counter()
    t_untimed = 0.0
    for i, (kind, fn) in enumerate(items):
        tracer.item = i
        t_pre = time.perf_counter()
        if len(CPUS) > 1:
            pin_fastest_cpu()
        probes = probe_times() if scale else []
        t0 = time.perf_counter()
        t_untimed += t0 - t_pre
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                with tracer.span("item:" + kind):
                    ok = fn(tracer, tally)
            except Exception:  # a raising item is a failed item; keep going
                traceback.print_exc(file=sys.stderr)
                ok = False
        t_item = time.perf_counter() - t0
        times.append(t_item)
        if scale:
            t_post = time.perf_counter()
            probes += probe_times()
            scaled.append(t_item * speed_factor(probes))
            t_untimed += time.perf_counter() - t_post
        n_warn += len(caught)
        if not ok:
            failed += 1
            print("FAILED item %d (%s)" % (i, kind), file=sys.stderr)
    wall = time.perf_counter() - t_pass - t_untimed
    os.sched_setaffinity(0, CPUS)
    tracer.item = None
    return PassResult(wall, [kind for kind, _ in items], times, failed,
                      n_warn, tally, scaled)


# ------------------------------------------------------- profiler attribution

# paqft source files whose self time and call counts are reported
PROFILED_MODULES = ("exact", "series", "lattice", "functionals",
                    "quantization", "graphs")


def _paqft_module(path):
    head, tail = os.path.split(path)
    if os.path.basename(head) == "paqft" and tail.endswith(".py"):
        return tail[:-3]
    return None


def profile_pass(items):
    """Run one pass under cProfile; return (PassResult, attribution dict)."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        res = run_pass(items)
    finally:
        prof.disable()
    return res, attribute(pstats.Stats(prof).stats)


def attribute(stats):
    """Self time and call counts by source file.

    stdlib `fractions` and the `math.gcd` builtin it leans on count as the
    `fractions` layer; `dist1d.quad_calls` counts scipy `quad` calls whose
    caller is paqft/dist1d.py.
    """
    out = defaultdict(float)
    for (path, _line, func), (_cc, nc, tt, _ct, callers) in stats.items():
        mod = _paqft_module(path)
        if mod in PROFILED_MODULES:
            layer = mod
        elif (os.path.basename(path) == "fractions.py"
              or (path == "~" and "math.gcd" in func)):
            layer = "fractions"
        else:
            layer = None
        if layer:
            out[layer + ".self_s"] += tt
            out[layer + ".calls"] += nc
        if func == "quad" and os.path.basename(path) == "_quadpack_py.py":
            out["dist1d.quad_calls"] += sum(
                c[0] for caller, c in callers.items()
                if _paqft_module(caller[0]) == "dist1d")
    return dict(out)
