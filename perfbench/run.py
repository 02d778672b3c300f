"""paqft benchmark: seeded workloads against the public paqft API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a paqft checkout; the library is imported from ./src.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  It measures set-up in
SETUP_REPEATS fresh interpreters (imports plus the workload's set-up), then
runs round(S / nominal pass time) passes.  Each pass builds its set-up state
fresh and runs the seeded items, every result checked by an oracle.  The
pass count depends only on S, so every run of a workload does the same work
(a run that overruns S by a quarter starts no further pass).  Every time
reported is scaled to the reference host speed (harness.REF_PROBE_S) by
probes timed next to it; the times as measured are printed beside them.

--trace 1 reports the per-layer metrics.  It runs pass 0 three times:
untraced, with spans around each call into paqft, and under cProfile for
attribution by source file.  The three must agree (same failures, digest and
counts).  Spans are written to perfbench/out/ as JSON.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import importlib  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Each workload runs the items of its parts (modules of this directory), in
# order, in every pass.  Two long workloads rather than four short ones: on a
# shared 2-vCPU host the speed swings by up to 1.8x in phases of seconds to
# minutes, and longer runs average over more of them.
WORKLOADS = {"exact": ("interacting", "free_wide"),
             "numeric": ("wavefront", "renorm")}
SETUP_REPEATS = 5
OVERRUN = 1.25      # start no pass once measuring has taken this x --seconds
TAIL_BEYOND = 10    # items beyond the reported tail percentile

END_TO_END = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms",
              "item_tail_ms": "ms", "peak_rss_mb": "MB"}
SPAN_METRICS = (
    "lattice.tables_s", "quantization.bogoliubov_init_s",
    "quantization.product_s", "quantization.alpha_H_s", "quantization.wick_s",
    "quantization.R_s", "quantization.Rinv_s",
    "quantization.star_interacting_s", "quantization.causal_factorization_s",
    "graphs.expand_Tn_s", "microlocal.wf2d_s", "microlocal.wf1d_s",
    "microlocal.flow_s", "formats.parse_s", "dist1d.pair_s",
    "egrenorm.sd_regression_s", "egrenorm.ambiguity_s", "egrenorm.ms_s",
    "egrenorm.feynman_square_s", "algebra.gns_s", "oracle_s")
PER_LAYER = dict(
    {name: "s" for name in SPAN_METRICS},
    **{"other_s": "s", "trace_overhead_s": "s",
       "fractions.self_s": "s", "fractions.calls": "count",
       "exact.self_s": "s", "exact.calls": "count",
       "series.self_s": "s", "series.calls": "count",
       "lattice.self_s": "s", "lattice.calls": "count",
       "quantization.self_s": "s", "graphs.self_s": "s",
       "functionals.self_s": "s", "dist1d.quad_calls": "count",
       "series.max_coeff_bits": "bits", "functionals.terms_out": "count",
       "graphs.graphs_enumerated": "count", "microlocal.rays": "count",
       "microlocal.singular_rays": "count", "warnings_count": "count"})


def cap_threads():
    """Cap BLAS/OpenMP pools at the CPUs this process may use."""
    n = str(len(os.sched_getaffinity(0)))
    caps = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n
        caps[var] = n
    return caps


def environment(caps):
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "platform": platform.platform(), "thread_caps": caps}


def tail(times):
    """Highest percentile with TAIL_BEYOND items beyond it: (value, pct).
    With no more items than that, the maximum."""
    s = sorted(times)
    k = len(s) - TAIL_BEYOND - 1 if len(s) > TAIL_BEYOND else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def setup_samples(args):
    """Imports plus set-up, each in a fresh interpreter: [(as measured,
    scaled to the reference host speed)]."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--setup-probe"]
    out = []
    for _ in range(SETUP_REPEATS):
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                           check=True)
        out.append(tuple(json.loads(r.stdout.strip().splitlines()[-1])))
    return out


class Workload:
    def __init__(self, parts):
        self.parts = parts
        self.nominal_pass_s = sum(p.NOMINAL_PASS_S for p in parts)

    def items(self, seed, pass_index, size, tracer):
        """Fresh set-up state for every part, then the part's seeded items."""
        out = []
        for part in self.parts:
            st = part.setup(seed, size, tracer)
            out += part.items(st, seed, pass_index, size)
        return out


def measure(wl, harness, args):
    """--trace 0: set-up samples, then the passes."""
    setups = setup_samples(args)
    n_passes = max(1, round(args.seconds / wl.nominal_pass_s))
    passes = []
    t_start = time.perf_counter()
    for p in range(n_passes):
        if passes and time.perf_counter() - t_start > OVERRUN * args.seconds:
            break
        passes.append(harness.run_pass(
            wl.items(args.seed, p, args.size, harness.OFF), scale=True))

    def summary(times, walls, setup):
        value, pct = tail(times)
        return {"setup_s": statistics.median(setup),
                "wall_s": statistics.median(walls),
                "item_p50_ms": 1e3 * statistics.median(times),
                "item_tail_ms": 1e3 * value}, pct

    times = [t for r in passes for t in r.scaled_times]
    metrics, tail_pct = summary(
        times, [r.scaled_wall for r in passes], [s for _, s in setups])
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    measured, _ = summary([t for r in passes for t in r.item_times],
                          [r.wall for r in passes], [m for m, _ in setups])
    by_kind = {}
    for r in passes:
        for kind, t in zip(r.kinds, r.scaled_times):
            by_kind.setdefault(kind, []).append(t)
    report = {"setup_samples_s": setups, "pass_walls_s": [r.wall for r in passes],
              "scaled_pass_walls_s": [r.scaled_wall for r in passes],
              "as_measured": measured,
              "items": len(times), "tail_percentile": tail_pct,
              "item_median_ms_by_kind": {
                  k: 1e3 * statistics.median(v) for k, v in by_kind.items()},
              "digest_pass0": "%032x" % passes[0].tally.digest,
              "warnings": sum(r.n_warnings for r in passes)}
    print("%s seed %d: %d passes, %d items; tail = p%.1f; setup samples "
          "(measured, scaled) %s; digest(pass 0) %s"
          % (args.workload, args.seed, len(passes), len(times), tail_pct,
             ["%.4f/%.4f" % s for s in setups], report["digest_pass0"]))
    print("as measured: %s" % ", ".join(
        "%s %.4f" % kv for kv in measured.items()))
    print("median ms by kind: %s" % ", ".join(
        "%s %.1f (%d)" % (k, 1e3 * statistics.median(v), len(v))
        for k, v in by_kind.items()))
    return passes, metrics, report


def traced(wl, harness, args):
    """--trace 1: pass 0 untraced, with spans, and under the profiler."""
    ref = harness.run_pass(wl.items(args.seed, 0, args.size, harness.OFF))
    tracer = harness.Tracer()
    spanned = harness.run_pass(wl.items(args.seed, 0, args.size, tracer),
                               tracer)
    profiled, attribution = harness.profile_pass(
        wl.items(args.seed, 0, args.size, harness.OFF))
    passes = [ref, spanned, profiled]

    self_times = tracer.self_times()
    # layer spans sit directly inside item spans; set-up spans have no parent
    covered = sum(s["end"] - s["start"] for s in tracer.spans
                  if s["parent"] is not None)
    t = ref.tally
    metrics = {name: 0.0 if unit == "s" else 0
               for name, unit in PER_LAYER.items()}
    metrics.update({k: v for k, v in self_times.items() if k in PER_LAYER})
    metrics.update({k: int(v) if PER_LAYER[k] == "count" else v
                    for k, v in attribution.items() if k in PER_LAYER})
    metrics.update({k: v for k, v in t.counts.items()})
    metrics.update({
        "other_s": spanned.wall - covered,
        "trace_overhead_s": spanned.wall - ref.wall,
        "series.max_coeff_bits": t.max_coeff_bits,
        "functionals.terms_out": t.terms_out,
        "warnings_count": ref.n_warnings,
    })
    repeat = [(r.failed, r.tally.digest, r.tally.max_coeff_bits,
               r.tally.terms_out, dict(r.tally.counts), r.n_warnings)
              for r in passes]
    report = {"pass_walls_s": [r.wall for r in passes],
              "profiled_wall_s": profiled.wall,
              "digest_pass0": "%032x" % t.digest,
              "repeatable": all(x == repeat[0] for x in repeat),
              "spans": tracer.spans}
    print("%s seed %d traced: untraced %.3f s, spans %.3f s, profiled %.3f s;"
          " other_s %.3f s (%.1f%% of wall); digest(pass 0) %s; repeatable %s"
          % (args.workload, args.seed, ref.wall, spanned.wall, profiled.wall,
             metrics["other_s"], 100 * metrics["other_s"] / spanned.wall,
             report["digest_pass0"], report["repeatable"]))
    return passes, metrics, report


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=48.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the tests run "tiny"; --setup-probe times one fresh set-up
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load(workload):
    """Import the workload's parts with paqft taken from this checkout."""
    if not (SRC / "paqft" / "__init__.py").is_file():
        raise SystemExit("perfbench: no paqft sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    parts = [importlib.import_module(p) for p in WORKLOADS[workload]]
    import paqft
    if Path(paqft.__file__).resolve().parent != SRC / "paqft":
        raise SystemExit("perfbench: paqft imported from %s, not %s"
                         % (paqft.__file__, SRC))
    return Workload(parts)


def main(argv=None):
    args = parse_args(argv)
    caps = cap_threads()
    wl = load(args.workload)
    import harness
    if args.setup_probe:
        for part in wl.parts:
            part.setup(args.seed, args.size, harness.OFF)
        t = time.perf_counter() - _T0
        speed = harness.speed_factor(harness.probe_times(9))
        print(json.dumps([t, t * speed]))
        return 0

    run = traced if args.trace else measure
    passes, metrics, report = run(wl, harness, args)
    attempted = sum(len(r.item_times) for r in passes)
    failed = sum(r.failed for r in passes)
    correct = failed == 0 and report.get("repeatable", True)
    units = PER_LAYER if args.trace else END_TO_END
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"args": vars(args), "environment": environment(caps),
              "result": result, "report": report}
    path = out_dir / ("%s-seed%d-trace%d.json"
                      % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1, default=str))
    print("environment: %s" % json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
