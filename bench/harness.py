"""Set-up, timed passes, traced passes and the metrics of one benchmark run.

Imported by run.py after BLAS is pinned and ``src`` is on the path.
"""

import math
import os
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import gauge
import locc_lab
import spans
import workloads

OUT = Path(__file__).resolve().parent.parent / ".bench_out"
MIN_OPS = 100  # timed operations a run makes at least
TRACE_PAIRS = 3  # untraced/traced pass pairs at least, for the tracing overhead
LAYERS = ("states", "measurements", "oneway", "protocols", "simulate", "cli")
NULL = spans.NullTracer()


class Tally:
    """Per-operation CPU times, failures and MC operations.

    CPU time is the process's own (time.process_time). On a shared virtual
    machine the host takes the CPU away for stretches of seconds (steal
    time); wall time counts those stretches, CPU time does not. The program
    is single-threaded with BLAS pinned to one thread and does no I/O in the
    timed operations, so on a machine of its own the two agree. With a
    ``gauge``, the machine's speed is sampled between operations.
    """

    def __init__(self, gauge=None):
        self.durations = []  # CPU seconds
        self.by_op = {}
        self.by_slot = {}  # (tag, position in its list) -> CPU seconds of each run
        self.failed = 0
        self.mc = []  # (job, trials, seconds) of each MC operation
        self.gauge = gauge

    def run(self, ops, tr=NULL, tag="pass"):
        """Run ``ops`` in order. Every pass of a workload lists the same
        operations in the same order, so (tag, position) names one operation
        across passes."""
        for slot, (name, fn, job) in enumerate(ops):
            if self.gauge:
                self.gauge.tick()
            c0 = time.process_time()
            trials = 0
            try:
                with tr.op(name):
                    trials = fn(tr, job)
            except Exception as exc:  # one failed operation must not end the run
                self.failed += 1
                if self.failed <= 5:
                    kind = "wrong verdict" if isinstance(exc, workloads.VerdictError) else "raised"
                    print(f"bench: {name} {kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
            dt = time.process_time() - c0
            self.durations.append(dt)
            self.by_op.setdefault(name, []).append(dt)
            self.by_slot.setdefault((tag, slot), []).append(dt)
            if trials:
                self.mc.append((job, trials, dt))


def set_up(workload, seed):
    """Inputs from the seed, then a warm-up slice of the workload."""
    OUT.mkdir(exist_ok=True)
    inputs = workloads.draw_inputs(workload, seed)
    Tally().run(workloads.build_warmup(workload, inputs))
    return inputs


def environment():
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def timed_passes(workload, inputs, seconds, tally):
    """Whole passes, untraced, until ``seconds`` of wall time have passed and
    MIN_OPS are done."""
    start = time.perf_counter()
    index = 0
    while True:
        tally.run(workloads.build_pass(workload, inputs, index))
        index += 1
        if time.perf_counter() - start >= seconds and len(tally.durations) >= MIN_OPS:
            return


def exact_ms(mc):
    """Per MC call name: the trials, and the milliseconds of the exact
    evaluation that the call runs after its trials.

    That part is timed here, outside any operation, on the same inputs: the
    median of three calls per distinct input, counted once for every run of
    the operation. Taken out of the operations' time, it leaves sampling.
    """
    cost = {}
    out = {}
    for job, trials, _ in mc:
        name, fn = job["exact"]
        key = (name, job["kind"], job["d"])
        if key not in cost:
            times = []
            for _ in range(3):
                t0 = time.process_time()
                fn()
                times.append(time.process_time() - t0)
            cost[key] = 1e3 * float(np.median(times))
        f = out.setdefault(name, {"trials": 0, "exact_ms": 0.0})
        f["trials"] += trials
        f["exact_ms"] += cost[key]
    return out


def hd_quantile(values, q):
    """Harrell-Davis estimate of quantile ``q``.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics rather
    than one of them. A workload has few distinct operations (12 a pass on
    protocol-sim) whose times differ by orders of magnitude, so a plain
    percentile jumps from one operation to the next; this estimate weighs
    the operations around the quantile smoothly.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    # the Beta density is negligible beyond 12 standard deviations of its mean q
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    t = np.linspace(max(0.0, q - 12 * sd), min(1.0, q + 12 * sd), 20001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.cumsum(np.exp(log_pdf - log_pdf.max()))
    edges = np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1], left=0.0, right=1.0)
    return float(np.diff(edges) @ x)


def measure(args, inputs, setup, declared):
    """Untraced passes and the end-to-end metrics, or with ``--trace 1``
    untraced and traced passes and the per-layer metrics.

    Returns the result object and the human-readable lines printed before it.
    """
    tally = Tally() if args.trace else Tally(gauge.Gauge())
    env = environment()
    digest = workloads.digest(inputs)
    lines = [f"workload {args.workload}  seed {args.seed}  inputs sha256:{digest}",
             "env " + "  ".join(f"{k} {v}" for k, v in env.items())]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        extras = workloads.build_extras(args.workload, inputs, tmp)
        if args.trace:
            header = {"workload": args.workload, "seed": args.seed, "inputs_sha256": digest, "env": env}
            metrics = traced(args, inputs, extras, tally, declared, header, lines)
        else:
            t0, c0 = time.perf_counter(), time.process_time()
            timed_passes(args.workload, inputs, args.seconds, tally)
            tally.run(extras, tag="extra")
            elapsed = (time.process_time() - c0, time.perf_counter() - t0)
            metrics = end_to_end(tally, elapsed, setup, lines)
    result = {
        "correct": tally.failed == 0,
        "attempted": len(tally.durations),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": declared.get(k, "?")} for k, v in metrics.items()},
    }
    return result, lines


def end_to_end(tally, elapsed, setup, lines):
    """The gated metrics and the printed-only ones. ``elapsed`` is (CPU,
    wall) seconds of the timed phase, ``setup`` (scaled, CPU) seconds of
    set-up from run.py.

    Gated times are CPU times scaled to the reference speed of gauge.py, so
    that neither the host's steal time nor its slow spells move them. The
    unscaled CPU figures and the wall-clock ones are printed beside them.

    Latencies are taken over the distinct operations of a pass, each at its
    median time over the passes; the once-per-run operations count only in
    ops_per_ref_s. Every pass runs the same operations, 12 to 2240 of them,
    whose costs differ by orders of magnitude and cluster by kind. A
    quantile of all the single times falls in a gap between two clusters
    and is decided by the outliers of both, while the median of each
    operation is steady. The typical latency is their geometric mean, the
    centre on a log scale: the median sits right between the cheap and the
    dear kinds on lattice-sweep (half of each pass), where a slow spell of
    the host moves it by twice as much as it moves anything else. The tail
    is their p90, printed with the p50.
    """
    # read before the statistics below allocate anything
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cpu_s, wall_s = elapsed
    scale = tally.gauge.scale()
    n = len(tally.durations)
    # one time per distinct operation of the passes: its median over them
    op_ms = [1e3 * float(np.median(ds)) for (tag, _), ds in tally.by_slot.items() if tag == "pass"]
    gmean = math.exp(float(np.mean(np.log(op_ms))))
    p50, p90 = hd_quantile(op_ms, 0.5), hd_quantile(op_ms, 0.9)
    metrics = {
        "setup_s": setup[0],
        "ops_per_ref_s": n / (scale * cpu_s),
        "op_ref_gmean_ms": scale * gmean,
        "op_ref_p90_ms": scale * p90,
        "peak_rss_mb": peak_rss_mb,
    }
    # Printed but not in BENCHMARK.json, which needs metrics that every
    # workload reports, that are never 0 and that the host's speed does not
    # swamp.
    extra = {"failed_frac": (tally.failed / n, "1"), "op_ref_p50_ms": (scale * p50, "ms")}
    if len(op_ms) >= 1000:  # p99 needs ten operations beyond it
        extra["op_ref_p99_ms"] = (scale * hd_quantile(op_ms, 0.99), "ms")
    if tally.mc:
        # the d=64 wall operation counts no trials; see workloads.op_mc_randomized
        split = exact_ms(tally.mc).values()
        sampling_s = sum(dt for *_, dt in tally.mc) - sum(f["exact_ms"] for f in split) / 1e3
        extra["mc_trials_per_ref_s"] = (sum(f["trials"] for f in split) / (scale * sampling_s), "1/s")
    extra.update({
        "speed_scale": (scale, "1"),
        "gauge_samples": (len(tally.gauge.samples), "count"),
        "setup_cpu_s": (setup[1], "s"),
        "ops_per_cpu_s": (n / cpu_s, "1/s"),
        "op_cpu_gmean_ms": (gmean, "ms"),
        "op_cpu_p90_ms": (p90, "ms"),
        "ops_per_s": (n / wall_s, "1/s"),
        "distinct_ops": (len(op_ms), "count"),
        "cpu_share": (cpu_s / wall_s, "1"),
    })
    lines.append(f"{n} operations, {tally.failed} failed")
    lines += [f"  {op:<16} n={len(ds):<6} median {1e3 * float(np.median(ds)):10.3f} ms"
              for op, ds in tally.by_op.items()]
    lines.append("end-to-end metrics (tracing off; CPU time of this process scaled to the "
                 "reference speed of gauge.py; quantiles are Harrell-Davis estimates over "
                 "distinct operations, each at its median over the passes):")
    lines += [f"  {k:<16} {v:14.6g}" for k, v in metrics.items()]
    lines.append("printed only (workload-specific, 0 when every verdict is right, unscaled, or "
                 "wall-clock; speed_scale below 1 is a slow spell, cpu_share below 1 is steal time):")
    lines += [f"  {k:<16} {v:14.6g} {u}" for k, (v, u) in extra.items()]
    return metrics


def traced(args, inputs, extras, tally, declared, header, lines):
    """Untraced and traced passes of the same operations in turn, then a
    tracemalloc pass for allocation peaks.

    Times here are unscaled CPU times; the gauge runs only in timed runs.
    The pairs run until ``--seconds`` have passed and at least TRACE_PAIRS
    are done. The order inside a pair alternates, so that a drift of the
    machine's speed falls on both sides, and the tracing overhead is the
    median of the per-pair differences. Per-layer times and counts come from
    the first traced pass and the once-per-run operations after it;
    tracemalloc slows allocation-heavy code, so its pass gives only peaks.
    """
    ops = workloads.build_pass(args.workload, inputs, 0)
    timing, mc, pairs = None, [], []
    start = time.perf_counter()
    while len(pairs) < TRACE_PAIRS or time.perf_counter() - start < args.seconds:
        rate = {}
        for on in (False, True) if len(pairs) % 2 == 0 else (True, False):
            tr = spans.Tracer() if on else NULL
            first_mc = len(tally.mc)
            t0 = time.process_time()
            tally.run(ops, tr)
            rate[on] = len(ops) / (time.process_time() - t0)
            if on and timing is None:
                timing, mc = tr, tally.mc[first_mc:]
        pairs.append((rate[False], rate[True]))
    tally.run(extras, timing, tag="extra")
    for name, f in exact_ms(mc).items():
        timing.add(name, "exact_ms", f["exact_ms"])
    memory = spans.Tracer(memory=True)
    tracemalloc.start()
    tally.run(workloads.build_pass(args.workload, inputs, 1), memory)
    tally.run(extras, memory, tag="extra")
    tracemalloc.stop()
    untraced, traced_ = (float(np.median(r)) for r in zip(*pairs))
    overhead = {
        "trace.ops_per_cpu_s_untraced": untraced,
        "trace.ops_per_cpu_s_traced": traced_,
        "trace.ops_per_cpu_s_delta": float(np.median([t - u for u, t in pairs])),
    }
    metrics, idle = per_layer(timing, memory, overhead, declared)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    timing.write(path, header)
    lines += [
        f"traced: {len(pairs)} pairs of an untraced and a traced pass of {len(ops)} operations; "
        f"the first traced pass plus the once-per-run operations give {len(timing.spans)} spans, "
        f"written to {path}; then a pass under tracemalloc",
        "tracing overhead: medians over the pairs of ops_per_cpu_s untraced, traced, and traced minus untraced",
        "one thread, no queues, no retries: no layer has a wait time or a wasted-work ratio",
        "numerics is measured only through its callers; errors does no work",
        "cli.main self time covers every layer it calls: the program records no spans yet",
        "us_per_trial: call time less the exact evaluation the call runs after its trials, "
        "timed apart on the same inputs",
    ]
    if idle:
        lines.append("never called on this workload, so their metrics read 0: " + ", ".join(idle))
    lines.append("per-layer metrics:")
    lines += [f"  {k:<52} {v:14.6g} {declared[k]}" for k, v in metrics.items()]
    return metrics


def per_layer(timing, memory, overhead, names):
    """The per-layer metrics named in ``names``, and the functions never called.

    Times and counts come from the timing pass, allocation peaks from the
    tracemalloc pass.
    """
    funcs = timing.functions()
    for name, f in memory.functions().items():
        funcs.setdefault(name, {})["peak_alloc_mb"] = f.get("peak_alloc_mb", 0.0)
    fixed = dict(overhead, **{"bench.self_ms": timing.bench_self_ms()})
    for layer in LAYERS:
        fixed[f"layer.{layer}.self_ms"] = sum(
            f.get("self_ms", 0.0) for name, f in funcs.items() if name.startswith(layer + ".")
        )
    out = {}
    idle = set()
    for name in names:
        if name in fixed:
            out[name] = fixed[name]
            continue
        func, metric = name.rsplit(".", 1)
        f = funcs.get(func, {})
        if not f.get("calls"):
            idle.add(func)
        if metric == "us_per_leaf":
            out[name] = f["self_ms"] * 1e3 / f["leaf_visits"] if f.get("leaf_visits") else 0.0
        elif metric == "us_per_trial":
            out[name] = (f["trial_ms"] - f["exact_ms"]) * 1e3 / f["trials"] if f.get("trials") else 0.0
        else:
            out[name] = f.get(metric, 0)
    return out, sorted(idle)
