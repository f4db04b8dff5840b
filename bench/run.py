"""Verdict benchmark of locc_lab: seeded workloads, every verdict checked.

Run from the repository root:

    python3 bench/run.py --workload dense-ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One run is one process. It times cold set-up in fresh processes, runs whole
passes of its workload with tracing off until ``--seconds`` have passed and
at least MIN_OPS operations are done, then the once-per-run operations (the
CLI step last). Times are CPU times of the process, scaled to a reference
machine speed that a fixed kernel measures between operations (gauge.py);
unscaled and wall-clock figures are printed beside them. The last line of
standard output is one JSON object with the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics instead,
from untraced and traced passes run in turn.
``--workload all`` runs each workload in its own process and prints a table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Unpinned BLAS timings on a small shared machine are noise; pin before any
# numpy import, for this process and the set-up processes it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("dense-ladder", "lattice-sweep", "protocol-sim")
SETUP_PROBES = 15


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fail(message, code=2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def declared_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def setup_probe_seconds(args):
    """Set-up time: the median CPU time of a fresh process from its start to
    the end of its set-up (interpreter start, imports, inputs and warm-up),
    and that median scaled to the reference speed of gauge.py, as the
    operations are (see harness.Tally). The kernel runs after each probe, so
    that the scale is measured in the same minute as the probes."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    sys.path.insert(0, str(ROOT / "bench"))
    import gauge

    meter = gauge.Gauge()
    samples = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if res.returncode != 0:
            fail(f"set-up probe failed:\n{res.stderr}", 1)
        samples.append(float(res.stdout.split()[-1]))
        meter.sample()
    cpu_s = statistics.median(samples)
    return meter.scale() * cpu_s, cpu_s


def run_all(args):
    """Each workload in its own process, then one table of every metric."""
    rows = {}
    for w in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            fail(f"{w} exited {res.returncode}", 1)
        rows[w] = json.loads(res.stdout.splitlines()[-1])
    print(f"{'metric':<56}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name, unit in declared_metrics(args.trace).items():
        cells = "".join(f"{rows[w]['metrics'][name]['value']:16.6g}" for w in WORKLOADS)
        print(f"{name + ' [' + unit + ']':<56}{cells}")
    print(f"{'failed/attempted':<56}"
          + "".join(f"{str(rows[w]['failed']) + '/' + str(rows[w]['attempted']):>16}" for w in WORKLOADS))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "locc_lab" / "__init__.py").is_file():
        fail(f"no program source at {SRC}; run from a full checkout")
    if args.workload == "all":
        return run_all(args)
    setup = None if args.trace or args.setup_probe else setup_probe_seconds(args)

    sys.path.insert(0, str(SRC))
    import harness

    if Path(harness.locc_lab.__file__).resolve().parent != SRC / "locc_lab":
        fail(f"imported locc_lab from {harness.locc_lab.__file__}, not from {SRC}")
    inputs = harness.set_up(args.workload, args.seed)
    if args.setup_probe:
        print(time.process_time())
        return 0

    declared = declared_metrics(args.trace)
    result, lines = harness.measure(args, inputs, setup, declared)
    if set(result["metrics"]) != set(declared):
        fail(f"metrics {sorted(set(result['metrics']) ^ set(declared))} disagree with BENCHMARK.json", 3)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
