"""Run one workload of the rthy benchmark.

    python3 bench/run.py --workload decide|measure|modules --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; ``rthy`` is imported from ``src/``.
Set-up imports ``rthy.cli`` and writes the workload's seeded input files,
five times over, and reports the median.  The workload is then a closed
loop with one client and no threads: each query calls ``rthy.cli.run(argv)``
in-process with stdout captured, so it pays for argument parsing, JSON
read and parse, input validation, the library call and JSON emit, but not
for interpreter start.  Queries run in whole blocks of rounds (a block
holds the workload's whole mix of sizes), ending at the block boundary
nearest to ``--seconds`` once at least 200 queries have completed.  Every answer is checked
afterwards (see checks.py).

Times are scaled to a reference host speed.  On a shared host the speed of
the same code swings by up to 2x within seconds, and those swings, not the
program, would set the run-to-run spread.  So a calibration slice (a fixed
piece of exact ``Fraction`` arithmetic, about 1 ms) runs between queries
and, from a timer signal, every 50 ms while one runs; each query's wall
time, less the slices inside it, is multiplied by CAL_REF_S over the mean
time of the slices before, during and after it.  Set-up is scaled the
same way.  A
slice takes CAL_REF_S at the typical speed of the machine the baseline was
recorded on (bench/baseline.json), so scaled times read as milliseconds
there.  The program never runs the slices, so a change to it moves its
scaled times in proportion to its wall times.  The unscaled figures are
printed too, on the human-readable lines.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` every round of the pool runs untraced and then traced, in
whole passes until ``--seconds`` have passed, and the last line holds the
per-layer metrics (counts and busy times are totals per pass over the
pool); the spans are written to
``.bench_work/trace-<workload>-s<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from fractions import Fraction
from time import perf_counter

import checks  # the benchmark's own modules, next to this file
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_REPEATS = 5
MIN_QUERIES = 200        # so that at least 10 samples lie beyond p95
MAX_LOOP_SECONDS = 150   # keeps a much slower build inside the 180 s limit
CAL_TERMS = 400          # terms of the calibration slice's harmonic sum
CAL_REF_S = 1.3e-3       # a slice between queries at the baseline's typical speed
SAMPLE_S = 0.05          # seconds between the slices inside a query


def calibration_slice() -> float:
    """Seconds taken by a fixed piece of exact arithmetic.

    The garbage collector is held off, so that a collection the program's
    allocations are due lands in the program's time, not in the slice.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        s = Fraction(0)
        for i in range(1, CAL_TERMS):
            s += Fraction(1, i)
        return perf_counter() - t0
    finally:
        gc.enable()


class HostSpeed:
    """Scales wall times to the reference speed.

    A slice runs before the first query and after each one; between
    start() and stop(), a timer signal runs one more every SAMPLE_S seconds,
    so a long query is scaled by the speed the host had while it ran.  The
    factor is CAL_REF_S over the mean slice time, and the time the slices
    inside a query took is taken out of its wall time.
    """

    def __init__(self):
        self.before = calibration_slice()
        self.during = []
        self.paused = 0.0
        self.factors = []
        self.unscaled = []

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.during.append(calibration_slice())
        self.paused += perf_counter() - t0

    def start(self):
        self.during, self.paused = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, seconds: float) -> float:
        seconds -= self.paused
        after = calibration_slice()
        factor = CAL_REF_S / statistics.fmean([self.before, *self.during, after])
        self.before = after
        self.during, self.paused = [], 0.0
        self.factors.append(factor)
        self.unscaled.append(seconds)
        return seconds * factor


def import_cli():
    """Import rthy.cli from this checkout's src/, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "rthy" or k.startswith("rthy.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("rthy.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"rthy was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload, seed, workdir, rounds=0):
    """Repeated set-up; returns (cli module, pool, median set-up s, median import s).

    Both times are scaled to the reference host speed.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    totals, imports = [], []
    for rep in range(SETUP_REPEATS):
        target = os.path.join(workdir, f"setup{rep}")
        host = HostSpeed()
        host.start()
        t0 = perf_counter()
        try:
            cli = import_cli()
            t1 = perf_counter()
            pool = inputs.build(workload, seed, target, rounds)
        finally:
            host.stop()
        t2 = perf_counter()
        totals.append(host.scale(t2 - t0))
        imports.append((t1 - t0) * host.factors[-1])
        if rep:
            shutil.rmtree(os.path.join(workdir, f"setup{rep - 1}"))
    return cli, pool, statistics.median(totals), statistics.median(imports)


def run_queries(cli, queries, results, tracer=None, host=None):
    """Run queries in order; append (query, exit code, stdout, seconds).

    With a HostSpeed `host`, the seconds are scaled to the reference speed.
    """
    run = cli.run
    for q in queries:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.qid = q.qid
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if host is not None:
                host.start()
            t0 = perf_counter()
            try:
                code = run(q.argv)
            finally:
                if host is not None:
                    host.stop()
            t1 = perf_counter()
        seconds = t1 - t0 if host is None else host.scale(t1 - t0)
        results.append((q, code, out.getvalue(), seconds))


def timed_loop(cli, pool, seconds, block=1):
    """Whole blocks of `block` rounds, ending at the block boundary nearest
    to `seconds`, once MIN_QUERIES are done.  A block is the period of the
    workload's size schedule, so every run measures the same mix.

    Returns the results, with scaled times, and the HostSpeed that scaled them.
    """
    results = []
    host = HostSpeed()
    start = block_start = perf_counter()
    r = 0
    while True:
        run_queries(cli, pool[r % len(pool)], results, host=host)
        r += 1
        if r % block:
            continue
        now = perf_counter()
        wall, half_block = now - start, (now - block_start) / 2
        block_start = now
        if wall >= MAX_LOOP_SECONDS or (
                wall + half_block >= seconds and len(results) >= MIN_QUERIES):
            return results, host


def count_failures(results, reference):
    """Number of failed answers; identical outputs of one query are checked once."""
    verdicts = {}
    failed = 0
    for q, code, out, _ in results:
        key = (q.qid, code, out)
        if key not in verdicts:
            verdicts[key] = checks.check(q, code, out, reference)
            if verdicts[key]:
                print(f"FAIL {q.qid} {' '.join(q.argv[:2])}: {verdicts[key]}", file=sys.stderr)
        failed += verdicts[key] is not None
    return failed


def load_reference(workload):
    """Default-seed answers by query digest.  Digests cover the input bytes, so
    queries on bundled instances match on every seed."""
    with open(REFERENCE) as fh:
        return json.load(fh)["answers"][workload]


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(results, setup_s):
    """Throughput is queries over their summed (scaled) times, so the
    calibration slices between queries do not count."""
    lat = [r[3] * 1e3 for r in results]
    return {
        "setup_s": (setup_s, "s"),
        "throughput_qps": (len(results) / sum(r[3] for r in results), "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p95_ms": (percentile(lat, 95), "ms"),
        "success_ratio": (sum(r[1] == 0 for r in results) / len(results), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_passes(cli, pool, seconds, workload, seed):
    """Passes over the pool until `seconds` pass; each round runs untraced and
    then traced, so both sides of the overhead see the same machine state."""
    tracer = spans.Tracer()
    results = []
    untraced = traced = 0.0
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for rnd in pool:
            t0 = perf_counter()
            run_queries(cli, rnd, results)
            t1 = perf_counter()
            tracer.install()
            try:
                run_queries(cli, rnd, results, tracer)
            finally:
                tracer.uninstall()
            t2 = perf_counter()
            untraced += t1 - t0
            traced += t2 - t1
        passes += 1
    tracer.dump(os.path.join(WORK, f"trace-{workload}-s{seed}.jsonl"))
    return tracer, results, traced, untraced, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rthy", "cli.py")):
        print(f"bench: no rthy sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        cli, pool, setup_s, import_s = setup(args.workload, args.seed, workdir)
        reference = load_reference(args.workload)
        run_queries(cli, pool[0][:3], [])  # warm-up, not timed or counted
        if args.trace:
            tracer, results, traced, untraced, passes = traced_passes(
                cli, pool, args.seconds, args.workload, args.seed)
            metrics = tracer.metrics(traced, untraced, passes, import_s)
        else:
            results, host = timed_loop(cli, pool, args.seconds,
                                       inputs.ROUND_BLOCK[args.workload])
            metrics = end_to_end(results, setup_s)
            print(f"host speed factor: median {statistics.median(host.factors):.4g}, "
                  f"range {min(host.factors):.4g}-{max(host.factors):.4g}; unscaled: "
                  f"throughput_qps {len(host.unscaled) / sum(host.unscaled):.6g}, "
                  f"latency_p50_ms {statistics.median(host.unscaled) * 1e3:.6g}")
        failed = count_failures(results, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(results)
    checked = sum(r[0].digest in reference for r in results)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"queries={attempted} failed={failed} fail_ratio={failed / attempted:.6g} "
          f"reference_checked={checked}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
