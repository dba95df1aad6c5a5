"""Benchmark of hodge-degen: three workloads, timed end to end and per module.

    python3 perfbench/run.py --workload corpus|validate-json|tables \
        --seed N --seconds S --trace 0|1

Run from a source checkout; the package is imported from its `src`.  Each
workload runs in this one process as a closed loop: an operation starts when
the previous one has returned.  A round is one pass over the workload's
operations; rounds repeat while the next one is expected to end within S
seconds (at least one round runs).

Times are taken at a reference speed (see Speed): the cores of a shared
machine change speed by up to 2x over seconds, so raw wall times spread too
far between runs to compare two commits.

--trace 0 reports the end-to-end metrics:
  wall_s       median over rounds of a round's wall time, tracing off
  setup_s      median over five fresh set-ups (this process and four others)
               of the time from the benchmark's first statement to its first
               timed operation: importing hodge_degen and building the inputs
  peak_rss_mb  ru_maxrss of this process after the rounds
--trace 1 runs one untraced round, then traced rounds, and reports the
per-layer metrics of spans.LAYER_METRICS, per round.  The spans go to
perfbench/out/trace-<workload>-seed<N>.json.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit code 0 when every output passed its checks, 1 when one did
not, 2 when the package cannot be found.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("corpus", "validate-json", "tables")
SETUP_SAMPLES = 4  # fresh set-ups per run besides this process's own


class Speed:
    """The machine's speed, sampled every INTERVAL_S of wall time.

    A SIGALRM handler times a fixed loop of Fraction arithmetic, the kind of
    work the program does.  A measured span becomes (its wall time minus the
    time the handler took inside it) * REF_SAMPLE_S / (mean sample inside
    it): the span's time at the reference speed, at which the loop takes
    REF_SAMPLE_S (about the median on the machine of the README).  A span
    too short to hold a sample uses the latest one.  Scaling with samples
    taken only between operations left a 1 s operation spreading by 8-12%
    over repeats; sampling inside it, by 3-5%.
    """

    INTERVAL_S = 0.01
    LOOP = 100
    REF_SAMPLE_S = 0.0004

    def __init__(self):
        self.samples, self.spent = [], 0.0

    def sample(self, *_):
        t = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, self.LOOP):
            acc += Fraction(1, i % 97 + 1)
        d = time.perf_counter() - t
        self.samples.append(d)
        self.spent += d

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self, at=None):
        return (time.perf_counter() if at is None else at, self.spent, len(self.samples))

    def since(self, mark):
        """(raw wall time, time at the reference speed) since mark."""
        t, spent, k = mark
        raw = time.perf_counter() - t
        own = raw - (self.spent - spent)
        if len(self.samples) == k:
            if not self.samples:
                self.sample()
            inside = self.samples[-1:]
        else:
            inside = self.samples[k:]
        return raw, own * self.REF_SAMPLE_S / statistics.fmean(inside)


SPEED = Speed()


def load(workload, seed):
    """Import hodge_degen from the checkout's src and build the workload."""
    sys.path[:0] = [SRC, HERE]
    import workloads
    return workloads.setup(workload, seed, OUT)


def setup_sample(workload, seed):
    """Set-up time of a fresh process that stops before the first operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def rounds(wl, seconds, run):
    """Timed rounds: (round times at the reference speed, raw round times,
    attempted, failed, problems)."""
    scaled, raw, attempted, failed, problems = [], [], 0, 0, []
    start = time.perf_counter()
    while True:
        outs, total, total_scaled = [], 0.0, 0.0
        for op in wl.ops:
            mark = SPEED.mark()
            try:
                outs.append(run(op))
            except Exception as e:  # an operation that raises counts as failed
                outs.append(e)
            r, s = SPEED.since(mark)
            total += r
            total_scaled += s
        raw.append(total)
        scaled.append(total_scaled)
        attempted += len(wl.ops)
        for op, out in zip(wl.ops, outs):
            if isinstance(out, Exception):
                failed += 1
                problems.append("%r raised %s: %s" % (op[:2], type(out).__name__, out))
            else:
                problems += wl.check(op, out)
        if time.perf_counter() - start + statistics.median(raw) > seconds:
            return scaled, raw, attempted, failed, problems


def end_to_end(wl, args, own_setup):
    times, raw, attempted, failed, problems = rounds(wl, args.seconds, wl.run)
    SPEED.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += wl.final_problems()
    setups = [own_setup] + [setup_sample(args.workload, args.seed)
                            for _ in range(SETUP_SAMPLES)]
    metrics = {"wall_s": (statistics.median(times), "s"),
               "setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (rss_mb, "MB")}
    detail = {"round_s": times, "round_raw_s": raw, "setup_samples_s": setups}
    return attempted, failed, problems, metrics, detail


def traced(wl, args):
    import spans
    reference, _, attempted, failed, problems = rounds(wl, 0, wl.run)
    tracer = spans.Tracer()
    ops = {id(op): i for i, op in enumerate(wl.ops)}
    op_span = tracer.wrap("bench.op", wl.run)

    def run(op):
        tracer.current_op = ops[id(op)]
        return op_span(op)

    tracer.install()
    try:
        times, _, a, f, p = rounds(wl, max(args.seconds - reference[0], 0), run)
    finally:
        tracer.uninstall()
        SPEED.stop()
    attempted, failed, problems = attempted + a, failed + f, problems + p
    problems += wl.final_problems()
    metrics = spans.layer_metrics(tracer.totals(), len(times), wl.data_per_round)
    metrics["gq.rref.max_cells"] = (tracer.max_cells, "count")
    metrics["trace.overhead_s"] = (statistics.median(times) - reference[0], "s")
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed)))
    detail = {"untraced_round_s": reference, "traced_round_s": times,
              "spans": len(tracer.start)}
    return attempted, failed, problems, metrics, detail


def main(argv=None):
    SPEED.start()
    setup_mark = SPEED.mark(at=T0)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hodge_degen", "__init__.py")):
        SPEED.stop()
        print("perfbench: no hodge_degen package under %s" % SRC, file=sys.stderr)
        return 2
    wl = load(args.workload, args.seed)
    own_setup = SPEED.since(setup_mark)[1]
    if args.setup_only:
        SPEED.stop()
        print(repr(own_setup))
        return 0
    if args.trace:
        attempted, failed, problems, metrics, detail = traced(wl, args)
    else:
        attempted, failed, problems, metrics, detail = end_to_end(wl, args, own_setup)
    for p in problems[:20]:
        print("CHECK FAILED: %s" % p, file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "result-%s-trace%d-seed%d.json"
                           % (args.workload, args.trace, args.seed)), "w") as fh:
        json.dump(dict(result, detail=detail), fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
