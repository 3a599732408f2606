"""Benchmark of the bakergame library: seeded closed-loop workloads.

    python3 perfbench/run.py --workload solve-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its
``src/`` directory and nothing else.  One single-threaded process
calls the library in a closed loop: the next call starts when the
previous one returns.

A run sets up its workload several times, then repeats passes over
the same calls until ``--seconds`` would be exceeded by another pass.
Both phases are also expressed in units of a fixed reference task that
is timed between set-ups and between calls, which cancels most of the
host's drift in speed.  ``run_s`` is the median pass time and
``run_cal`` the median pass time in reference-task units.  ``setup_s``
is the median set-up time in reference-task units, converted back to
seconds at the reference task's nominal duration ``CAL_NOMINAL_S``;
the median wall seconds are printed as ``setup_wall_s``.  Every output
is checked against a reference that does not use the game code; a call
that raises, runs past its deadline or fails its check counts as
failed.

``--trace 0`` prints a report of the eight end-to-end metrics, then the
JSON result with those in ``GATED``.  ``--trace 1`` also runs
untraced for ``--seconds``, then traces one set-up and one pass with
spans around the calls into each library module, and prints per-layer
call counts and self times in the JSON result instead.  The spans are
written to ``perfbench/out``.

Standard output ends with one JSON line:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

import argparse
import copy
import gc
import json
import math
import os
import pickle
import platform
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

from tracer import SPANS, Tracer  # noqa: E402
from workloads import CALL_DEADLINE_S, WORKLOADS, Outcome  # noqa: E402

SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPS = 40
# Wall-clock backstop for every call, past the solvers' own deadline.
ALARM_S = CALL_DEADLINE_S + 5
# End-to-end metrics in the JSON result.  The wall-clock call times are
# only printed: on a shared 2-vCPU VM their spread over ten seeds reached
# 0.37, above 0.25, the largest bound a gated metric may have.  run_cal,
# the pass time in reference-task units, cancels most of that drift.
GATED = ("setup_s", "run_cal", "quality.ratio", "peak_rss_mb")


class LibraryMissing(RuntimeError):
    pass


class CallTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so that the library's own
    ``except Exception`` handlers cannot swallow it."""


def load_library(root):
    src = root / "src"
    if not (src / "bakergame" / "__init__.py").is_file():
        raise LibraryMissing("no bakergame sources under %s" % src)
    sys.path.insert(0, str(src))
    import bakergame

    if Path(bakergame.__file__).resolve().parent != (src / "bakergame").resolve():
        raise LibraryMissing("bakergame imported from %s, not %s" % (bakergame.__file__, src))
    return bakergame


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "python %s, nproc %d, cpu %s" % (
        platform.python_version(),
        len(os.sched_getaffinity(0)),
        cpu,
    )


def _alarm(signum, frame):
    raise CallTimeout()


def execute(call, tracer=None):
    """Run one call under its deadline; return (seconds, Outcome)."""
    idx = None if tracer is None else tracer.begin(tracer.name_id[call.span])
    signal.setitimer(signal.ITIMER_REAL, ALARM_S)
    t0 = perf_counter()
    try:
        out = call.run()
        failure = None
    except CallTimeout:
        failure = "no result within %d s" % ALARM_S
    except Exception as exc:  # a failing call is counted and reported, never fatal
        failure = "%s: %s" % (type(exc).__name__, exc)
    finally:
        elapsed = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        if idx is not None:
            tracer.finish(idx)
    if failure is not None:
        return elapsed, Outcome(False, failure)
    mark = None if tracer is None else tracer.mark()
    try:
        return elapsed, call.check(out)
    except Exception as exc:
        return elapsed, Outcome(False, "check raised %s: %s" % (type(exc).__name__, exc))
    finally:
        if mark is not None:
            # the check's references are not part of the measured path
            tracer.drop_since(mark)


# A fixed pure-Python reference task: deep copies, pickling and frozenset
# hashing, the operations that dominate the solvers.  Timed between calls,
# it tracks the host's current speed, which on a shared VM drifts by up to
# a third within minutes.
CAL_DATA = {
    i: {"a": list(range(i % 7)), "b": frozenset(range(i % 5)), "c": (i, str(i))}
    for i in range(300)
}
CAL_EVERY_S = 1.0
# Median duration of calibration_sample() on a 2-vCPU Intel Xeon VM
# under Python 3.11; setup_s is reported at this reference-task speed.
CAL_NOMINAL_S = 0.025


def calibration_sample():
    # The cyclic collector's cost grows with the workload's heap, not
    # with the host's speed, so it stays off while the task is timed.
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(5):
            pickle.dumps(copy.deepcopy(CAL_DATA))
            {frozenset((i, i + 1, i % 13)) for i in range(2000)}
        return perf_counter() - t0
    finally:
        gc.enable()


class Record:
    """Call times and outcomes pooled over the passes of a run."""

    def __init__(self):
        self.pass_seconds = []
        # pass time in units of the reference task timed during the pass
        self.pass_cal = []
        self.cal_samples = []
        self.call_seconds = []
        self.attempted = 0
        self.failures = []
        # every pass repeats the same calls, so quality comes from one
        self.first_pass = []

    def run_pass(self, calls, tracer=None):
        total = 0.0
        outcomes = []
        samples = [] if tracer else [calibration_sample()]
        last = perf_counter()
        for call in calls:
            seconds, outcome = execute(call, tracer)
            total += seconds
            self.call_seconds.append(seconds)
            self.attempted += 1
            if not outcome.ok:
                self.failures.append((call.label, outcome.reason))
            outcomes.append(outcome)
            if samples and perf_counter() - last >= CAL_EVERY_S:
                samples.append(calibration_sample())
                last = perf_counter()
        self.pass_seconds.append(total)
        if samples:
            samples.append(calibration_sample())
            self.cal_samples += samples
            self.pass_cal.append(total / statistics.fmean(samples))
        if not self.first_pass:
            self.first_pass = outcomes
        return total


def timed_setups(workload, bg, seed, tiny, corpus):
    """Set up repeatedly, with a reference-task sample before the first
    set-up and after each; return (set-up seconds, samples, calls)."""
    times = []
    samples = [calibration_sample()]
    while True:
        gc.collect()
        t0 = perf_counter()
        calls = workload.setup(bg, seed, tiny, corpus)
        times.append(perf_counter() - t0)
        samples.append(calibration_sample())
        enough = len(times) >= SETUP_MIN_REPS and sum(times) >= SETUP_MIN_SECONDS
        if tiny or enough or len(times) >= SETUP_MAX_REPS:
            return times, samples, calls


def timed_phase(record, calls, seconds):
    """Closed loop: passes until one more pass would overrun."""
    start = perf_counter()
    while True:
        gc.collect()
        p0 = perf_counter()
        record.run_pass(calls)
        now = perf_counter()
        if now + (now - p0) > start + seconds:
            return


def percentile(values, p):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(samples):
    """The highest whole percentile with at least ten samples above it."""
    return min(99, max(1, math.floor(100 * (1 - 10 / samples))))


def end_to_end(record, setup_times, setup_samples):
    ratios = [o.ratio for o in record.first_pass if o.ratio is not None]
    setup_cal = statistics.median(setup_times) / statistics.median(setup_samples)
    tail = tail_percentile(len(record.call_seconds))
    return {
        "setup_s": (setup_cal * CAL_NOMINAL_S, "s"),
        "run_s": (statistics.median(record.pass_seconds), "s"),
        "run_cal": (statistics.median(record.pass_cal), "cal"),
        "call_s.p50": (statistics.median(record.call_seconds), "s"),
        "call_s.tail": (percentile(record.call_seconds, tail), "s"),
        "quality.ratio": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def summary_lines(workload, record, metrics, setup_times, setup_samples):
    """Human-readable report: every end-to-end metric with its unit,
    including those that can be 0 or apply to one workload only."""
    solves = [o for o in record.first_pass if o.ok and o.rounds is None and o.ratio is not None]
    games = [o.rounds for o in record.first_pass if o.rounds is not None]
    lines = []
    for name, (value, unit) in metrics.items():
        line = "%-14s %.6g %s" % (name, value, unit)
        if name == "setup_s":
            line += "  (at the reference task's nominal speed)"
        elif name == "run_s":
            line += "  (reference task %.4g s)" % statistics.median(record.cal_samples)
        elif name == "call_s.tail":
            above = sum(1 for t in record.call_seconds if t > value)
            line += "  (p%d of %d pooled calls, %d above it)" % (
                tail_percentile(len(record.call_seconds)), len(record.call_seconds), above
            )
        lines.append(line)
        if name == "setup_s":
            lines.append(
                "setup_wall_s   %.6g s  (median of %d set-ups; reference task %.4g s)"
                % (statistics.median(setup_times), len(setup_times), statistics.median(setup_samples))
            )
    if solves:
        gap = statistics.fmean(o.ratio - 1 for o in solves)
        lines.append(
            "quality.gap    %.6g ratio  (%d calls checked against an optimum)" % (gap, len(solves))
        )
    else:
        lines.append("quality.gap    n/a ratio  (no call has an optimum to check)")
    if workload.name == "referee":
        lines.append(
            "game.rounds    %d rounds  (%d plays and minimax values)" % (sum(games), len(games))
        )
    else:
        lines.append("game.rounds    n/a rounds  (referee only)")
    lines.append(
        "fail_ratio     %.6g ratio  (%d of %d calls)"
        % (len(record.failures) / record.attempted, len(record.failures), record.attempted)
    )
    return lines


def traced_run(workload, bg, seed, tiny, corpus, record, untraced_run_s):
    tracer = Tracer()
    tracer.install(bg)
    try:
        calls = workload.setup(bg, seed, tiny, corpus)
        gc.collect()
        traced_s = record.run_pass(calls, tracer)
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    metrics = {}
    for name in SPANS:
        calls_n, self_s = stats[name]
        metrics[name + ".calls"] = (calls_n, "count")
        metrics[name + ".self_s"] = (self_s, "s")
    proposed = tracer.covers_proposed
    metrics["ptas.dedup_covers.kept_ratio"] = (
        tracer.covers_kept / proposed if proposed else 0.0,
        "ratio",
    )
    metrics["trace.overhead"] = (traced_s / untraced_run_s, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("trace-%s-seed%d.spans" % (workload.name, seed))
    tracer.write(path)
    top = sorted(SPANS, key=lambda s: -stats[s][1])[:6]
    lines = ["trace: %d spans written to %s" % (len(tracer.span_start), path.relative_to(ROOT))]
    lines += ["  %-40s %10d calls %10.4f s self" % (s, *stats[s]) for s in top]
    return metrics, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--tiny", action="store_true", help="smallest inputs, one set-up (self-test only)"
    )
    args = ap.parse_args(argv)
    try:
        bg = load_library(ROOT)
    except LibraryMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    workload = WORKLOADS[args.workload]
    corpus = workload.corpus(args.tiny)
    setup_times, setup_samples, calls = timed_setups(workload, bg, args.seed, args.tiny, corpus)
    record = Record()
    timed_phase(record, calls, args.seconds)
    metrics = end_to_end(record, setup_times, setup_samples)
    print("machine: %s" % machine())
    print(
        "workload %s seed %d: %d calls per pass, %d passes, %d set-ups"
        % (workload.name, args.seed, len(calls), len(record.pass_seconds), len(setup_times))
    )
    for line in summary_lines(workload, record, metrics, setup_times, setup_samples):
        print(line)
    untraced_run_s = metrics["run_s"][0]
    metrics = {name: metrics[name] for name in GATED}
    if args.trace:
        metrics, lines = traced_run(
            workload, bg, args.seed, args.tiny, corpus, record, untraced_run_s
        )
        for line in lines:
            print(line)
    for label, reason in record.failures:
        print("FAILED %s: %s" % (label, reason))
    result = {
        "correct": not record.failures,
        "attempted": record.attempted,
        "failed": len(record.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
