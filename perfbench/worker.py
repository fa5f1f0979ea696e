"""One benchmark run of one workload, in a process of its own.

Started by run.py.  Builds the workload (timed as set-up), then runs passes
back to back until the next one would overrun the measuring time.  Each
pass makes the workload's calls with a Monte Carlo seed derived from
(--seed, pass index).  With --trace 1 every pass is made twice with the same
seed, untraced and then traced, so the tracing overhead and the
bit-identity of traced estimates come from the same run.

The speed of a shared host drifts by tens of percent over minutes, and a
pass slows down with it.  So a fixed calibration kernel that does not touch
polygas is timed between the workload's calls and after each pass, at most
once every CALIBRATION_EVERY_S, in as many threads as the workload has
workers.  The run's times are reported scaled to a reference host speed:
times the calibration's reference time (CALIBRATION_REF_S) over its mean
time in the run.  Means, not medians: the host switches between a fast and
a slow state every few seconds, and a median of such samples jumps from
one state to the other where a mean follows the share of time spent in
each.

Prints one JSON object on stdout: the metrics named in BENCHMARK.json for
the requested mode, the check counts, and the per-pass record.
"""

import time

_START = time.perf_counter()

from fractions import Fraction  # noqa: E402

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from typing import NamedTuple  # noqa: E402

MIN_PASSES = 2
Z_LIMIT = 4.0
# The calibration's time at the reference host speed, by the number of
# threads it runs in: about its mean on the 2-vCPU Xeon VM the benchmark
# was tuned on.
CALIBRATION_REF_S = {1: 0.1, 2: 0.18}
CALIBRATION_EVERY_S = 1.0


def pass_seed(seed: int, index: int) -> int:
    """Monte Carlo seed of one pass: distinct for every (seed, pass) pair and
    a multiple of 16, leaving room for the +1, +2, ... offsets the library
    adds for its second side and further radii."""
    import numpy as np
    word = np.random.SeedSequence([seed % 2 ** 63, index]).generate_state(1)[0]
    return int(word) * 16


def calibration_s(threads: int = 1) -> float:
    """Seconds taken by a fixed piece of work run in `threads` threads at
    once, as a workload with that many workers runs its chunks."""
    start = time.perf_counter()
    pool = [threading.Thread(target=_calibration_work) for _ in range(threads - 1)]
    for thread in pool:
        thread.start()
    _calibration_work()
    for thread in pool:
        thread.join()
    return time.perf_counter() - start


def _calibration_work():
    """Work in about the mix of the workloads: numpy draws, einsums,
    comparisons and norms on sample-sized arrays, then pure-Python Fraction
    and dict work like the exact layer's."""
    import numpy as np
    rng = np.random.default_rng(1)
    for _ in range(12):
        x = rng.standard_normal((20_000, 6))
        values = np.einsum("ij,kj->ik", x, x[:8])
        int((values > 0).sum())
        np.linalg.norm(x, axis=1)
    counts = {}
    total = Fraction(0)
    for i in range(16_000):
        key = i * 7919 % 1013
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(i % 7, i % 5 + 1)


class Calibrator:
    """Calibration times of one run, in as many threads as the workload has
    workers, taken between calls when at least CALIBRATION_EVERY_S has
    passed since the last one."""

    def __init__(self, threads: int = 1):
        self.threads = threads
        self.samples = []
        self._last = -math.inf

    def take(self):
        self.samples.append(calibration_s(self.threads))
        self._last = time.perf_counter()

    def between_calls(self):
        if time.perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.take()


class Pass(NamedTuple):
    seed: int
    calls: object       # list of workloads.Call, or the exception raised
    wall: float         # seconds of the pass's timed calls
    calibrations: list  # calibration times taken during and right after it
    reference: float    # the calibration's time at the reference host speed

    @property
    def speed(self) -> float:
        """Factor that scales the pass's times to the reference host speed."""
        return self.reference / statistics.fmean(self.calibrations)


def _estimate_key(est):
    return (est.mean, est.stderr, est.n_samples)


def run_passes(workload, setup, seed, seconds, workers, tracer):
    """Passes until the next one is predicted to end after `seconds`.
    Returns (untraced passes, traced passes).  Garbage left by one pass is
    collected before the next starts, so neither its collection time nor
    its memory lands in a later pass."""
    untraced, traced = [], []
    calibrator = Calibrator(workers)
    rounds = []
    begin = time.perf_counter()
    index = 0
    while True:
        round_start = time.perf_counter()
        seed_i = pass_seed(seed, index)
        for target, traced_pass in ((untraced, False), (traced, True)):
            if traced_pass and tracer is None:
                continue
            gc.collect()
            first = len(calibrator.samples)
            if traced_pass:
                tracer.install()
            try:
                calls = workload.run_pass(setup, seed_i, workers,
                                          before_call=calibrator.between_calls)
                wall = sum(call.seconds for call in calls)
            except Exception as exc:  # a failed operation is reported, not fatal
                calls, wall = exc, 0.0
            finally:
                if traced_pass:
                    tracer.uninstall()
            calibrator.between_calls()
            if len(calibrator.samples) == first:
                first -= 1          # none taken: the latest one before it
            target.append(Pass(seed_i, calls, wall, calibrator.samples[first:],
                               CALIBRATION_REF_S[workers]))
        rounds.append(time.perf_counter() - round_start)
        index += 1
        elapsed = time.perf_counter() - begin
        min_rounds = 1 if tracer is not None else MIN_PASSES
        if index >= min_rounds and elapsed + statistics.median(rounds) > seconds:
            return untraced, traced


def _pooled(passes):
    """call name -> {reference key: estimate pooled over the passes}."""
    pooled = {}
    for p in passes:
        if isinstance(p.calls, Exception):
            continue
        for call in p.calls:
            ests = pooled.setdefault(call.name, {})
            for key, est in call.estimates:
                ests[key] = ests[key].merge(est) if key in ests else est
    return pooled


def check_outputs(wl, passes, failures):
    """Count failed operations: calls that raised, returned a non-finite
    estimate or a wrong exact answer, or whose pooled estimate misses its
    reference by Z_LIMIT combined standard errors."""
    stored = wl.load_references()
    attempted = failed = 0
    missed = set()
    for name, ests in _pooled(passes).items():
        for key, est in ests.items():
            ref = wl.reference(key, stored)
            spread = math.hypot(est.stderr, ref.stderr)
            z = (est.mean - ref.mean) / spread if spread > 0 else math.inf
            if not abs(z) < Z_LIMIT:
                missed.add(name)
                failures.append(f"{key}: {est.mean:.6g} +- {est.stderr:.3g} "
                                f"vs reference {ref.mean:.6g} +- {ref.stderr:.3g} "
                                f"(z = {z:.2f})")
    expected_calls = max((len(p.calls) for p in passes
                          if not isinstance(p.calls, Exception)), default=1)
    for seed, calls in ((p.seed, p.calls) for p in passes):
        if isinstance(calls, Exception):
            attempted += expected_calls
            failed += expected_calls
            failures.append(f"pass with seed {seed} raised {calls!r}")
            continue
        for call in calls:
            attempted += 1
            finite = all(math.isfinite(e.mean) and math.isfinite(e.stderr)
                         for _, e in call.estimates)
            if not finite:
                failures.append(f"{call.name} (seed {seed}): non-finite estimate")
            if call.exact_ok is False:
                failures.append(f"{call.name} (seed {seed}): wrong exact answer")
            if not finite or call.exact_ok is False or call.name in missed:
                failed += 1
    return attempted, failed


def time_to_1pct(wl, passes, stored) -> float:
    """Seconds x (relative stderr / 0.01)^2 per pass, summed over the
    workload's calls.  A call's estimates are pooled over the passes and its
    seconds summed over them, which is the same quantity in expectation and
    steadier than one pass's; its relative stderr is the RMS over its
    estimates.  A call with no estimate gives an exact answer, so it counts
    its mean seconds."""
    seconds = {}
    for p in passes:
        for call in p.calls:
            seconds[call.name] = seconds.get(call.name, 0.0) + call.seconds
    pooled = _pooled(passes)
    total = 0.0
    for name, secs in seconds.items():
        ests = pooled.get(name)
        if not ests:
            total += secs / len(passes)
            continue
        rel2 = statistics.fmean((e.stderr / abs(wl.reference(k, stored).mean)) ** 2
                                for k, e in ests.items())
        total += secs * rel2 / 1e-4
    return total


def end_to_end(wl, passes) -> dict:
    """Means over the run's passes, times at the reference host speed;
    raw_wall_s and calibration_s are the unscaled means."""
    good = [p for p in passes if not isinstance(p.calls, Exception)]
    if not good:
        return {}
    stored = wl.load_references()
    calibration = statistics.fmean(c for p in good for c in p.calibrations)
    wall = statistics.fmean(p.wall for p in good)
    to_1pct = time_to_1pct(wl, good, stored)
    speed = good[0].reference / calibration
    return {
        "wall_s": wall * speed,
        "time_to_1pct_s": to_1pct * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_wall_s": wall,
        "calibration_s": calibration,
    }


def dr_mismatches(passes) -> int:
    import polygas as pg
    count = 0
    for name, ests in _pooled(passes).items():
        lhs, rhs = ests.get(f"dr/{name}/lhs"), ests.get(f"dr/{name}/rhs")
        if lhs is not None and rhs is not None:
            count += abs(pg.z_score(lhs, rhs)) >= Z_LIMIT
    return count


def per_layer(tracer, untraced, traced):
    """Layer metrics of the traced passes, and the calls whose traced
    estimates differ from the untraced pass with the same seed."""
    mismatched = []
    pairs = [(u, t) for u, t in zip(untraced, traced)
             if not isinstance(u.calls, Exception)
             and not isinstance(t.calls, Exception)]
    for u_pass, t_pass in pairs:
        for u, t in zip(u_pass.calls, t_pass.calls):
            same = ([(k, _estimate_key(e)) for k, e in u.estimates]
                    == [(k, _estimate_key(e)) for k, e in t.estimates]
                    and u.exact_ok == t.exact_ok)
            if not same:
                mismatched.append(f"{u.name} (seed {u_pass.seed}): traced estimates "
                                  "differ from untraced ones")
    metrics = tracer.layer_metrics(max(len(traced), 1))
    # case times from the untraced pass of each pair, free of tracer overhead
    for u, _ in pairs:
        for call in u.calls:
            if call.dr_case:
                key = f"dimred.case_s.{call.name}"
                metrics[key] = metrics.get(key, 0.0) + call.seconds / len(pairs)
    metrics["dimred.dr_mismatches"] = dr_mismatches(untraced)
    if pairs:
        # the difference of the two passes' wall_s, each at the reference speed
        metrics["trace.overhead_s"] = statistics.median(
            t.wall * t.speed - u.wall * u.speed for u, t in pairs)
    return metrics, mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    import polygas
    src = os.path.join(root, "src")
    if os.path.commonpath([os.path.abspath(polygas.__file__), src]) != src:
        print(f"perfbench: polygas imported from {polygas.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 3
    import workloads as wl
    workload = wl.WORKLOADS[args.workload]
    setup = workload.setup()
    setup_s = time.perf_counter() - _START
    setup_calibration = calibration_s()
    setup_times = {"setup_s": setup_s * CALIBRATION_REF_S[1] / setup_calibration,
                   "raw_setup_s": setup_s, "calibration_s": setup_calibration}
    if args.setup_only:
        print(json.dumps(setup_times))
        return 0

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workers = min(2, os.cpu_count() or 1) if workload.threaded else 1
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    untraced, traced = run_passes(workload, setup, args.seed, args.seconds,
                                  workers, tracer)
    failures = []
    attempted, failed = check_outputs(wl, untraced, failures)
    if args.trace:
        metrics, mismatched = per_layer(tracer, untraced, traced)
        failures += mismatched
        attempted += len(mismatched)
        failed += len(mismatched)
        t_attempted, t_failed = check_outputs(wl, traced, failures)
        attempted += t_attempted
        failed += t_failed
        wanted = spec["per_layer"]
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"columns": ["id", "name", "layer", "parent", "thread",
                                       "start", "end", "hot_child_s"],
                           "spans": tracer.span_rows()}, fh)
    else:
        metrics = end_to_end(wl, untraced)
        wanted = [m for m in spec["end_to_end"] if m["name"] != "setup_s"]
    out_metrics = {}
    for m in wanted:
        if m["name"] in metrics:
            out_metrics[m["name"]] = {"value": float(metrics[m["name"]]),
                                      "unit": m["unit"]}
        elif m["name"].startswith("dimred.case_s.") or failed:
            out_metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            raise KeyError(f"metric {m['name']} was not measured")
    result = {
        **setup_times,
        "workers": workers,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "dr_mismatches": dr_mismatches(untraced),
        "metrics": out_metrics,
        "raw": {k: metrics[k] for k in ("raw_wall_s", "calibration_s")
                if k in metrics},
        "passes": [{"seed": p.seed, "wall_s": p.wall,
                    "calibrations_s": p.calibrations,
                    "calls": ([{"name": c.name, "seconds": c.seconds,
                                "estimates": {k: [e.mean, e.stderr, e.n_samples]
                                              for k, e in c.estimates}}
                               for c in p.calls]
                              if not isinstance(p.calls, Exception)
                              else repr(p.calls))}
                   for p in untraced],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
