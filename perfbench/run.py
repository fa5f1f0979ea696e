"""polygas benchmark: the command that runs one workload (or all of them).

    python3 perfbench/run.py --workload dr_suite --seed 0 --seconds 28 --trace 0

Run from the root of a checkout.  The workload runs in a process of its own
(perfbench/worker.py) against the checkout's src/ tree; set-up time is the
median over several fresh processes.  Times are scaled to a reference host
speed with a calibration kernel timed next to them (see worker.py); the
unscaled figures are in the summary and the record.  Prints a human-readable summary on
stderr, writes the full record (and, when traced, the spans) under
.perfbench_runs/, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  --workload all runs every workload
in turn and prints one such line for each.  Exits 1 when an output check failed
and 2 when the checkout holds no polygas sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SETUP_PROBES = 3          # fresh processes timed for setup_s, before and after
PROBE_TIMEOUT_S = 60
WORKER_GRACE_S = 60       # beyond --seconds, for the last pass and the checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine_facts() -> dict:
    """nproc, interpreter and numpy versions, CPU model and cache sizes."""
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = size
    except OSError:
        pass
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy_version,
            "l2": caches.get("L2"), "l3": caches.get("L3")}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # numpy's BLAS would otherwise start one thread per core at import
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(extra_args, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + extra_args
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(args, spec) -> int:
    """One workload: set-up probes, the worker, the record, the summary and
    the result line."""
    out_dir = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    probe_args = ["--workload", args.workload, "--setup-only"]
    if args.trace:
        worker_args += ["--spans-out", os.path.join(out_dir, stem + "-spans.json")]
    try:
        probes = [run_worker(probe_args, PROBE_TIMEOUT_S) for _ in range(SETUP_PROBES)]
        result = run_worker(worker_args, args.seconds + WORKER_GRACE_S)
        probes += [run_worker(probe_args, PROBE_TIMEOUT_S) for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    probes.append(result)
    setups = [p["setup_s"] for p in probes]
    raw = dict(result["raw"])
    raw["raw_setup_s"] = statistics.median(p["raw_setup_s"] for p in probes)
    metrics = result["metrics"]
    if not args.trace:
        setup_unit = next(m["unit"] for m in spec["end_to_end"]
                          if m["name"] == "setup_s")
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": setup_unit}
        order = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: metrics[name] for name in order}

    facts = machine_facts()
    correct = result["failed"] == 0
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": facts,
              "workers": result["workers"], "setup_samples_s": setups,
              "setup_probes": probes[:-1], "raw": raw,
              "correct": correct, "attempted": result["attempted"],
              "failed": result["failed"], "failures": result["failures"],
              "dr_mismatches": result["dr_mismatches"], "metrics": metrics,
              "passes": result["passes"]}
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    err = sys.stderr
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(result['passes'])} workers={result['workers']}", file=err)
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()), file=err)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}", file=err)
    for name, value in raw.items():
        print(f"  {name:32s} {value:14.6g} s (unscaled)", file=err)
    print(f"  {'failed_frac':32s} {result['failed'] / max(result['attempted'], 1):14.6g}"
          f" ratio ({result['failed']} of {result['attempted']} operations)", file=err)
    print(f"  {'dr_mismatches':32s} {result['dr_mismatches']:14d} count", file=err)
    for line in result["failures"]:
        print(f"  FAILED {line}", file=err)

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "polygas", "__init__.py")):
        print(f"perfbench: no polygas sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return max(run_one(argparse.Namespace(**{**vars(args), "workload": name}),
                           spec) for name in names)
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
