"""The benchmark's own tests.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

* every Monte Carlo workload gives bit-identical estimates with 1 and 2
  workers;
* every workload gives bit-identical results with tracing on and off, and
  uninstalling the tracer restores every patched name;
* the self-time interval union;
* the closed forms of the exact queries agree with the library, and the
  calibrator takes a sample only when CALIBRATION_EVERY_S has passed;
* run.py refuses, without printing a result, a directory that holds only
  BENCHMARK.json and perfbench/.

Takes about a minute and a half: each workload pass runs at its benchmark size.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import polygas  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer, _covered  # noqa: E402

SEED = 20161


def _results(calls):
    return [(c.name, [(k, e.mean, e.stderr, e.n_samples) for k, e in c.estimates],
             c.exact_ok) for c in calls]


def _pass(name, workers, tracer=None):
    workload = wl.WORKLOADS[name]
    setup = workload.setup()
    if tracer is not None:
        tracer.install()
    try:
        return _results(workload.run_pass(setup, SEED, workers))
    finally:
        if tracer is not None:
            tracer.uninstall()


def test_workers_bit_identical():
    for name in ("dr_suite", "planar_invariance", "warped_projection"):
        assert _pass(name, 1) == _pass(name, 2), name


def test_tracing_bit_identical():
    for name in wl.WORKLOADS:
        workers = 2 if wl.WORKLOADS[name].threaded else 1
        tracer = Tracer()
        assert _pass(name, workers) == _pass(name, workers, tracer), name
        assert tracer.spans
        assert tracer.totals()["matroid.rank_calls"] > 0


def test_uninstall_restores_originals():
    before = {(mod, attr): value
              for mod in [m for n, m in sys.modules.items()
                          if n == "polygas" or n.startswith("polygas.")]
              for attr, value in vars(mod).items() if callable(value)}
    methods = dict(vars(polygas.MatroidView))
    tracer = Tracer()
    tracer.install()
    assert polygas.mayer.run_chunked is not before[(polygas.mayer, "run_chunked")]
    tracer.uninstall()
    after = {(mod, attr): value for (mod, attr) in before
             for value in [getattr(mod, attr)]}
    assert after == before
    assert dict(vars(polygas.MatroidView)) == methods


def test_covered_is_interval_union():
    assert _covered([], 0.0, 1.0) == 0.0
    assert abs(_covered([(0.1, 0.4), (0.3, 0.5), (0.7, 0.8)], 0.0, 1.0) - 0.5) < 1e-12
    assert abs(_covered([(-1.0, 0.2), (0.9, 2.0)], 0.0, 1.0) - 0.3) < 1e-12


def test_exact_closed_forms():
    for label, arr, chi in wl.exact_chi_setup():
        view = polygas.MatroidView(arr)
        assert view.chi_at_zero() == chi, label
        assert wl.base_count(label, arr) == sum(1 for _ in view.bases()), label
    assert wl.chi_dowling(3, 2) == wl.chi_braid(4)   # dowling(n, 2) is type D


def test_calibrator_rate_limit():
    calibrator = worker.Calibrator()
    calibrator.between_calls()
    calibrator.between_calls()
    assert len(calibrator.samples) == 1
    calibrator.take()
    assert len(calibrator.samples) == 2 and min(calibrator.samples) > 0


def test_refuses_directory_without_sources():
    scratch = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "dr_suite", "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failed else 0)
