"""The names the traced benchmark (perfbench/tracing.py) wraps must exist:
installing and removing its wrappers fails here, in Tier-1, when one of
them is deleted or renamed."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import polygas  # noqa: E402
import tracing  # noqa: E402


def test_tracer_installs_and_uninstalls():
    originals = (polygas.MatroidView.bases, polygas.bounding_halfwidth)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert polygas.MatroidView.bases is not originals[0]
        # one small traced call through the wrapped signatures
        polygas.check_dr(polygas.braid(3), 1, 2000, 0)
        polygas.bounding_halfwidth(polygas.braid(3))
    finally:
        tracer.uninstall()
    assert (polygas.MatroidView.bases, polygas.bounding_halfwidth) == originals
    names = {span.name for span in tracer.spans}
    assert {"check_dr", "volume_mc", "pressure_coefficient", "run_chunked",
            "bounding_halfwidth"} <= names


def test_traced_chi_times_the_base_search():
    # a fresh view's chi(0) compiles its tables from the base list, so the
    # base search runs inside MatroidView.bases, where the tracer times it
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert polygas.MatroidView(polygas.braid(5)).chi_at_zero() == 24
    finally:
        tracer.uninstall()
    assert tracer.totals()["matroid.bases_s"] > 0
