"""Per-layer tracing from outside the library.

``Tracer.install`` replaces public ``polygas`` functions and methods with
timing wrappers at every place they are looked up (the package namespace,
each module that imported the name, or the class for methods), and
``uninstall`` puts the originals back.  Nothing inside ``polygas`` changes,
and the wrappers return exactly what the wrapped call returned, so traced
estimates are bit-identical to untraced ones.

Two kinds of wrapper:

* spans, for the few coarse calls (estimators, the chunk runner, each chunk's
  kernel, the bounding box): name, layer, start, end and parent, kept in
  memory and written out at the end.  A span's self time is its duration
  minus the union of its child spans and the hot calls made directly under
  it.
* hot calls, for calls made up to millions of times (rank, chi, inverses,
  sphere draws, functional values): only a call count and the time spent
  in the outermost call of each group, accumulated per thread.

Layers are the library's modules, except that chunk kernels are attributed
by role: kernels of the per-base polymer samplers to ``polymer``, every box
estimator kernel (including those defined in polymer.py) to ``mayer``.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter

# per-base polymer samplers: their run_chunked calls are one base each
POLYMER_SAMPLERS = frozenset({"volume_mc", "asa_volume_mc", "project_expectation"})

SPAN_FUNCTIONS = [
    ("polygas.dimred", "check_dr", "dimred"),
    ("polygas.dimred", "check_asa_dr", "dimred"),
    ("polygas.mayer", "pressure_coefficient", "mayer"),
    ("polygas.mayer", "asa_pressure_coefficient", "mayer"),
    ("polygas.polymer", "volume_mc", "polymer"),
    ("polygas.polymer", "asa_volume_mc", "polymer"),
    ("polygas.polymer", "planar_invariance_check", "polymer"),
    ("polygas.polymer", "project_expectation", "polymer"),
    ("polygas.polymer", "safe_projection_expectation", "polymer"),
    ("polygas.geometry", "bounding_halfwidth", "geometry"),
]

# (module, class or None, name, timing group, call counter or None)
HOT_CALLS = [
    ("polygas.matroid", "MatroidView", "__init__", "matroid.views", "matroid.views"),
    ("polygas.matroid", "MatroidView", "rank_of", "matroid.rank", "matroid.rank_calls"),
    ("polygas.matroid", "MatroidView", "chi_at_zero", "matroid.chi", "matroid.chi_calls"),
    ("polygas.matroid", "MatroidView", "chi_if_spanning", "matroid.chi", None),
    ("polygas.matroid", "MatroidView", "safe_base_count", "matroid.safe", None),
    ("polygas.matroid", "MatroidView", "safe_count_if_spanning", "matroid.safe", None),
    ("polygas.matroid", "MatroidView", "bases", "matroid.bases", None),
    ("polygas.matroid", "MatroidView", "bases_of", "matroid.bases", None),
    ("polygas.exact_linalg", None, "exact_inverse", "exact_linalg.inverse",
     "exact_linalg.inverse_calls"),
    ("polygas.geometry", None, "sample_unit_sphere", "geometry.sphere", None),
    ("polygas.geometry", "ASAShape", "sample_surface", "geometry.surface", None),
    ("polygas.geometry", "ASAShape", "sample_bottom", "geometry.surface", None),
    ("polygas.geometry", "ASAShape", "warp", "geometry.surface", None),
    ("polygas.geometry", "ASAShape", "bottom_contains", "geometry.surface", None),
    ("polygas.arrangement", "Arrangement", "values", "arrangement.values", None),
    ("polygas.arrangement", "Arrangement", "gamma_masks", "arrangement.gamma_masks",
     None),
]


class Span:
    __slots__ = ("id", "name", "layer", "parent", "thread", "start", "end",
                 "hot_child", "key")

    def __init__(self, sid, name, layer, parent, key=None):
        self.id = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = threading.get_ident()
        self.key = key
        self.hot_child = 0.0
        self.end = None
        self.start = _clock()

    def as_row(self):
        return [self.id, self.name, self.layer, self.parent, self.thread,
                self.start, self.end, self.hot_child]


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.hot_depth = 0
        self.group_depth = defaultdict(int)
        self.agg = None


def _covered(intervals, lo, hi):
    """Length of the union of [a, b] intervals clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """Spans and per-layer counters for one or more traced passes."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._tls = _ThreadState()
        self._aggs = []
        self._aggs_lock = threading.Lock()
        self._patches = []
        self._originals = {}
        self._diag_views = {}

    # -- state -----------------------------------------------------------------

    def _agg(self):
        st = self._tls
        if st.agg is None:
            st.agg = defaultdict(float)
            with self._aggs_lock:
                self._aggs.append(st.agg)
        return st.agg

    def totals(self) -> dict:
        out = defaultdict(float)
        with self._aggs_lock:
            for agg in self._aggs:
                for key, value in agg.items():
                    out[key] += value
        return out

    def _open(self, name, layer, parent=None, key=None):
        st = self._tls
        if parent is None and st.stack:
            parent = st.stack[-1].id
        span = Span(next(self._ids), name, layer, parent, key)
        st.stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span):
        span.end = _clock()
        self._tls.stack.pop()

    def _charge(self, seconds):
        """Hand time spent in hot calls (or in the tracer itself) to the
        enclosing span, so it is not counted as that span's self time."""
        st = self._tls
        if st.hot_depth == 0 and st.stack:
            st.stack[-1].hot_child += seconds

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, fn, name, layer):
        def wrapper(*args, **kwargs):
            key = None
            if name in POLYMER_SAMPLERS:
                key = (name, id(args[0]), repr(args[1]), repr(kwargs.get("radii")))
            span = self._open(name, layer, key=key)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    def _hot_wrapper(self, fn, group, counter, after=None):
        tls = self._tls
        group_s = group + "_s"

        def wrapper(*args, **kwargs):
            st = tls
            depth = st.group_depth[group]
            st.group_depth[group] = depth + 1
            st.hot_depth += 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                st.hot_depth -= 1
                st.group_depth[group] = depth
                agg = self._agg()
                if counter is not None:
                    agg[counter] += 1
                if depth == 0:
                    agg[group_s] += elapsed
                self._charge(elapsed)
            if after is not None:
                t0 = _clock()
                after(agg, args, kwargs, result)
                self._charge(_clock() - t0)
            return result
        return wrapper

    def _run_chunked_wrapper(self, fn):
        def wrapper(n_samples, seed, workers, values_fn, stream_base=0):
            st = self._tls
            caller = st.stack[-1] if st.stack else None
            polymer = (caller is not None and caller.name in POLYMER_SAMPLERS
                       and not values_fn.__qualname__.endswith("mmc_values"))
            layer = "polymer" if polymer else "mayer"
            base_key = (caller.key, stream_base >> 32) if polymer else None
            span = self._open("run_chunked", "mayer")

            def traced_values(rng, count):
                kernel = self._open("kernel", layer, parent=span.id)
                try:
                    values = values_fn(rng, count)
                finally:
                    self._close(kernel)
                t0 = _clock()
                agg = self._agg()
                agg["mayer.chunks"] += 1
                if base_key is not None:
                    agg[("accepted", base_key)] += np.count_nonzero(values)
                    agg[("attempted", base_key)] += count
                self._charge(_clock() - t0)
                return values

            try:
                return fn(n_samples, seed, workers, traced_values,
                          stream_base=stream_base)
            finally:
                self._close(span)
        return wrapper

    # -- counters computed from arguments and results -------------------------

    @staticmethod
    def _after_sphere(agg, args, kwargs, result):
        agg["geometry.sphere_points"] += len(result) if np.ndim(result) == 2 else 1

    @staticmethod
    def _after_values(agg, args, kwargs, result):
        arr, xbatch = args[0], np.asarray(args[1])
        m, size, d = result.shape
        n = arr.ambient_dim
        flops_per_mac = 8 if np.iscomplexobj(result) else 2
        agg["arrangement.rows"] += m * size
        agg["arrangement.flops_computed"] += flops_per_mac * m * size * n * d
        agg["arrangement.bytes_computed"] += (xbatch.nbytes + arr.coeff.nbytes
                                              + result.nbytes)

    def _after_gamma(self, agg, args, kwargs, result):
        """Share of box samples whose mask does not span (zero weight) and
        the number of distinct masks, from a MatroidView of the tracer's own
        so the estimator's caches are left alone."""
        arr = args[0]
        entry = self._diag_views.get(id(arr))
        if entry is None:
            view = object.__new__(self._originals["MatroidView.__init__"][0])
            self._originals["MatroidView.__init__"][1](view, arr)
            entry = self._diag_views[id(arr)] = (arr, view)
        view = entry[1]
        rank_of = self._originals["MatroidView.rank_of"][1]
        uniq, counts = np.unique(result, return_counts=True)
        zero = sum(int(c) for m, c in zip(uniq, counts)
                   if rank_of(view, int(m)) != view.full_rank)
        agg["mayer.box_samples"] += result.size
        agg["mayer.zero_weight_samples"] += zero
        agg["mayer.mask_chunks"] += 1
        agg["mayer.distinct_masks_total"] += len(uniq)

    # -- install / uninstall --------------------------------------------------

    def _replace_everywhere(self, original, wrapped):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "polygas" and not mod_name.startswith("polygas."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self):
        import polygas  # noqa: F401  (loads every submodule)
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, name, layer in SPAN_FUNCTIONS:
            original = getattr(sys.modules[mod_name], name)
            self._replace_everywhere(original,
                                     self._span_wrapper(original, name, layer))
        original = sys.modules["polygas.mayer"].run_chunked
        self._replace_everywhere(original, self._run_chunked_wrapper(original))
        afters = {"sample_unit_sphere": self._after_sphere,
                  "values": self._after_values,
                  "gamma_masks": self._after_gamma}
        for mod_name, cls_name, name, group, counter in HOT_CALLS:
            module = sys.modules[mod_name]
            after = afters.get(name)
            if cls_name is None:
                original = getattr(module, name)
                self._replace_everywhere(
                    original, self._hot_wrapper(original, group, counter, after))
            else:
                cls = getattr(module, cls_name)
                original = cls.__dict__[name]
                self._originals[f"{cls_name}.{name}"] = (cls, original)
                self._patches.append((cls, name, original))
                setattr(cls, name, self._hot_wrapper(original, group, counter, after))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def self_times(self) -> dict:
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = defaultdict(float)
        for s in self.spans:
            own = (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            out[s.layer] += max(own - s.hot_child, 0.0)
        return out

    def layer_metrics(self, n_passes: int) -> dict:
        """Per-pass layer metrics (totals divided by the traced pass count)."""
        tot = self.totals()
        selfs = self.self_times()
        per = 1.0 / n_passes
        m = {}
        for key in ("matroid.views", "matroid.rank_calls", "matroid.chi_calls",
                    "exact_linalg.inverse_calls", "geometry.sphere_points",
                    "arrangement.rows", "arrangement.flops_computed",
                    "arrangement.bytes_computed", "mayer.chunks"):
            m[key] = tot[key] * per
        for group in ("matroid.rank", "matroid.chi", "matroid.safe", "matroid.bases",
                      "exact_linalg.inverse", "geometry.sphere", "geometry.surface",
                      "arrangement.values", "arrangement.gamma_masks"):
            m[group + "_s"] = tot[group + "_s"] * per
        bbox = [s for s in self.spans if s.name == "bounding_halfwidth"]
        m["geometry.bbox_calls"] = len(bbox) * per
        m["geometry.bbox_s"] = sum(s.end - s.start for s in bbox) * per
        m["polymer.self_s"] = selfs["polymer"] * per
        m["mayer.self_s"] = selfs["mayer"] * per
        accepted = {k[1]: v for k, v in tot.items() if isinstance(k, tuple)
                    and k[0] == "accepted"}
        attempted = {k[1]: v for k, v in tot.items() if isinstance(k, tuple)
                     and k[0] == "attempted"}
        total_att = sum(attempted.values())
        m["polymer.accept_frac"] = (sum(accepted.values()) / total_att
                                    if total_att else 0.0)
        m["polymer.accept_frac_min"] = (min(accepted[k] / attempted[k]
                                            for k in attempted)
                                        if attempted else 0.0)
        box = tot["mayer.box_samples"]
        m["mayer.zero_weight_frac"] = (tot["mayer.zero_weight_samples"] / box
                                       if box else 0.0)
        chunks = tot["mayer.mask_chunks"]
        m["mayer.distinct_masks"] = (tot["mayer.distinct_masks_total"] / chunks
                                     if chunks else 0.0)
        return m

    def span_rows(self):
        return [s.as_row() for s in self.spans]
