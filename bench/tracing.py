"""Span tracing of strainlim's layer entry points, from outside the package.

``Tracer.install`` replaces each entry point listed in ``ENTRY_POINTS``
(a module function, or a method of FESpace, AnalyticField or a
diagnostics recorder) through its module namespace with a wrapper that
records one span: name, start, end and parent span.  ``restore`` puts
the originals back.  Callers inside the package reach these names
through their module (``con.invert``, ``space.strain_at_qp``), so the
wrappers see every call that crosses a layer boundary.

Spans live in flat in-memory lists, one append per field, so a call
costs about a microsecond of tracing.  ``Summary`` turns them into
per-name self times (duration minus the time covered by child spans),
``layer_metrics`` derives the per-layer benchmark metrics and
``write_spans`` writes the spans out once the run is over.
"""

from __future__ import annotations

import csv
import time

import numpy as np
import scipy.sparse.linalg as spla

# layer -> entry points, as "function" or "Class.method" in that module.
# These are the names other layers call.  Helpers a layer only calls
# itself (symtensor.dot/pack/packed_len, AnalyticField.grad/dt_grad) are
# left unwrapped: they would triple the span count on sweep1d-rk4 and
# their time stays in the calling span of the same layer.
ENTRY_POINTS = {
    "symtensor": ("norm", "sym_part", "unpack", "outer"),
    "constitutive": ("invert", "limit_L", "g_apply", "jacobian_eigenvalues",
                     "g_jacobian", "effective_conjugate", "dissipation_pair",
                     "fenchel_residual"),
    "fespace": ("interval_mesh", "rectangle_mesh", "FESpace.__init__",
                "FESpace.value_at_qp", "FESpace.strain_at_qp",
                "FESpace.load_from_values", "FESpace.load_from_stress",
                "FESpace.l2_norm_qp", "FESpace.mass", "FESpace.mass_solve"),
    "scenarios": ("build_scenario", "safety_margin", "exact_stress",
                  "strain_expression", "lift_static_bc", "zero_field",
                  "AnalyticField.value", "AnalyticField.dt_value",
                  "AnalyticField.dtt_value", "AnalyticField.strain",
                  "AnalyticField.dt_strain"),
    "dynamics": ("run", "step_midpoint", "step_rk4", "evaluate_fields",
                 "_assemble_midpoint_jacobian"),
    "diagnostics": ("energy_snapshot", "ledger_table", "EnergyRecorder.__call__",
                    "EnergyRecorder.table", "StrainRecorder.__call__",
                    "StrainRecorder.table", "regularization_sweep", "fit_order"),
    "driver": ("main", "parse_config"),
}

# dynamics factors the midpoint Jacobian with scipy.sparse.linalg.splu,
# looked up through that module at call time; fespace binds its own
# splu at import, so mass factorizations are not counted here
SPLU_SPAN = "dynamics.splu"


class Tracer:
    """Records spans of the wrapped entry points while installed."""

    def __init__(self):
        self.span_names = []       # id -> span name
        self.name_of = []          # per span: name id
        self.parent = []           # per span: parent span index, -1 at the root
        self.start = []
        self.end = []
        self.points = {}           # invert span -> strain points inverted
        self.lu_nnz = {}           # splu span -> L.nnz + U.nnz
        self._stack = [-1]
        self._saved = []           # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap every entry point the package has; entry points it lacks are skipped.

        A Tracer is installed once: it keeps the spans of that installation.
        """
        if self.span_names:
            raise RuntimeError("a Tracer is installed only once")
        for layer, names in ENTRY_POINTS.items():
            module = getattr(package, layer)
            for path in names:
                owner, attr = module, path
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name, None)
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    continue           # entry point renamed or removed
                name = f"{layer}.{path}"
                after = self._record_points if name == "constitutive.invert" else None
                self._patch(owner, attr, original, name, after)
        self._patch(spla, "splu", spla.splu, SPLU_SPAN, after=self._record_lu)

    def restore(self):
        """Put every original back, in reverse order of patching."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, name, after=None):
        if isinstance(original, property):
            wrapped = property(self._wrap(name, original.fget), original.fset,
                               original.fdel, original.__doc__)
        else:
            wrapped = self._wrap(name, original, after)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, name, fn, after=None):
        sid = len(self.span_names)
        self.span_names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        if after is None:
            def traced(*args, **kwargs):
                i = len(start)
                name_of.append(sid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()
        else:
            def traced(*args, **kwargs):
                i = len(start)
                name_of.append(sid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()
                after(i, args, result)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _record_points(self, i, args, result):
        E = np.asarray(args[1])
        self.points[i] = 1 if E.ndim < 2 else int(np.prod(E.shape[:-1]))

    def _record_lu(self, i, args, result):
        self.lu_nnz[i] = int(result.L.nnz + result.U.nnz)

    # -- results ----------------------------------------------------------

    def summary(self):
        """Per-name aggregates of the recorded spans."""
        return Summary(self)


def write_spans(path, tracers):
    """All recorded spans as CSV rows (op, span, name, parent, start_s, end_s)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["op", "span", "name", "parent", "start_s", "end_s"])
        for op, tr in enumerate(tracers):
            for i, (nid, par, t0, t1) in enumerate(zip(tr.name_of, tr.parent, tr.start, tr.end)):
                w.writerow([op, i, tr.span_names[nid], par, repr(t0), repr(t1)])


class Summary:
    """Spans of one traced operation with self times and per-name totals.

    A span's self time is its duration minus the durations of its
    direct children, which nest inside it on one thread.
    """

    def __init__(self, tracer):
        self.names = list(tracer.span_names)
        self.index = {nm: i for i, nm in enumerate(self.names)}
        self.name_of = np.asarray(tracer.name_of, dtype=np.int64)
        self.parent = np.asarray(tracer.parent, dtype=np.int64)
        self.dur = np.asarray(tracer.end) - np.asarray(tracer.start)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self_t = self.dur - child
        k = len(self.names)
        self.calls_by = np.bincount(self.name_of, minlength=k)
        self.total_by = np.bincount(self.name_of, weights=self.dur, minlength=k)
        self.self_by = np.bincount(self.name_of, weights=self_t, minlength=k)
        self.points = dict(tracer.points)
        self.lu_nnz = dict(tracer.lu_nnz)

    def _ids(self, names):
        return [self.index[n] for n in names if n in self.index]

    def calls(self, *names):
        return int(sum(self.calls_by[i] for i in self._ids(names)))

    def total(self, *names):
        return float(sum(self.total_by[i] for i in self._ids(names)))

    def self_time(self, *names):
        return float(sum(self.self_by[i] for i in self._ids(names)))

    def layer_self(self, layer):
        prefix = layer + "."
        return float(sum(s for nm, s in zip(self.names, self.self_by)
                         if nm.startswith(prefix)))

    def mask(self, *names):
        """Boolean mask of spans with one of these names."""
        return np.isin(self.name_of, self._ids(names))

    def under(self, child, parents):
        """Number of spans named child whose direct parent is named one of parents."""
        par = self.parent[self.mask(child)]
        par = par[par >= 0]
        return int(np.count_nonzero(np.isin(self.name_of[par], self._ids(parents))))


STEP_SPANS = ("dynamics.step_midpoint", "dynamics.step_rk4")
FIELD_SPANS = tuple(f"scenarios.{p}" for p in ENTRY_POINTS["scenarios"]
                    if p.startswith("AnalyticField."))


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(s):
    """The per-layer metrics of one traced operation, as {name: (value, unit)}.

    Ratios whose base is zero on a workload (no midpoint steps, no
    factorizations) read 0.
    """
    steps = s.calls(*STEP_SPANS)
    step_ms = 1e3 * s.dur[s.mask(*STEP_SPANS)]
    newton = s.under("constitutive.invert", ["dynamics.step_midpoint"])
    facts = s.under(SPLU_SPAN, ["dynamics._assemble_midpoint_jacobian"])
    invert_total = s.total("constitutive.invert")
    points = sum(s.points.values())
    m = {
        "symtensor.norm.calls": (s.calls("symtensor.norm"), "count"),
        "symtensor.norm.self_s": (s.self_time("symtensor.norm"), "s"),
        "constitutive.invert.calls": (s.calls("constitutive.invert"), "count"),
        "constitutive.invert.points": (points, "count"),
        "constitutive.invert.self_s": (s.self_time("constitutive.invert"), "s"),
        "constitutive.invert.points_per_s": (_ratio(points, invert_total), "1/s"),
        "constitutive.effective_conjugate.self_s":
            (s.self_time("constitutive.effective_conjugate"), "s"),
        "constitutive.dissipation_pair.self_s":
            (s.self_time("constitutive.dissipation_pair"), "s"),
        "constitutive.jacobian_eigenvalues.self_s":
            (s.self_time("constitutive.jacobian_eigenvalues"), "s"),
        "fespace.strain_at_qp.self_s": (s.self_time("fespace.FESpace.strain_at_qp"), "s"),
        "fespace.load_from_stress.self_s":
            (s.self_time("fespace.FESpace.load_from_stress"), "s"),
        "fespace.load_from_values.self_s":
            (s.self_time("fespace.FESpace.load_from_values"), "s"),
        "fespace.mass_solve.calls": (s.calls("fespace.FESpace.mass_solve"), "count"),
        "fespace.mass_solve.self_s": (s.self_time("fespace.FESpace.mass_solve"), "s"),
        "fespace.value_at_qp.self_s": (s.self_time("fespace.FESpace.value_at_qp"), "s"),
        "fespace.FESpace.init_s": (s.total("fespace.FESpace.__init__"), "s"),
        "scenarios.forcing.inversions": (s.calls("scenarios.exact_stress"), "count"),
        "scenarios.exact_stress.total_s": (s.total("scenarios.exact_stress"), "s"),
        "scenarios.field.self_s": (s.self_time(*FIELD_SPANS), "s"),
        "scenarios.safety_margin.s": (s.total("scenarios.safety_margin"), "s"),
        "scenarios.build_scenario.s": (s.total("scenarios.build_scenario"), "s"),
        "dynamics.steps": (steps, "count"),
        "dynamics.step_ms_p50":
            (float(np.percentile(step_ms, 50)) if steps else 0.0, "ms"),
        "dynamics.step_ms_p90":
            (float(np.percentile(step_ms, 90)) if steps else 0.0, "ms"),
        "dynamics.newton_iters_per_step":
            (_ratio(newton, s.calls("dynamics.step_midpoint")), "ratio"),
        "dynamics.factorizations_per_step":
            (_ratio(facts, s.calls("dynamics.step_midpoint")), "ratio"),
        "dynamics.newton_iters_per_factorization": (_ratio(newton, facts), "ratio"),
        "dynamics.assemble_jacobian.self_s":
            (s.self_time("dynamics._assemble_midpoint_jacobian"), "s"),
        "dynamics.splu.s": (s.total(SPLU_SPAN), "s"),
        "dynamics.lu_fill_nnz": (max(s.lu_nnz.values(), default=0), "count"),
        "dynamics.step.self_s": (s.self_time(*STEP_SPANS), "s"),
        "dynamics.run.self_s": (s.self_time("dynamics.run"), "s"),
        "diagnostics.energy_snapshot.total_s":
            (s.total("diagnostics.energy_snapshot"), "s"),
        "diagnostics.strain_recorder.total_s":
            (s.total("diagnostics.StrainRecorder.__call__"), "s"),
        "diagnostics.regularization_sweep.self_s":
            (s.self_time("diagnostics.regularization_sweep"), "s"),
        "driver.parse_config.s": (s.total("driver.parse_config"), "s"),
        "driver.main.self_s": (s.self_time("driver.main"), "s"),
    }
    for layer in ENTRY_POINTS:
        m[f"{layer}.self_s"] = (s.layer_self(layer), "s")
    return m
