"""Span-recording wrappers around the package's public functions.

The traced run installs a `Tracer`, which replaces selected functions and
methods of each module with timers that record a span per call: name,
layer, start, end, parent span and operation id.  Spans stay in memory in
flat arrays and are summarized (and optionally saved) when the run ends.
Every binding of a wrapped function is replaced, including names other
modules imported with `from .x import f`, and `restore` puts the original
objects back.  Nothing under src/ is edited.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

_NO_PARENT = -1


def _points(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _stack(m) -> int:
    shape = np.shape(m)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _cfg_arg(args, kwargs, index):
    from higher_holonomy import transport as tp

    if "cfg" in kwargs:
        return kwargs["cfg"]
    return args[index] if len(args) > index else tp.DEFAULT_CONFIG


def _steps_nodes(args, kwargs):
    return int(args[2] if len(args) > 2 else kwargs["n_steps"])


def _steps_surface(args, kwargs):
    cfg = _cfg_arg(args, kwargs, 2)
    ns, nt = cfg.n_steps_surface_s, cfg.n_quad_t
    return (2 * ns + 1) * nt + ns


def _steps_driver(args, kwargs):
    return _cfg_arg(args, kwargs, 3).n_quad_t


def _steps_transformation(args, kwargs):
    return _cfg_arg(args, kwargs, 5).n_steps_path


def _grid_points(index):
    """Points of the BF grid argument at `index` (beta is assembled on
    every cell center)."""
    def count(args, kwargs):
        from higher_holonomy import bf_theory as bf

        grid = kwargs.get("grid", args[index] if len(args) > index else bf.GridSpec())
        return (("bf_theory.beta_points", grid.n ** 4),)
    return count


# (module, attribute path, span name, counter): a span's layer is the first
# part of its name; the counter maps call arguments to (counter, amount)
# pairs.
def _targets():
    def pts(name, pos=1):
        return lambda a, k: ((name, _points(a[pos])),)

    def stack(name, pos):
        return lambda a, k: ((name, _stack(a[pos])),)

    def line_steps(fn):
        return lambda a, k: (("transport.line_steps", fn(a, k)),)

    geometry_methods = [("Path", "point"), ("Path", "velocity"), ("Loop", "point"),
                        ("Loop", "velocity"), ("Bigon", "point"), ("Bigon", "ds"),
                        ("Bigon", "dt")]
    return [
        ("expressions", "parse", "expressions.parse", None),
        ("expressions", "derivative", "expressions.derivative", None),
        ("forms", "ExpressionMatrixField.eval", "expressions.eval", None),
        ("forms", "CallableMatrixField.eval", "forms.callable_eval", None),
        ("forms", "OneFormField.matrices_at", "forms.matrices_at",
         pts("forms.matrices_at.points")),
        ("forms", "TwoFormField.matrices_at", "forms.matrices_at",
         pts("forms.matrices_at.points")),
        ("forms", "curvature_matrices_at", "forms.curvature", None),
        ("forms", "fake_curvature_residual", "forms.fc_gate", None),
        ("forms", "symbolic_curvature", "forms.symbolic_curvature", None),
        ("lie_core", "retract", "lie_core.retract",
         stack("lie_core.retract.matrices", 1)),
        ("lie_core", "expm", "lie_core.expm", None),
        ("higher_group", "alpha_g_star_matrices", "higher_group.alpha_g_star",
         stack("higher_group.alpha_g_star.matrices", 2)),
        ("higher_group", "alpha_g_star", "higher_group.alpha_g_star",
         lambda a, k: (("higher_group.alpha_g_star.matrices", 1),)),
        ("higher_group", "t_star", "higher_group.t_star", None),
        ("higher_group", "t_star_matrix", "higher_group.t_star", None),
        ("higher_group", "alpha_action_diff", "higher_group.alpha_action_diff",
         None),
        ("higher_group", "verify_axioms", "higher_group.verify_axioms", None),
        *[("geometry", f"{cls}.{meth}", "geometry", None)
          for cls, meth in geometry_methods],
        ("transport", "transport_nodes", "transport.nodes",
         line_steps(_steps_nodes)),
        ("transport", "path_transport", "transport.path", None),
        ("transport", "surface_transport", "transport.surface",
         line_steps(_steps_surface)),
        ("transport", "surface_driver", "transport.driver",
         line_steps(_steps_driver)),
        ("transport", "transformation_transport", "transport.transformation",
         line_steps(_steps_transformation)),
        ("transport", "stokes_check", "transport.stokes",
         line_steps(_steps_surface)),
        ("transport", "derived_modification_target", "transport.modification",
         None),
        ("extraction", "extract_one_form", "extraction.one_form_probe", None),
        ("extraction", "extract_two_form", "extraction.two_form_probe", None),
        ("extraction", "extract_transformation", "extraction.other", None),
        ("extraction", "residual_prop2", "extraction.other", None),
        ("extraction", "residual_prop3", "extraction.other", None),
        ("bf_theory", "bf_action", "bf_theory.action", _grid_points(4)),
        ("bf_theory", "beta_field", "bf_theory.other", pts("bf_theory.beta_points", 3)),
        ("bf_theory", "beta_sup_norm", "bf_theory.other", _grid_points(3)),
        ("bf_theory", "action_decomposition", "bf_theory.other", _grid_points(4)),
        ("bf_theory", "quadrature_error_estimate", "bf_theory.other", None),
        ("bf_theory", "criticality_check", "bf_theory.other", None),
        ("transgression", "loop_holonomy", "transgression.other", None),
        ("transgression", "transgressed_A", "transgression.other", None),
        ("transgression", "transgressed_phi", "transgression.phi", None),
        ("transgression", "loop_path_two_morphism", "transgression.other",
         None),
        ("transgression", "transgression_consistency", "transgression.other",
         None),
        ("cli", "Experiment.__init__", "cli.experiment", None),
        ("cli", "dump_json", "cli.dump_json", None),
    ]


# Spans whose own calls recurse into themselves record only the outermost
# call (dump_json serializes nested values through itself).
_OUTERMOST_ONLY = {"cli.dump_json"}

# Field evaluations; the points of the outermost one in a nest are counted
# as vectorized or per-point (a per-point callable evaluates other fields
# one point at a time inside it).
_FIELD_EVALS = {"expressions.eval", "forms.callable_eval"}


class Tracer:
    """Records spans for every wrapped call between `install` and
    `restore`.  `begin_op` opens a top-level span that later spans hang
    under, so spans of one operation share its id."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = []
        self._op = -1
        self._field_depth = 0
        self._patches = []

    # -- recording ------------------------------------------------------
    def _intern(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name):
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else _NO_PARENT)
        self.op.append(self._op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def begin_op(self, op_index, name):
        self._op = op_index
        return self._open(f"op.{name}")

    def end_op(self, idx):
        self._close(idx)
        self._op = -1

    # -- wrapping -------------------------------------------------------
    def _wrapper(self, fn, span, counter):
        tracer = self
        name_idx = self._intern(span)
        outermost_only = span in _OUTERMOST_ONLY
        is_field_eval = span in _FIELD_EVALS

        def traced(*args, **kwargs):
            if outermost_only and tracer._stack and \
                    tracer.name_id[tracer._stack[-1]] == name_idx:
                return fn(*args, **kwargs)
            tracer.count(span + ".calls")
            if counter is not None:
                for key, amount in counter(args, kwargs):
                    tracer.count(key, amount)
            if is_field_eval and tracer._field_depth == 0:
                per_point = span == "forms.callable_eval" and not args[0].vectorized
                tracer.count("field.per_point_points" if per_point
                             else "field.vector_points", _points(args[1]))
            idx = tracer._open(span)
            tracer._field_depth += is_field_eval
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._field_depth -= is_field_eval
                tracer._close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def install(self):
        """Wrap every target; each binding of a wrapped module-level
        function across the package is replaced."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import higher_holonomy.cli  # noqa: F401  (loads every submodule)

        package = [m for n, m in sys.modules.items()
                   if n == "higher_holonomy" or n.startswith("higher_holonomy.")]
        for mod_name, path, span, counter in _targets():
            module = sys.modules[f"higher_holonomy.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrapper(original, span, counter))
                continue
            original = getattr(module, path)
            wrapped = self._wrapper(original, span, counter)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- summaries ------------------------------------------------------
    def arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": start,
            "duration": dur,
            "self": dur - child,
        }

    def save(self, path):
        data = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), **data)


# -- per-layer metrics ----------------------------------------------------

_TRANSPORTS = ("transport.path", "transport.surface", "transport.transformation")
_PROBES = ("extraction.one_form_probe", "extraction.two_form_probe")
_CALLS = ("expressions.eval", "forms.matrices_at", "forms.curvature", "forms.fc_gate",
          "lie_core.retract", "lie_core.expm", "higher_group.alpha_g_star",
          "higher_group.alpha_action_diff", "transport.path", "transport.surface",
          "transport.transformation", "transport.stokes", "bf_theory.action",
          "transgression.phi")
_SELF = ("expressions.eval", "expressions.parse", "expressions.derivative",
         "forms.matrices_at", "forms.curvature", "forms.fc_gate", "lie_core.retract",
         "lie_core.expm", "higher_group.alpha_g_star", "higher_group.t_star",
         "higher_group.alpha_action_diff", "higher_group.verify_axioms",
         "cli.experiment", "cli.dump_json")
_LAYERS = ("geometry", "transport", "extraction", "bf_theory", "transgression")

# name -> unit, in the order run.py reports them
PER_LAYER_UNITS = {
    **{f"{n}.calls": "count" for n in _CALLS},
    **{f"{n}.self_s": "s" for n in _SELF},
    "geometry.calls": "count",
    **{f"{n}.self_s": "s" for n in _LAYERS},
    "forms.matrices_at.points": "count",
    "forms.per_point.points": "count",
    "forms.vectorized_share": "ratio",
    "lie_core.retract.matrices": "count",
    "higher_group.alpha_g_star.matrices": "count",
    "transport.line_steps": "count",
    "transport.us_per_line_step": "us",
    "extraction.probes": "count",
    "extraction.transports_per_probe": "ratio",
    "extraction.transports_per_one_form_probe": "ratio",
    "extraction.transports_per_two_form_probe": "ratio",
    "bf_theory.beta_points": "count",
    "trace.overhead": "ratio",
}


def _ratio(num, den):
    return float(num) / den if den else 0.0


def _outermost_ancestor(parent, names, idx, wanted):
    """Index of the outermost ancestor of span `idx` whose name is in
    `wanted`, or -1."""
    found = -1
    p = parent[idx]
    while p >= 0:
        if names[p] in wanted:
            found = p
        p = parent[p]
    return found


def _probe_transports(tracer, arrays):
    """Transport calls made inside each extraction probe, nested ones
    included, keyed by probe span index."""
    names = [tracer.names[i] for i in arrays["name_id"]]
    parent = arrays["parent"]
    per_probe = {i: 0 for i, n in enumerate(names) if n in _PROBES
                 and _outermost_ancestor(parent, names, i, _PROBES) < 0}
    for i, n in enumerate(names):
        if n in _TRANSPORTS:
            probe = _outermost_ancestor(parent, names, i, _PROBES)
            if probe >= 0:
                per_probe[probe] += 1
    return names, per_probe


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of a traced pass (all but trace.overhead, which
    needs the untraced pass)."""
    arrays = tracer.arrays()
    names, per_probe = _probe_transports(tracer, arrays)
    name_arr = np.asarray(names, dtype=object)
    layer_arr = np.asarray([n.split(".")[0] for n in names], dtype=object)
    self_t = arrays["self"]
    c = tracer.counts

    out = {f"{n}.calls": c.get(f"{n}.calls", 0) for n in _CALLS}
    out.update({f"{n}.self_s": float(self_t[name_arr == n].sum()) for n in _SELF})
    out["geometry.calls"] = c.get("geometry.calls", 0)
    out.update({f"{n}.self_s": float(self_t[layer_arr == n].sum()) for n in _LAYERS})
    vec, per_point = c.get("field.vector_points", 0), c.get("field.per_point_points", 0)
    out["forms.matrices_at.points"] = c.get("forms.matrices_at.points", 0)
    out["forms.per_point.points"] = per_point
    out["forms.vectorized_share"] = _ratio(vec, vec + per_point)
    out["lie_core.retract.matrices"] = c.get("lie_core.retract.matrices", 0)
    out["higher_group.alpha_g_star.matrices"] = c.get("higher_group.alpha_g_star.matrices", 0)

    line_steps = c.get("transport.line_steps", 0)
    outer = [i for i, layer in enumerate(layer_arr) if layer == "transport"
             and _outermost_ancestor(arrays["parent"], layer_arr, i, ("transport",)) < 0]
    out["transport.line_steps"] = line_steps
    out["transport.us_per_line_step"] = 1e6 * _ratio(arrays["duration"][outer].sum(),
                                                     line_steps)

    out["extraction.probes"] = len(per_probe)
    out["extraction.transports_per_probe"] = _ratio(sum(per_probe.values()), len(per_probe))
    for kind, span in (("one_form", _PROBES[0]), ("two_form", _PROBES[1])):
        counts = [n for i, n in per_probe.items() if names[i] == span]
        out[f"extraction.transports_per_{kind}_probe"] = _ratio(sum(counts), len(counts))
    out["bf_theory.beta_points"] = c.get("bf_theory.beta_points", 0)
    return out


def per_kind_counts(tracer) -> dict:
    """Work counts per operation shape (the span name given to begin_op),
    for cross-checking against the deterministic values the benchmark
    documents: median over the operations of that shape."""
    arrays = tracer.arrays()
    names = [tracer.names[i] for i in arrays["name_id"]]
    op = arrays["op"]
    shapes = {}
    for i, n in enumerate(names):
        if n.startswith("op."):
            shapes[int(op[i])] = n[3:]
    per_op = {k: {"lie_core.retract.calls": 0, "bf_theory.action.calls": 0}
              for k in shapes}
    for i, n in enumerate(names):
        key = f"{n}.calls"
        if int(op[i]) in per_op and key in per_op[int(op[i])]:
            per_op[int(op[i])][key] += 1
    out = {}
    for k, shape in shapes.items():
        out.setdefault(shape, []).append(per_op[k])
    return {shape: {key: float(np.median([d[key] for d in rows])) for key in rows[0]}
            for shape, rows in out.items()}


# -- resolution scaling ---------------------------------------------------

SCALING_SIZES = (("fast", 64, 32, 32), ("mid", 128, 64, 64), ("tight", 256, 128, 128),
                 ("s256", 512, 256, 256))


def resolution_scaling(op, repeats=2) -> list:
    """surface_transport of one sweep surface input at the fast/mid/tight
    integrator sizes of the test suite, plus 256 s-steps: the best of
    `repeats` untraced wall times, with the traced line-step count."""
    import json

    from higher_holonomy import cli
    from higher_holonomy import transport as tp

    exp = cli.Experiment(json.loads(op.text))
    pair, sigma = exp.pair(), exp.geometry_bigon()
    rows = []
    for label, n_path, n_s, n_t in SCALING_SIZES:
        cfg = tp.IntegratorConfig(n_steps_path=n_path, n_steps_surface_s=n_s, n_quad_t=n_t)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            tp.surface_transport(pair, sigma, cfg)
            best = min(best, time.perf_counter() - t0)
        tracer = Tracer()
        with tracer:
            tp.surface_transport(pair, sigma, cfg)
        rows.append({"size": label, "n_steps_path": n_path, "n_steps_surface_s": n_s,
                     "n_quad_t": n_t, "seconds": best,
                     "line_steps": tracer.counts.get("transport.line_steps", 0)})
    return rows
