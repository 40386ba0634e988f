"""Span recorder for the traced benchmark run.

``install`` wraps, from outside the package, every public function of the
``reftaylor`` modules (each plain function in a module's ``__all__``, under
every name another module bound it to, such as ``reftaylor.cli.uniform_mesh``),
the methods that do topology, point location and field evaluation, and the
scipy solvers as ``reftaylor.fem`` binds them.  Nothing under ``src/`` changes.

Each wrapped call records a span: name, start, end, parent span, thread and
run id.  The hot per-point calls (``ScalarField`` value/grad/hess/d/d2 and
value_at/grad_at, ``expansion.phi``/``phi_prime``) record a call count and
their cumulative self time instead; they are leaves of the span tree.  Spans
stay in memory until ``Recorder.collect``.

``cli._map_ordered`` is a span too, and each item it hands to a pool thread
is a ``cli.map_item`` span whose parent is that ``_map_ordered`` span, though
it runs on another thread.  The ``_map_ordered`` span's self time is the
submitting thread's wait on the pool: it is reported as ``cli.pool_wait_s``,
not as cli self time.

A span's self time, stored when it ends, is its duration minus the time of
its child spans and aggregated calls on the same thread.  Times summed over
the pool threads of one sweep can exceed its wall time.
"""

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("fields", "quadrature", "expansion", "interp1d", "simplex", "fem", "registry", "cli")

_SCALAR = ("value", "grad", "hess", "d", "d2")
_BATCH = ("value_at", "grad_at")
_TOPOLOGY = ("face_counts", "check_conforming", "boundary_vertex_mask")
# Functions in an __all__ that are called once per quadrature node or sample.
_HOT_FUNCTIONS = ("expansion.phi", "expansion.phi_prime")
_SOLVERS = ("lu_factor", "lu_solve", "cg")
_POOL = "cli._map_ordered"

# Per-layer metrics of one traced sweep, in report order: (name, unit).
METRICS = (
    ("cli.run_s", "s"),
    ("cli.self_s", "s"),
    ("cli.pool_wait_s", "s"),
    ("fields.self_s", "s"),
    ("fields.scalar_calls", "count"),
    ("fields.scalar_s", "s"),
    ("fields.batch_calls", "count"),
    ("fields.batch_points", "count"),
    ("fields.batch_s", "s"),
    ("quadrature.self_s", "s"),
    ("quadrature.composite_gauss_calls", "count"),
    ("quadrature.integrand_evals", "count"),
    ("quadrature.composite_gauss_s", "s"),
    ("expansion.self_s", "s"),
    ("expansion.refined_expansion_s", "s"),
    ("expansion.nodes", "count"),
    ("expansion.segment_bounds_s", "s"),
    ("expansion.segment_samples", "count"),
    ("expansion.remainder_integral_s", "s"),
    ("simplex.self_s", "s"),
    ("simplex.uniform_mesh_s", "s"),
    ("simplex.elements_built", "count"),
    ("simplex.topology_s", "s"),
    ("simplex.face_counts_calls", "count"),
    ("simplex.locate_s", "s"),
    ("simplex.locate_calls", "count"),
    ("simplex.interp_eval_s", "s"),
    ("fem.self_s", "s"),
    ("fem.assemble_and_solve_s", "s"),
    ("fem.solve_s", "s"),
    ("fem.dense_solves", "count"),
    ("fem.cg_solves", "count"),
    ("fem.cg_iterations", "count"),
    ("fem.free_dofs", "count"),
    ("fem.nnz", "count"),
    ("fem.l2_norm_error_s", "s"),
    ("fem.l2_norm_error_calls", "count"),
    ("trace.overhead_s", "s"),
)


class Span:
    """One recorded call; ``self_s`` excludes its children on the same thread."""

    __slots__ = ("id", "parent", "thread", "run", "name", "start", "end", "self_s")

    def __init__(self, id, parent, thread, run, name, start, end, self_s):
        self.id = id
        self.parent = parent
        self.thread = thread
        self.run = run
        self.name = name
        self.start = start
        self.end = end
        self.self_s = self_s

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


class _Frame:
    __slots__ = ("id", "layer", "light", "start", "child")

    def __init__(self, id, layer, light):
        self.id = id
        self.layer = layer
        self.light = light
        self.start = 0.0
        self.child = 0.0  # time of the direct children on this thread


class _ThreadState:
    def __init__(self):
        self.thread = threading.get_ident()
        self.stack = []
        self.spans = []
        self.calls = defaultdict(lambda: [0, 0.0])  # (run, name) -> [calls, self seconds]
        self.counts = defaultdict(int)              # (run, metric) -> count


class Recorder:
    """Collects spans, aggregated calls and counts; ``run`` tags what is recorded."""

    def __init__(self, clock=time.perf_counter):
        self.run = 0
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def count(self, metric, n=1):
        self._state().counts[(self.run, metric)] += n

    def current_id(self):
        """Id of the innermost span open on the calling thread, or None."""
        stack = self._state().stack
        return stack[-1].id if stack else None

    def span(self, name, fn, before=None, after=None, root_parent=None):
        """fn recording one span per call; before/after hooks add counts.

        A span opened with nothing open on its thread takes ``root_parent`` as
        its parent.  Inside an aggregated call, spans are not recorded:
        aggregated calls are leaves of the span tree.
        """
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            if parent is not None and parent.light:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            frame = _Frame(next(self._ids), layer, light=False)
            stack.append(frame)
            frame.start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._clock()
                stack.pop()
                if parent is not None:
                    parent.child += end - frame.start
                state.spans.append(
                    Span(frame.id, parent.id if parent else root_parent, state.thread,
                         self.run, name, frame.start, end, end - frame.start - frame.child)
                )
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def aggregate(self, name, fn, before=None):
        """fn recording only a call count and cumulative self time.

        A call made inside an aggregated call of the same layer is part of
        the outer one and is not counted again.
        """
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            if parent is not None and parent.light and parent.layer == layer:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args)
            frame = _Frame(0, layer, light=True)
            stack.append(frame)
            frame.start = self._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self._clock() - frame.start
                stack.pop()
                if parent is not None:
                    parent.child += duration
                entry = state.calls[(self.run, name)]
                entry[0] += 1
                entry[1] += duration - frame.child

        return wrapper

    def collect(self):
        """(spans, calls, counts) merged over threads.

        calls maps (run, name) to [calls, self seconds]; counts maps
        (run, metric) to a count.
        """
        spans, calls, counts = [], defaultdict(lambda: [0, 0.0]), defaultdict(int)
        with self._lock:
            states = list(self._states)
        for state in states:
            spans.extend(state.spans)
            for key, (n, seconds) in state.calls.items():
                calls[key][0] += n
                calls[key][1] += seconds
            for key, n in state.counts.items():
                counts[key] += n
        spans.sort(key=lambda s: (s.run, s.start))
        return spans, dict(calls), dict(counts)


def wrap_map_ordered(recorder, map_ordered):
    """``map_ordered(fn, items)`` as a span whose items are ``cli.map_item`` spans.

    An item run on a pool thread has the ``_map_ordered`` span as its parent.
    """
    @functools.wraps(map_ordered)
    def submit(fn, items):
        item = recorder.span("cli.map_item", fn, root_parent=recorder.current_id())
        return map_ordered(item, items)

    return recorder.span(_POOL, submit)


# ----------------------------------------------------------- count hooks


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_argument(fn, metric, argument, extra=0):
    def before(rec, args, kwargs):
        rec.count(metric, int(_bound(fn, args, kwargs)[argument]) + extra)
        return args, kwargs
    return before


def _count_integrand(fn):
    """composite_gauss calls its integrand once per node of every panel."""
    def before(rec, args, kwargs):
        arguments = _bound(fn, args, kwargs)
        rec.count("quadrature.integrand_evals", int(arguments["panels"]) * int(arguments["order"]))
        return args, kwargs
    return before


def _count_elements(rec, mesh):
    rec.count("simplex.elements_built", len(mesh.elements))


def _count_points(rec, args):
    field, points = args[0], args[1]
    rec.count("fields.batch_points", np.size(points) // field.dim)


def _count_lu_factor(rec, args, kwargs):
    rec.count("fem.nnz", int(np.count_nonzero(args[0])))
    return args, kwargs


def _count_lu_solve(rec, args, kwargs):
    rec.count("fem.free_dofs", len(args[1]))
    return args, kwargs


def _count_cg(rec, args, kwargs):
    A, b = args[0], args[1]
    rec.count("fem.free_dofs", len(b))
    rec.count("fem.nnz", int(A.nnz))
    user_callback = kwargs.get("callback")

    def callback(xk):
        rec.count("fem.cg_iterations")
        if user_callback is not None:
            user_callback(xk)

    return args, {**kwargs, "callback": callback}


def install(recorder):
    """Wrap the package's public calls for ``recorder``; returns the undo callable."""
    import reftaylor

    modules = {layer: importlib.import_module(f"reftaylor.{layer}") for layer in LAYERS}
    namespaces = [reftaylor, *modules.values()]
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    for layer, module in modules.items():
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in _HOT_FUNCTIONS:
                wrapped = recorder.aggregate(name, fn)
            elif name == "quadrature.composite_gauss":
                wrapped = recorder.span(name, fn, before=_count_integrand(fn))
            elif name == "expansion.refined_expansion":
                wrapped = recorder.span(
                    name, fn, before=_count_argument(fn, "expansion.nodes", "m", extra=1))
            elif name == "expansion.estimate_segment_bounds":
                wrapped = recorder.span(
                    name, fn, before=_count_argument(fn, "expansion.segment_samples", "samples"))
            elif name == "simplex.uniform_mesh":
                wrapped = recorder.span(name, fn, after=_count_elements)
            else:
                wrapped = recorder.span(name, fn)
            for namespace in namespaces:
                for other, value in list(vars(namespace).items()):
                    if value is fn:
                        replace(namespace, other, wrapped)

    field_cls = modules["fields"].ScalarField
    for attr in _SCALAR:
        replace(field_cls, attr, recorder.aggregate(f"fields.scalar.{attr}", vars(field_cls)[attr]))
    for attr in _BATCH:
        replace(field_cls, attr, recorder.aggregate(
            f"fields.batch.{attr}", vars(field_cls)[attr], before=_count_points))

    simplex = modules["simplex"]
    for attr in (*_TOPOLOGY, "locate"):
        method = vars(simplex.Triangulation)[attr]
        replace(simplex.Triangulation, attr, recorder.span(f"simplex.Triangulation.{attr}", method))
    replace(simplex.MeshInterpolant, "__call__", recorder.span(
        "simplex.MeshInterpolant.__call__", vars(simplex.MeshInterpolant)["__call__"]))

    cli = modules["cli"]
    replace(cli, "_map_ordered", wrap_map_ordered(recorder, cli._map_ordered))

    fem = modules["fem"]
    hooks = {"lu_factor": _count_lu_factor, "lu_solve": _count_lu_solve, "cg": _count_cg}
    for attr in _SOLVERS:
        replace(fem, attr, recorder.span(f"fem.{attr}", getattr(fem, attr), before=hooks[attr]))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


# ----------------------------------------------------------- aggregation


def layer_metrics(spans, calls, counts):
    """Per-layer metrics of one run from its spans, aggregated calls and counts.

    ``calls`` maps a name to (calls, self seconds) and ``counts`` a metric to a
    count, both already restricted to the run.  trace.overhead_s is left out:
    it needs the untraced sweeps too.
    """
    self_by_name = defaultdict(float)
    calls_by_name = defaultdict(int)
    run_s = 0.0
    layer_self = defaultdict(float)
    for span in spans:
        self_by_name[span.name] += span.self_s
        calls_by_name[span.name] += 1
        if span.name != _POOL:
            layer_self[span.layer] += span.self_s
        if span.name == "cli.run_main":
            run_s += span.end - span.start
    for name, (n, seconds) in calls.items():
        self_by_name[name] += seconds
        calls_by_name[name] += n
        layer_self[name.split(".", 1)[0]] += seconds

    def total(table, names):
        return sum(table.get(name, 0) for name in names)

    scalar = [f"fields.scalar.{a}" for a in _SCALAR]
    batch = [f"fields.batch.{a}" for a in _BATCH]
    topology = [f"simplex.Triangulation.{a}" for a in _TOPOLOGY]
    return {
        "cli.run_s": run_s,
        "cli.self_s": layer_self["cli"],
        "cli.pool_wait_s": self_by_name[_POOL],
        "fields.self_s": layer_self["fields"],
        "fields.scalar_calls": total(calls_by_name, scalar),
        "fields.scalar_s": total(self_by_name, scalar),
        "fields.batch_calls": total(calls_by_name, batch),
        "fields.batch_points": counts.get("fields.batch_points", 0),
        "fields.batch_s": total(self_by_name, batch),
        "quadrature.self_s": layer_self["quadrature"],
        "quadrature.composite_gauss_calls": calls_by_name["quadrature.composite_gauss"],
        "quadrature.integrand_evals": counts.get("quadrature.integrand_evals", 0),
        "quadrature.composite_gauss_s": self_by_name["quadrature.composite_gauss"],
        "expansion.self_s": layer_self["expansion"],
        "expansion.refined_expansion_s": self_by_name["expansion.refined_expansion"],
        "expansion.nodes": counts.get("expansion.nodes", 0),
        "expansion.segment_bounds_s": self_by_name["expansion.estimate_segment_bounds"],
        "expansion.segment_samples": counts.get("expansion.segment_samples", 0),
        "expansion.remainder_integral_s": self_by_name["expansion.remainder_integral"],
        "simplex.self_s": layer_self["simplex"],
        "simplex.uniform_mesh_s": self_by_name["simplex.uniform_mesh"],
        "simplex.elements_built": counts.get("simplex.elements_built", 0),
        "simplex.topology_s": total(self_by_name, topology),
        "simplex.face_counts_calls": calls_by_name["simplex.Triangulation.face_counts"],
        "simplex.locate_s": self_by_name["simplex.Triangulation.locate"],
        "simplex.locate_calls": calls_by_name["simplex.Triangulation.locate"],
        "simplex.interp_eval_s": self_by_name["simplex.MeshInterpolant.__call__"],
        "fem.self_s": layer_self["fem"],
        "fem.assemble_and_solve_s": self_by_name["fem.assemble_and_solve"],
        "fem.solve_s": total(self_by_name, [f"fem.{a}" for a in _SOLVERS]),
        "fem.dense_solves": calls_by_name["fem.lu_solve"],
        "fem.cg_solves": calls_by_name["fem.cg"],
        "fem.cg_iterations": counts.get("fem.cg_iterations", 0),
        "fem.free_dofs": counts.get("fem.free_dofs", 0),
        "fem.nnz": counts.get("fem.nnz", 0),
        "fem.l2_norm_error_s": self_by_name["fem.l2_norm_error"],
        "fem.l2_norm_error_calls": calls_by_name["fem.l2_norm_error"],
    }


def per_run_metrics(spans, calls, counts):
    """run id -> layer_metrics for every run that recorded anything."""
    runs = {s.run for s in spans} | {r for r, _ in calls} | {r for r, _ in counts}
    return {
        run: layer_metrics(
            [s for s in spans if s.run == run],
            {name: v for (r, name), v in calls.items() if r == run},
            {name: v for (r, name), v in counts.items() if r == run},
        )
        for run in sorted(runs)
    }


def write_spans(path, spans, calls):
    """Spans, then aggregated calls, as CSV."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("run,id,parent,thread,name,start,end,self_s\n")
        for s in spans:
            fh.write(f"{s.run},{s.id},{s.parent or ''},{s.thread},{s.name},"
                     f"{s.start!r},{s.end!r},{s.self_s!r}\n")
        fh.write("run,name,calls,self_s\n")
        for (run, name), (n, seconds) in sorted(calls.items()):
            fh.write(f"{run},{name},{n},{seconds!r}\n")
