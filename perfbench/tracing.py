"""Span tracer installed from outside the package.

The tracer wraps every public function of every ``avcqc`` module, plus
``numpy.linalg.eigh`` / ``eigvalsh``, in a timing wrapper.  The package
imports with ``from .x import y``, so each module holds its own binding of
a function; every binding is replaced (module attributes and module-level
dispatch dicts alike) and restored by ``uninstall``.  No file of the package
is edited.

A span is ``[name, start, end, parent, job, extra]``; ``extra`` is a count
taken from the call's arguments or result (matrices, rows, iterations,
generator entries, state words).  Spans are kept in memory and written out
once, at the end of the run.
"""

import functools
import inspect
import itertools
import json
import math
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, JOB, EXTRA = range(6)


def _stack_count(a, k, out, tail_dims):
    """Matrices (tail_dims=2) or rows (tail_dims=1) in the first argument."""
    arg = a[0] if a else next(iter(k.values()))
    shape = arg.shape if hasattr(arg, "shape") else np.shape(arg)
    return math.prod(shape[:-tail_dims])


def _solver_iters(a, k, out):
    return len(out.solver_trace) - 1  # the first entry is the starting point


def _generator_entries(a, k, out):
    # two generator sets (g0, g1), each (|V|^iota * d)^2 real entries per (x, s) column
    w, src, gp = a[:3]
    side = len(src.v_alphabet) ** gp.iota * w.dim
    return 2 * side * side * len(w.x_alphabet) * len(w.s_alphabet)


def _state_words(a, k, out):
    code, w = a[0], a[1]
    if hasattr(code, "codes"):            # RandomCode
        words = {xs for det in code.codes for xs in det.codebook}
    elif hasattr(code, "encoders"):       # CorrelationCode
        words = {tuple(xs) for row in code.encoders for xs in row}
    else:                                 # DeterministicCode
        words = set(code.codebook)
    return len(words) * len(w.s_alphabet) ** code.n


EXTRA_COUNTERS = {
    "lapack.eigh": lambda a, k, o: _stack_count(a, k, o, 2),
    "lapack.eigvalsh": lambda a, k, o: _stack_count(a, k, o, 2),
    "operators.eigvalsh_stack": lambda a, k, o: _stack_count(a, k, o, 2),
    "geometry.project_simplex_rows": lambda a, k, o: _stack_count(a, k, o, 1),
    "capacity.capacity_informed_jammer": _solver_iters,
    "separation.separation_test": _generator_entries,
    "coding.worst_case_error_informed": _state_words,
    "coding.random_code_error_informed": _state_words,
    "coding.correlation_code_error_informed": _state_words,
}


class Tracer:
    """Collects spans while ``active``; wrappers are pass-through otherwise."""

    def __init__(self):
        self.stack = []
        self.job = -1
        self.active = False
        self._ids = itertools.count()
        self._finished = []     # (id, name, start, end, parent id, job), in end order
        self._extra = {}        # span id -> count taken from the call
        self._spans = []
        self._restore = []      # (container, key, original, is_dict)

    def _wrap(self, name, fn):
        counter = EXTRA_COUNTERS.get(name)
        finished, stack, ids = self._finished, self.stack, self._ids

        @functools.wraps(fn)
        def wrapper(*a, **k):
            if not self.active:
                return fn(*a, **k)
            idx = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*a, **k)
            finally:
                end = perf_counter()
                stack.pop()
                # a finished span is an immutable tuple, which the cyclic
                # garbage collector stops tracking: tracing stays cheap
                finished.append((idx, name, start, end, parent, self.job))
            if counter is not None:
                self._extra[idx] = counter(a, k, out)
            return out

        return wrapper

    @property
    def spans(self):
        """Spans in start order, each ``[name, start, end, parent, job, extra]``."""
        if len(self._spans) != len(self._finished):
            self._spans = [[nm, t0, t1, par, job, self._extra.get(i, 0)]
                           for i, nm, t0, t1, par, job in sorted(self._finished)]
        return self._spans

    def install(self, package_modules):
        """Wrap the public functions of ``package_modules`` at every binding."""
        wrappers = {}
        for lib_name in ("eigh", "eigvalsh"):
            orig = getattr(np.linalg, lib_name)
            wrappers[id(orig)] = self._wrap(f"lapack.{lib_name}", orig)
            self._set(np.linalg, lib_name, wrappers[id(orig)])
        for mod in package_modules:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(val):
                    continue
                if not val.__module__.startswith("avcqc."):
                    continue
                if id(val) not in wrappers:
                    layer = val.__module__.split(".", 1)[1]
                    wrappers[id(val)] = self._wrap(f"{layer}.{val.__name__}", val)
        for mod in package_modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in wrappers and not attr.startswith("_"):
                    self._set(mod, attr, wrappers[id(val)])
                elif isinstance(val, dict):       # dispatch tables, e.g. cli._DISPATCH
                    for key, fn in list(val.items()):
                        if inspect.isfunction(fn) and id(fn) in wrappers:
                            self._restore.append((val, key, fn, True))
                            val[key] = wrappers[id(fn)]

    def _set(self, obj, attr, new):
        self._restore.append((obj, attr, getattr(obj, attr), False))
        setattr(obj, attr, new)

    def uninstall(self):
        for container, key, orig, is_dict in reversed(self._restore):
            if is_dict:
                container[key] = orig
            else:
                setattr(container, key, orig)
        self._restore.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "extra"],
                       "spans": self.spans}, fh)


def self_times(spans):
    """Self time per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def ancestors(spans, idx):
    out = []
    p = spans[idx][PARENT]
    while p >= 0:
        out.append(spans[p][NAME])
        p = spans[p][PARENT]
    return out


EVALUATORS = (
    "coding.worst_case_error_informed",
    "coding.random_code_error_informed",
    "coding.correlation_code_error_informed",
    "coding.two_part_error_informed",
)
# (metric prefix, span names) for the plain {calls, self_s} layer metrics
LAYERS = (
    ("lapack.eigh", ("lapack.eigh",)),
    ("lapack.eigvalsh", ("lapack.eigvalsh",)),
    ("operators.spectra", ("operators.eigvalsh_stack",)),
    ("capacity.solver", ("capacity.capacity_informed_jammer",)),
    ("capacity.oracle", ("capacity.maxmin_grid_oracle",)),
    ("capacity.cr", ("capacity.cr_capacity",)),
    ("geometry.set_distance", ("geometry.affine_set_distance",)),
    ("geometry.project_simplex", ("geometry.project_simplex_rows",)),
    ("separation.test", ("separation.separation_test",)),
    ("coding.evaluator", EVALUATORS),
    ("channels.product_output", ("channels.product_output",)),
    ("coding.precode", ("coding.repetition_precode",)),
    ("coding.cr_run", ("coding.cr_generation_run",)),
    ("typicality.verify", ("typicality.verify_typicality_bounds",)),
)
# count-valued extras summed per layer: metric name -> layer prefix
EXTRA_METRICS = {
    "lapack.eigh.matrices": "lapack.eigh",
    "lapack.eigvalsh.matrices": "lapack.eigvalsh",
    "operators.spectra.matrices": "operators.spectra",
    "capacity.solver.outer_iters": "capacity.solver",
    "geometry.project_simplex.rows": "geometry.project_simplex",
    "separation.generator_entries": "separation.test",
    "coding.evaluator.state_words": "coding.evaluator",
}
# oracle runs whose gap is thrown away because they run inside these callers
DISCARDING_CALLERS = ("capacity.cr_capacity", "capacity.cr_rate_limited_lower_bound")


def layer_metrics(spans):
    """Aggregate spans into the per-layer metrics.

    Returns (metrics, seconds of self time inside the named layers: the
    LAYERS table plus every serialize and cli function).
    """
    selfs = self_times(spans)
    by_layer = {}
    for prefix, names in LAYERS:
        for n in names:
            by_layer[n] = prefix
    out = {}
    for prefix, _ in LAYERS:
        out[f"{prefix}.calls"] = 0
        out[f"{prefix}.self_s"] = 0.0
    oracle_total = oracle_useful = 0
    io_calls, io_self, cli_self, named = 0, 0.0, 0.0, 0.0
    for i, s in enumerate(spans):
        name = s[NAME]
        prefix = by_layer.get(name)
        if prefix is not None:
            out[f"{prefix}.calls"] += 1
            out[f"{prefix}.self_s"] += selfs[i]
            named += selfs[i]
        if name == "capacity.maxmin_grid_oracle":
            oracle_total += 1
            if not any(a in DISCARDING_CALLERS for a in ancestors(spans, i)):
                oracle_useful += 1
        if name.startswith("serialize."):
            io_self += selfs[i]
            named += selfs[i]
            parent = s[PARENT]
            if parent < 0 or not spans[parent][NAME].startswith("serialize."):
                io_calls += 1
        elif name.startswith("cli."):
            cli_self += selfs[i]
            named += selfs[i]
    for metric, prefix in EXTRA_METRICS.items():
        names = dict(LAYERS)[prefix]
        out[metric] = sum(s[EXTRA] for s in spans if s[NAME] in names)
    out["capacity.oracle.useful_ratio"] = oracle_useful / oracle_total if oracle_total else 0.0
    out["serialize.io.calls"] = io_calls
    out["serialize.io.self_s"] = io_self
    out["cli.main.self_s"] = cli_self
    return out, named


def top_paths(spans, limit=8):
    """Span paths (root first) ranked by total self time."""
    selfs = self_times(spans)
    paths, acc = [], {}
    for i, s in enumerate(spans):      # a parent starts, so sorts, before its children
        path = s[NAME] if s[PARENT] < 0 else paths[s[PARENT]] + ">" + s[NAME]
        paths.append(path)
        acc[path] = acc.get(path, 0.0) + selfs[i]
    return sorted(acc.items(), key=lambda kv: -kv[1])[:limit]
