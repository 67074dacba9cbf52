"""Span tracing of the ntcg layers from outside the package.

Nothing under ``src/`` knows about this module.  :func:`instrument` swaps
wrappers into the module globals through which the layers call each other,
and :class:`Tracer` keeps one span per wrapped call: name, start, end,
parent span and a small payload (rows evaluated, iterations, branch).
Spans stay in memory; :meth:`Tracer.layer_metrics` turns them into the
per-layer numbers when a pass ends.

The wrappers draw no randomness and copy no arguments, so a traced solve
performs exactly the oracle calls of an untraced one.  The benchmark checks
that on every traced pass.
"""

import contextlib
import os
import time

import ntcg.cli
import ntcg.sampling
import ntcg.solver

# Oracle methods that are wrapped on each problem instance.  The Hessian
# operator built by ``HessianOperator.from_oracle`` looks up
# ``oracle.eval_hvp`` on every product, so instance attributes catch it.
_EVAL_METHODS = {"eval_f": "oracle.f", "eval_grad": "oracle.grad",
                 "eval_hvp": "oracle.hvp"}
_AUDIT_METHODS = {"audit_f": "oracle.audit_f", "audit_grad": "oracle.audit_grad"}

LAYERS = ("oracle", "problems", "sampling", "capped_cg", "meo", "solver",
          "libsvm", "reporting", "cli")

CG_BRANCHES = ("sol", "nc_p0", "nc_y", "nc_p", "nc_slow_decay")

MB = 1e6


class Tracer:
    """In-memory span store.  Not thread-safe: the solver is single-threaded."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent, info)
        self._stack = []

    def call(self, name, fn, args, kwargs, info_before=None, info_after=None):
        """Run fn(*args, **kwargs) inside a span named `name`.

        info_before(args, kwargs) and info_after(result) fill the payload;
        an exception leaves info_after unapplied and is re-raised.
        """
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        info = info_before(args, kwargs) if info_before is not None else None
        self.spans.append(None)
        self._stack.append(i)
        start = time.perf_counter()
        raised = True
        try:
            result = fn(*args, **kwargs)
            raised = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[i] = (name, start, end, parent, info)
        if info_after is not None and not raised:
            self.spans[i] = (name, start, end, parent, info_after(result, info))
        return result

    def wrap(self, name, fn, info_before=None, info_after=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info_before, info_after)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name, info=None):
        """Span around a block of harness code that calls into a layer."""
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(i)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[i] = (name, start, end, parent, info)

    def mark(self):
        return len(self.spans)

    # -- aggregation ------------------------------------------------------

    def counted_props(self, since=0):
        """Props implied by the counted oracle spans recorded after `since`.

        Evaluations whose parent is an audit span ran on the exempt ledger
        and are left out, exactly as the ledger leaves them out.
        """
        total = 0
        weight = {"oracle.f": 1, "oracle.grad": 2, "oracle.hvp": 4}
        for name, _, _, parent, info in self.spans[since:]:
            if name in weight and not self._under_audit(parent):
                total += weight[name] * info["rows"]
        return total

    def _under_audit(self, parent):
        return parent >= 0 and self.spans[parent][0].startswith("oracle.audit")

    def layer_metrics(self, since, passes, wall_s, copy_s_per_mb, until=None):
        """Per-layer metrics over the spans recorded after `since`.

        Only spans before `until` count, when it is given.  Times and counts
        are divided by `passes`, so they read per pass of the workload.  wall_s is the traced wall time of one pass; the
        layer shares are self times divided by it.  copy_s_per_mb converts
        the computed row-copy volume into an estimated copy time.
        """
        spans = self.spans[since:until]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= since:
                child_s[parent - since] += end - start
        m = {}
        self_by_layer = dict.fromkeys(LAYERS, 0.0)

        def add(key, value):
            m[key] = m.get(key, 0.0) + value

        for j, (name, start, end, parent, info) in enumerate(spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            if layer in self_by_layer:
                self_by_layer[layer] += dur - child_s[j]
            if name in ("oracle.f", "oracle.grad", "oracle.hvp"):
                kind = name.split(".")[1]
                add("oracle.rows_copied_mb", info["copied_bytes"] / MB)
                if self._under_audit(parent):
                    continue
                add("oracle.%s_calls" % kind, 1)
                add("oracle.%s_s" % kind, dur)
                add("oracle.%s_rows" % kind, info["rows"])
            elif name.startswith("oracle.audit"):
                add("oracle.audit_calls", 1)
                add("oracle.audit_s", dur)
                add("oracle.audit_props", info["props"])
            elif name == "sampling.draw":
                add("sampling.draw_calls", 1)
                add("sampling.draw_s", dur)
            elif name == "sampling.adapt":
                add("sampling.adapt_calls", 1)
            elif name == "capped_cg":
                add("capped_cg.calls", 1)
                add("capped_cg.s", dur)
                add("capped_cg.self_s", dur - child_s[j])
                if info is not None:
                    add("capped_cg.iters", info["iters"])
                    add("capped_cg." + info["branch"], 1)
            elif name == "meo":
                add("meo.calls", 1)
                add("meo.s", dur)
                add("meo.self_s", dur - child_s[j])
                if info is not None:
                    add("meo.steps", info["steps"])
                    add("meo.certificates" if info["certificate"] else "meo.nc", 1)
            elif name == "solver.ls":
                add("solver.ls_calls", 1)
                add("solver.ls_s", dur)
                # A search that raised tried max_trials candidates and
                # accepted none.
                add("solver.ls_trials", info["trials"])
                add("solver.ls_accepted", info["accepted"])
            elif name == "solver.run":
                add("solver.self_s", dur - child_s[j])
            elif name == "libsvm.load":
                add("libsvm.load_s", dur)
                add("libsvm.load_mb", info["bytes"] / MB if info else 0.0)
            elif name in ("problems.generate", "problems.constants"):
                add(name + "_s", dur)
            elif name == "reporting.write":
                add("reporting.write_s", dur)
                add("reporting.write_bytes", info["bytes"] if info else 0)
            elif name == "cli.main":
                add("cli.self_s", dur - child_s[j])

        out = {}
        for key in PER_PASS_KEYS:
            out[key] = m.get(key, 0.0) / passes
        out["oracle.mean_grad_batch"] = _ratio(m.get("oracle.grad_rows", 0.0),
                                               m.get("oracle.grad_calls", 0.0))
        out["oracle.mean_hess_batch"] = _ratio(m.get("oracle.hvp_rows", 0.0),
                                               m.get("oracle.hvp_calls", 0.0))
        out["solver.ls_accept_ratio"] = _ratio(m.get("solver.ls_accepted", 0.0),
                                               m.get("solver.ls_trials", 0.0))
        out["oracle.row_copy_est_s"] = out["oracle.rows_copied_mb"] * copy_s_per_mb
        out["oracle.row_copy_share"] = _ratio(out["oracle.row_copy_est_s"], wall_s)
        for layer in LAYERS:
            out["share." + layer] = _ratio(self_by_layer[layer] / passes, wall_s)
        return out


def _ratio(num, den):
    return num / den if den else 0.0


PER_PASS_KEYS = (
    ["oracle.%s_%s" % (k, q) for k in ("f", "grad", "hvp")
     for q in ("calls", "s", "rows")]
    + ["oracle.rows_copied_mb", "oracle.audit_calls", "oracle.audit_s",
       "oracle.audit_props", "sampling.draw_calls", "sampling.draw_s",
       "sampling.adapt_calls", "capped_cg.calls", "capped_cg.iters",
       "capped_cg.s", "capped_cg.self_s"]
    + ["capped_cg." + b for b in CG_BRANCHES]
    + ["meo.calls", "meo.steps", "meo.s", "meo.self_s", "meo.certificates",
       "meo.nc", "solver.ls_calls", "solver.ls_trials", "solver.ls_s",
       "solver.self_s", "libsvm.load_s", "libsvm.load_mb",
       "problems.generate_s", "problems.constants_s", "reporting.write_s",
       "reporting.write_bytes", "cli.self_s"]
)


# -- payload extractors ------------------------------------------------------


def _eval_info(problem, index_pos):
    dense_row_bytes = 0 if hasattr(problem.A, "tocsr") else problem.dim * 8

    def before(args, kwargs):
        idx = args[index_pos] if len(args) > index_pos else kwargs["index_set"]
        rows = len(idx)
        # NLSProblem gathers A[idx] on every call; for dense data that is
        # rows * dim * 8 bytes copied (computed, not measured).
        return {"rows": rows, "copied_bytes": rows * dense_row_bytes}

    return before


def _audit_info(problem, weight):
    def before(args, kwargs):
        return {"props": weight * problem.n}

    return before


def _cg_info(result, _):
    branch = "sol" if result.d_type == "SOL" else "nc_" + result.nc_source
    return {"iters": result.iterations, "branch": branch}


def _meo_info(result, _):
    return {"steps": result.iterations, "certificate": result.is_certificate}


def _ls_before(args, kwargs):
    # Unless the search returns, it exhausted max_trials (default 60).
    return {"trials": kwargs.get("max_trials", 60), "accepted": 0}


def _ls_after(result, _):
    return {"trials": result[1], "accepted": 1}


def _instrument_problem(tracer, problem):
    """Shadow the oracle methods of one problem instance with wrappers."""
    for method, name in _EVAL_METHODS.items():
        pos = 1 if method != "eval_hvp" else 2
        setattr(problem, method, tracer.wrap(
            name, getattr(problem, method), info_before=_eval_info(problem, pos)))
    for method, name in _AUDIT_METHODS.items():
        weight = 1 if method == "audit_f" else 2
        setattr(problem, method, tracer.wrap(
            name, getattr(problem, method), info_before=_audit_info(problem, weight)))


def _uninstrument_problem(problem):
    for method in list(_EVAL_METHODS) + list(_AUDIT_METHODS):
        problem.__dict__.pop(method, None)


def _file_bytes_span(tracer, name, fn):
    """Wrapper for a reader or writer whose first argument is a file path;
    the payload is the file's size once the call returns."""

    def wrapper(path, *args, **kwargs):
        return tracer.call(name, fn, (path,) + args, kwargs,
                           info_after=lambda result, info: {"bytes": os.path.getsize(path)})

    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def instrument(tracer):
    """Patch the layer boundaries of ntcg for the duration of the block.

    * ``ntcg.solver`` looks up capped_cg, meo_lanczos and the line searches
      as module globals inside ``run``, so they are replaced there.
    * ``SamplingPolicy.draw_*`` call ``ntcg.sampling.sample_indices`` and
      ``adapt`` calls ``ntcg.sampling.adapt_grad_batch``.
    * ``ntcg.cli`` imported load_libsvm, constants_for and the writers by
      name, so they are replaced in ``ntcg.cli``.
    * ``ntcg.solver.run`` is replaced so that the problem it receives gets
      instance-level oracle wrappers for the duration of the solve.
    """
    original_run = ntcg.solver.run

    def traced_run(problem, *args, **kwargs):
        _instrument_problem(tracer, problem)
        try:
            return tracer.call("solver.run", original_run, (problem,) + args, kwargs)
        finally:
            _uninstrument_problem(problem)

    patches = [
        (ntcg.solver, "run", traced_run),
        (ntcg.solver, "capped_cg",
         tracer.wrap("capped_cg", ntcg.solver.capped_cg, info_after=_cg_info)),
        (ntcg.solver, "meo_lanczos",
         tracer.wrap("meo", ntcg.solver.meo_lanczos, info_after=_meo_info)),
        (ntcg.solver, "line_search_sol",
         tracer.wrap("solver.ls", ntcg.solver.line_search_sol,
                     info_before=_ls_before, info_after=_ls_after)),
        (ntcg.solver, "line_search_nc",
         tracer.wrap("solver.ls", ntcg.solver.line_search_nc,
                     info_before=_ls_before, info_after=_ls_after)),
        (ntcg.sampling, "sample_indices",
         tracer.wrap("sampling.draw", ntcg.sampling.sample_indices)),
        (ntcg.sampling, "adapt_grad_batch",
         tracer.wrap("sampling.adapt", ntcg.sampling.adapt_grad_batch)),
        (ntcg.cli, "load_libsvm",
         _file_bytes_span(tracer, "libsvm.load", ntcg.cli.load_libsvm)),
        (ntcg.cli, "constants_for",
         tracer.wrap("problems.constants", ntcg.cli.constants_for)),
        (ntcg.cli, "write_run_csv",
         _file_bytes_span(tracer, "reporting.write", ntcg.cli.write_run_csv)),
        (ntcg.cli, "write_aggregate_json",
         _file_bytes_span(tracer, "reporting.write", ntcg.cli.write_aggregate_json)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
