"""The four benchmark workloads and the correctness checks of one solve.

A workload turns the workload seed into inputs (``prep``, untimed), builds
what the solver receives from them (``setup``, timed as ``setup_s``) and
names the solves that make up one *pass*.  The benchmark repeats passes;
every pass performs the same solves, so counts, final values and report
bytes must repeat exactly.

Each solve returns a :class:`Solve` with its wall time, its counts and a
fingerprint, plus the list of correctness checks it broke.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

import ntcg.cli
import ntcg.solver
from ntcg import (
    ContractViolation,
    NLSProblem,
    SamplingPolicy,
    SolverConfig,
    constants_for,
    dump_libsvm,
    load_libsvm,
    synthetic_nls,
)
from ntcg.problems import SIGMOID, TANH
from ntcg.reporting import read_run_csv, write_run_csv
from ntcg.sampling import EXACT, SUB_BOTH, SUB_HESSIAN_ONLY

CONTRACT_VIOLATION = ntcg.solver.TERM_CONTRACT_VIOLATION
NO_REPORT = "no report"

# Relative tolerance between the library's final f / gradient norm and the
# benchmark's own recomputation from the generated data.  Both sum the same
# float64 terms, so agreement is near machine precision.
RECOMPUTE_RTOL = 1e-9


@dataclass
class Solve:
    label: str
    seconds: float
    props: int = 0
    iters: int = 0
    final_f: float = math.nan
    final_grad_norm: float = math.nan
    status: str = ""
    fingerprint: tuple = ()
    errors: list = field(default_factory=list)
    # False for a solve that returned no point, and for one the benchmark
    # cut short to end a pass (its final point is arbitrary); such solves
    # stay out of final_f and final_grad_norm.
    completed: bool = True

    @property
    def failed(self):
        return self.status == CONTRACT_VIOLATION or bool(self.errors)


def span(tracer, name, info=None):
    return tracer.span(name, info) if tracer is not None else contextlib.nullcontext()


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _ledger_errors(label, rows):
    """rows: (f_calls, grad_calls, hv_calls, props) per record, in order."""
    errors = []
    prev = -1
    for k, (f, g, h, props) in enumerate(rows):
        if props != f + 2 * g + 4 * h:
            errors.append("%s: record %d props %d != f + 2 grad + 4 hv = %d"
                          % (label, k, props, f + 2 * g + 4 * h))
            break
        if props < prev:
            errors.append("%s: cumulative props decreased at record %d" % (label, k))
            break
        prev = props
    return errors


def exact_f_and_grad_norm(A, b, link, x):
    """f and ||grad f|| of the averaged NLS objective, from the raw data."""
    z = np.asarray(A @ x).ravel()
    if link == SIGMOID:
        phi = expit(z)
        d1 = phi * (1.0 - phi)
    else:
        phi = np.tanh(z)
        d1 = 1.0 - phi * phi
    r = b - phi
    grad = np.asarray(A.T @ (-2.0 * r * d1)).ravel() / b.shape[0]
    return float(np.mean(r * r)), float(np.linalg.norm(grad))


def _close(a, b):
    return abs(a - b) <= RECOMPUTE_RTOL * max(1.0, abs(a), abs(b))


def full_policy(n):
    return SamplingPolicy(mode=EXACT)


def subh_policy(n):
    return SamplingPolicy(mode=SUB_HESSIAN_ONLY, hess_batch=max(1, math.ceil(0.01 * n)))


def sub_eval_policy(n):
    return SamplingPolicy(
        mode=SUB_BOTH,
        grad_batch=max(1, math.ceil(0.05 * n)),
        hess_batch=max(1, math.ceil(0.01 * n)),
        adaptive=True,
        line_search_eval="batch",
    )


@dataclass
class State:
    """What the solver receives, plus the generated data it was built from."""

    problem: object
    constants: object
    A: object
    b: object
    link: str


def library_solve(state, label, config, make_policy, workdir, x_shift=0.0):
    """One solve through ``ntcg.solver.run``; checks run after the clock stops."""
    problem = state.problem
    problem.ledger.reset()
    problem.audit_ledger.reset()
    policy = make_policy(problem.n)
    x0 = np.full(problem.dim, x_shift)
    start = time.perf_counter()
    try:
        report = ntcg.solver.run(problem, config, policy=policy,
                                 constants=state.constants, x0=x0)
    except ContractViolation as exc:
        seconds = time.perf_counter() - start
        snap = problem.ledger.snapshot()
        return Solve(label, seconds, props=snap["props"], status=CONTRACT_VIOLATION,
                     fingerprint=("raised", str(exc), tuple(snap.values())),
                     completed=False)
    seconds = time.perf_counter() - start

    ledger = report.ledger
    errors = _ledger_errors(label, [(r.f_calls, r.grad_calls, r.hv_calls, r.props)
                                    for r in report.records])
    errors += _ledger_errors(label + " ledger", [(ledger["f_calls"], ledger["grad_calls"],
                                                  ledger["hv_calls"], ledger["props"])])
    if report.records and report.records[-1].props != ledger["props"]:
        errors.append("%s: last record props %d != ledger props %d"
                      % (label, report.records[-1].props, ledger["props"]))
    f_ref, gn_ref = exact_f_and_grad_norm(state.A, state.b, state.link, report.x_final)
    if not (_close(f_ref, report.final_f) and _close(gn_ref, report.final_true_grad_norm)):
        errors.append("%s: reported (f, |g|) = (%r, %r), recomputed (%r, %r)"
                      % (label, report.final_f, report.final_true_grad_norm, f_ref, gn_ref))
    csv_path = os.path.join(workdir, "run.csv")
    write_run_csv(csv_path, report)
    fingerprint = (report.termination, report.iterations, tuple(ledger.values()),
                   report.final_f, report.final_true_grad_norm, _sha(csv_path))
    return Solve(label, seconds, props=ledger["props"], iters=report.iterations,
                 final_f=report.final_f, final_grad_norm=report.final_true_grad_norm,
                 status=report.termination, fingerprint=fingerprint, errors=errors)


def cli_solve(data_path, variant, label, seed, max_iters, workdir, tracer=None):
    """One ``ntcg solve`` through ``ntcg.cli.main``, reports included."""
    out_dir = os.path.join(workdir, label)
    csv_path = os.path.join(out_dir, "run_seed%d.csv" % seed)
    agg_path = os.path.join(out_dir, "aggregate.json")
    for path in (csv_path, agg_path):
        if os.path.exists(path):
            os.remove(path)
    argv = ["solve", "--problem", "nls-sigmoid", "--data", data_path,
            "--variant", variant, "--seed", str(seed),
            "--max-iters", str(max_iters), "--out", out_dir]
    stdout = io.StringIO()
    start = time.perf_counter()
    with span(tracer, "cli.main"), contextlib.redirect_stdout(stdout):
        code = ntcg.cli.main(argv)
    seconds = time.perf_counter() - start

    lines = stdout.getvalue().strip().splitlines()
    if not lines:  # the CLI printed no report: the solve raised
        solve = Solve(label, seconds, status=CONTRACT_VIOLATION,
                      fingerprint=(NO_REPORT, code), completed=False)
        if code != ntcg.cli.EXIT_CONTRACT_VIOLATION:
            solve.errors.append("%s: exit code %d and no report" % (label, code))
        return solve
    summary = json.loads(lines[-1])
    rows = read_run_csv(csv_path)
    errors = _ledger_errors(label, [(r["f_calls"], r["grad_calls"], r["hv_calls"],
                                       r["props"]) for r in rows])
    if len(rows) != summary["iterations"] or rows[-1]["props"] != summary["props"]:
        errors.append("%s: CSV (%d rows, props %d) disagrees with the summary %r"
                      % (label, len(rows), rows[-1]["props"], summary))
    status = summary["termination"]
    if (code != 0) != (status == CONTRACT_VIOLATION):
        errors.append("%s: exit code %d with termination %s" % (label, code, status))
    fingerprint = (code, lines[-1], _sha(csv_path), _sha(agg_path))
    return Solve(label, seconds, props=summary["props"], iters=summary["iterations"],
                 final_f=summary["final_f"], final_grad_norm=summary["final_grad_norm"],
                 status=status, fingerprint=fingerprint, errors=errors)


def generated_setup(tracer, n, dim, link, seed):
    with span(tracer, "problems.generate"):
        problem = synthetic_nls(n, dim, link=link, seed=seed)
    with span(tracer, "problems.constants"):
        constants = constants_for(problem)
    return State(problem, constants, problem.A, problem.b, link)


def libsvm_setup(tracer, path, sparse, link, A, b):
    with span(tracer, "libsvm.load", {"bytes": os.path.getsize(path)}):
        A_loaded, b_loaded = load_libsvm(path, sparse=sparse)
    with span(tracer, "problems.generate"):
        problem = NLSProblem(A_loaded, b_loaded, link=link)
    with span(tracer, "problems.constants"):
        constants = constants_for(problem)
    # The recomputation check uses the generated arrays, not the loaded
    # ones, so it also covers the write/read cycle.
    return State(problem, constants, A, b, link)


# -- workloads -----------------------------------------------------------------
#
# ``next_job(done)`` names the next solve of a pass given the Solves already
# run in it, or returns None when the pass is complete.  ``run`` performs one
# job.  Every pass of a run therefore performs the same jobs.


class FixedJobs:
    JOBS = ()

    def next_job(self, done):
        return self.JOBS[len(done)] if len(done) < len(self.JOBS) else None


class DenseExact(FixedJobs):
    why = ("full preset, dense 20000x200 sigmoid: every oracle call reads all "
           "rows of a 32 MB matrix, so the oracle and problem layers dominate")
    JOBS = ("full",)

    def __init__(self, seed, smoke):
        self.seed = seed
        self.n, self.dim, self.budget = (2000, 50, 3) if smoke else (20000, 200, 10)

    def prep(self, workdir):
        pass

    def setup(self, tracer):
        return generated_setup(tracer, self.n, self.dim, SIGMOID, self.seed)

    def run(self, state, job, workdir, tracer, perturb):
        config = SolverConfig(eps_g=1e-3, seed=self.seed, max_outer_iters=self.budget,
                              skip_small_step_block=True)
        return library_solve(state, job, config, full_policy, workdir,
                             x_shift=1e-9 if perturb else 0.0)


class PresetsSmall(FixedJobs):
    why = ("all five CLI presets on two 5000x20 LIBSVM files: per-call overhead, "
           "FixedStep, sampling, reports, and the known inexact-full-eval failure")
    VARIANTS = ("full", "subh", "inexact-full-eval", "inexact-fixed", "inexact-sub-eval")
    # Two instances per pass: iterations to termination move with the
    # instance (inexact-full-eval fails anywhere from iteration 213 to 637),
    # and pooling two halves that swing of the pass totals.
    INSTANCES = 2
    JOBS = tuple(itertools.product(range(INSTANCES), VARIANTS))

    def __init__(self, seed, smoke):
        self.seed = seed
        self.n, self.dim, self.max_iters = (500, 10, 200) if smoke else (5000, 20, 1000)

    def prep(self, workdir):
        self.instances = []
        for i in range(self.INSTANCES):
            problem = synthetic_nls(self.n, self.dim, seed=[self.seed, i])
            path = os.path.join(workdir, "presets-small-%d.libsvm" % i)
            dump_libsvm(path, problem.A, problem.b)
            self.instances.append((path, problem.A, problem.b))

    def setup(self, tracer):
        # The CLI builds its own problems from the files; set-up is timed on
        # the same steps, and the first instance's State is returned.
        states = [libsvm_setup(tracer, path, False, SIGMOID, A, b)
                  for path, A, b in self.instances]
        return states[0]

    def run(self, state, job, workdir, tracer, perturb):
        i, variant = job
        return cli_solve(self.instances[i][0], variant, "%s#%d" % (variant, i),
                         self.seed + (1 if perturb else 0), self.max_iters, workdir,
                         tracer)


class NonconvexNC:
    why = ("tanh 10000x100 under subh with the small-step block on: the only "
           "workload with NC exits from capped CG, bidirectional search and MEO calls")

    # A pass runs consecutive solver seeds to termination until together
    # they have made `pass_iters` outer iterations; the last solve stops at
    # the remaining budget.  Single solves take 60 to 350 iterations, so a
    # fixed number of solves would make the pass length swing with the seed.
    MAX_SOLVES = 64

    def __init__(self, seed, smoke):
        self.seed = seed
        self.n, self.dim, self.pass_iters = (1000, 20, 60) if smoke else (10000, 100, 1200)

    def prep(self, workdir):
        pass

    def setup(self, tracer):
        return generated_setup(tracer, self.n, self.dim, TANH, self.seed)

    def next_job(self, done):
        left = self.pass_iters - sum(s.iters for s in done)
        if left <= 0 or len(done) >= self.MAX_SOLVES:
            return None
        return (self.seed + len(done), left)

    def run(self, state, job, workdir, tracer, perturb):
        seed, budget = job
        config = SolverConfig(eps_g=1e-3, eps_H=5e-3, seed=seed, max_outer_iters=budget,
                              skip_small_step_block=False)
        solve = library_solve(state, "seed%d" % seed, config, subh_policy, workdir,
                              x_shift=1e-9 if perturb else 0.0)
        solve.completed &= solve.status != ntcg.solver.TERM_MAX_ITERS
        return solve


class SparseSubsampled(FixedJobs):
    why = ("CSR 50000x2000 at 1% density from a 25 MB LIBSVM file under "
           "inexact-sub-eval: sparse rows, 5%/1% batches, audit-dominated solves")
    JOBS = ("inexact-sub-eval",)

    def __init__(self, seed, smoke):
        self.seed = seed
        if smoke:
            self.n, self.dim, self.budget = 2000, 200, 5
        else:
            self.n, self.dim, self.budget = 50000, 2000, 50
        self.density = 0.01

    def prep(self, workdir):
        rng = np.random.default_rng(self.seed)
        A = sp.random(self.n, self.dim, density=self.density, format="csr",
                      random_state=rng)
        A.data = rng.standard_normal(A.data.size)
        norms = np.sqrt(np.asarray(A.multiply(A).sum(axis=1)).ravel())
        scale = rng.uniform(0.5, 1.0, self.n) / np.where(norms > 0, norms, 1.0)
        A = (sp.diags(scale) @ A).tocsr()
        # The product above leaves each row's column indices unsorted;
        # dump_libsvm writes them in storage order and load_libsvm rejects
        # a file whose feature indices are not strictly increasing.
        A.sort_indices()
        x_star = rng.standard_normal(self.dim)
        x_star /= np.linalg.norm(x_star)
        b = (expit(A @ (3.0 * x_star)) + 0.1 * rng.standard_normal(self.n) > 0.5)
        self.A, self.b = A, b.astype(float)
        self.path = os.path.join(workdir, "sparse-subsampled.libsvm")
        dump_libsvm(self.path, self.A, self.b)

    def setup(self, tracer):
        return libsvm_setup(tracer, self.path, True, SIGMOID, self.A, self.b)

    def run(self, state, job, workdir, tracer, perturb):
        config = SolverConfig(eps_g=1e-3, seed=self.seed, max_outer_iters=self.budget,
                              skip_small_step_block=True)
        return library_solve(state, job, config, sub_eval_policy, workdir,
                             x_shift=1e-9 if perturb else 0.0)


WORKLOADS = {
    "dense-exact": DenseExact,
    "presets-small": PresetsSmall,
    "nonconvex-nc": NonconvexNC,
    "sparse-subsampled": SparseSubsampled,
}
