"""ntcg benchmark: time and props to solution on four solver workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dense-exact --seed 0 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json; ``--trace 1``
prints every per-layer metric, measured by wrapping the layer boundaries of
``ntcg`` from outside (see tracing.py).  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is nonzero when the
correctness gate fails.  Workloads and metrics are described in README.md.
"""

import os
import sys

# One BLAS thread, fixed before numpy loads: the box running the benchmark
# is shared, and the oracle kernels here are memory-bound matrix-vector
# products that a second thread does not speed up.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import ntcg  # noqa: E402

if not os.path.abspath(ntcg.__file__).startswith(SRC + os.sep):
    sys.exit("ntcg was imported from %s, not from this checkout's src/" % ntcg.__file__)

import tracing  # noqa: E402
from workloads import NO_REPORT, WORKLOADS  # noqa: E402

# Set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_S of
# set-up time is spent, so that quick set-ups get a median over many.
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 100
SETUP_LAYER_KEYS = ("libsvm.load_s", "libsvm.load_mb", "problems.generate_s",
                    "problems.constants_s")

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "props": "props",
    "outer_iters": "iterations",
    "final_grad_norm": "1",
    "final_f": "1",
    "ok_rate": "fraction",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name):
    if name.endswith("props_per_s"):
        return "props/s"
    if name.startswith("share.") or name.endswith(("_ratio", "_share", "fail_rate")):
        return "fraction"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_rows", "_batch")):
        return "rows"
    if name.endswith("_props"):
        return "props"
    if name.endswith("_percentile"):
        return "%"
    return "count"


PER_LAYER_NAMES = (
    list(tracing.PER_PASS_KEYS)
    + ["oracle.mean_grad_batch", "oracle.mean_hess_batch", "solver.ls_accept_ratio",
       "oracle.row_copy_est_s", "oracle.row_copy_share"]
    + ["share." + layer for layer in tracing.LAYERS]
    + ["trace.overhead_s", "run.fail_rate", "run.props_per_s", "run.solve_tail_s",
       "run.solve_tail_percentile", "run.solve_samples"]
)


def blas_version():
    try:
        return np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        return "unknown"


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; with ten samples or fewer, the maximum."""
    xs = sorted(samples)
    k = len(xs) - 10
    if k < 1:
        return 100.0, xs[-1]
    return 100.0 * k / len(xs), xs[k - 1]


def copy_seconds_per_mb(state):
    """Measured time per MB of the row gather ``A[idx]`` on this instance.

    Turns the computed row-copy volume of the traced run into an estimated
    copy time; 0 for sparse data, whose gather the volume leaves out.
    """
    A = state.problem.A
    if hasattr(A, "tocsr"):
        return 0.0
    idx = np.arange(A.shape[0])
    times = []
    for _ in range(5):
        start = time.perf_counter()
        A[idx]
        times.append(time.perf_counter() - start)
    return statistics.median(times) / (A.nbytes / tracing.MB)


class Runner:
    """Runs passes and applies the correctness gate to every solve."""

    def __init__(self, workload, state, workdir, break_kind):
        self.wl = workload
        self.state = state
        self.workdir = workdir
        self.perturb = break_kind == "determinism"
        self.warm = None  # the untimed warm-up Solve
        self.reference = None  # fingerprints of the first pass
        self.errors = []
        # Per job of a pass: whether any of its solves failed.  Every pass
        # runs the same jobs, so attempted and failed count jobs, not
        # solves: they do not depend on how many passes fit in the time.
        self.job_failed = []

    def warm_up(self):
        """One untimed solve of the first job, so that caches fill and lazy
        set-up finishes before timing; the first pass must repeat it.  It
        stays out of the solve counts, which would otherwise lean towards
        the first job."""
        self.warm = self.wl.run(self.state, self.wl.next_job([]), self.workdir, None, False)
        self.errors.extend(self.warm.errors)

    def run_pass(self, tracer, pass_no):
        """One pass of the workload's solves; returns the list of Solves.

        A solve that breaks a check counts as failed: its own checks, the
        props counted from its traced oracle calls against its ledger, and
        its fingerprint against the same solve in the first pass (for the
        first job, against the warm-up).
        """
        solves = []
        while (job := self.wl.next_job(solves)) is not None:
            j = len(solves)
            mark = tracer.mark() if tracer is not None else 0
            s = self.wl.run(self.state, job, self.workdir, tracer, self.perturb)
            if tracer is not None and s.fingerprint[0] != NO_REPORT:
                counted = tracer.counted_props(mark)
                if counted != s.props:
                    s.errors.append("%s: traced oracle calls give %d props, the "
                                    "ledger %d" % (s.label, counted, s.props))
            if self.reference is not None:
                expected = self.reference[j] if j < len(self.reference) else None
            else:
                expected = self.warm.fingerprint if j == 0 else s.fingerprint
            if s.fingerprint != expected:
                s.errors.append("%s: %s pass %d differs from the first run"
                                % (s.label, "traced" if tracer else "untraced", pass_no))
            self.record(j, s)
            solves.append(s)
        if self.reference is None:
            self.reference = [s.fingerprint for s in solves]
        elif len(solves) != len(self.reference):
            self.errors.append("pass %d ran %d solves, the first pass %d"
                               % (pass_no, len(solves), len(self.reference)))
        return solves

    def record(self, j, solve):
        self.errors.extend(solve.errors)
        if j == len(self.job_failed):
            self.job_failed.append(False)
        self.job_failed[j] |= solve.failed

    @property
    def attempted(self):
        return len(self.job_failed)

    @property
    def failed(self):
        return sum(self.job_failed)


def measure(args):
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    workdir = os.path.join(ROOT, ".bench_work", "%s-%d-%d"
                           % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        return _measure(wl, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while another run uses it
            os.rmdir(os.path.dirname(workdir))


def _measure(wl, workdir, args):
    if args.break_kind == "ledger":
        ntcg.OracleLedger.props = property(
            lambda self: self.f_calls + 2 * self.grad_calls + 4 * self.hv_calls + 1)
    traced = args.trace == 1
    tracer = tracing.Tracer() if traced else None

    wl.prep(workdir)
    setup_times = []
    while (len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_S) \
            and len(setup_times) < SETUP_MAX_REPEATS:
        start = time.perf_counter()
        state = wl.setup(tracer)
        setup_times.append(time.perf_counter() - start)

    runner = Runner(wl, state, workdir, args.break_kind)
    runner.warm_up()
    passes_mark = tracer.mark() if traced else 0
    plain, with_trace = [], []  # lists of passes (lists of Solves)
    copy_rates = []
    deadline = time.perf_counter() + args.seconds
    pass_no = 0
    while True:
        if traced and pass_no % 2 == 1:
            with tracing.instrument(tracer):
                with_trace.append(runner.run_pass(tracer, pass_no))
            # Calibrated right after each traced pass, so that the machine's
            # drift between calibration and pass stays small.
            copy_rates.append(copy_seconds_per_mb(runner.state))
        else:
            plain.append(runner.run_pass(None, pass_no))
        pass_no += 1
        if time.perf_counter() >= deadline and (with_trace or not traced):
            break

    first = plain[0]
    finals = [s for s in first if s.completed] or first
    pass_s = [sum(s.seconds for s in p) for p in plain]
    samples = [s.seconds for p in plain for s in p]
    solve_s = statistics.median(pass_s)
    fail_rate = runner.failed / runner.attempted
    # Unbounded: it is props over solve_s, and on presets-small the preset
    # mix of each instance moves it more than the machine's drift allows.
    props_per_s = sum(s.props for p in plain for s in p) / sum(pass_s)
    percentile, tail_s = tail(samples)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "solve_s": solve_s,
        "props": sum(s.props for s in first),
        "outer_iters": sum(s.iters for s in first),
        "final_grad_norm": max(s.final_grad_norm for s in finals),
        "final_f": statistics.fmean(s.final_f for s in finals),
        "ok_rate": 1.0 - fail_rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    print("workload %s seed %d: %s" % (args.workload, args.seed, wl.why))
    print("blas threads %d (OpenBLAS %s), numpy %s; %d passes untraced, %d traced, "
          "%d solves" % (BLAS_THREADS, blas_version(), np.__version__, len(plain),
                         len(with_trace), len(samples)))
    for s in first:
        print("  solve %-18s %8.3f s  %6d iters  %12d props  %-24s |g| %.3e  f %.6f"
              % (s.label, s.seconds, s.iters, s.props, s.status, s.final_grad_norm,
                 s.final_f))
    print("  %-16s %.6g s (median over %d solves); p%.0f %.6g s"
          % ("solve (per solve)", statistics.median(samples), len(samples),
             percentile, tail_s))
    print("  %-16s %.6g s (median over %d set-ups)" % ("set-up", e2e["setup_s"],
                                                         len(setup_times)))
    print("  %-16s %.6g %s" % ("fail_rate", fail_rate, "fraction"))
    print("  %-16s %.6g %s" % ("props_per_s", props_per_s, "props/s"))
    for name, value in e2e.items():
        print("  %-16s %.6g %s" % (name, value, END_TO_END_UNITS[name]))
    for err in runner.errors:
        print("GATE: " + err)

    if traced:
        traced_pass_s = [sum(s.seconds for s in p) for p in with_trace]
        # Shares divide per-pass means of the span times, so by the mean pass.
        wall = statistics.fmean(traced_pass_s)
        values = tracer.layer_metrics(passes_mark, len(with_trace), wall,
                                      statistics.median(copy_rates))
        # The set-up layers are reported per set-up, from the set-up spans.
        setup_values = tracer.layer_metrics(0, len(setup_times), wall, 0.0, until=passes_mark)
        for key in SETUP_LAYER_KEYS:
            values[key] = setup_values[key]
        values["trace.overhead_s"] = statistics.median(traced_pass_s) - solve_s
        values["run.fail_rate"] = fail_rate
        values["run.props_per_s"] = props_per_s
        values["run.solve_tail_s"] = tail_s
        values["run.solve_tail_percentile"] = percentile
        values["run.solve_samples"] = len(samples)
        metrics = {k: {"value": values[k], "unit": per_layer_unit(k)}
                   for k in PER_LAYER_NAMES}
        for k in PER_LAYER_NAMES:
            print("  %-28s %.6g %s" % (k, values[k], per_layer_unit(k)))
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    correct = not runner.errors
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small instances, for the harness self-test")
    parser.add_argument("--break", dest="break_kind", choices=("ledger", "determinism"),
                        help="break the program on purpose; the gate must catch it")
    return measure(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
