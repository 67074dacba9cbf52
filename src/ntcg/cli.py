"""Benchmark command line: data ingestion, variant presets, reporting.

``ntcg solve`` runs one of five solver presets on an NLS dataset (LIBSVM
format) or a synthetic diagnostic, writes one CSV per repeat plus an
aggregate JSON (mean trajectory and 1-standard-deviation band keyed on
cumulative oracle calls), and exits nonzero only when a run ends in a
contract violation.

Presets:
  full              exact gradients, Hessians, and function values
  subh              exact gradient/function, Hessian batch 0.01 n
  inexact-full-eval gradient batch 0.05 n (adaptive, factor 1.2), Hessian
                    batch 0.01 n, exact line-search objective
  inexact-fixed     same batches, predefined steps (defaults 0.2 for
                    Newton-type steps, 0.04 for curvature steps)
  inexact-sub-eval  like full-eval but the line-search objective is
                    estimated on the gradient batch; heuristic, outside
                    the decrease guarantees, and usually the fastest

All presets skip the small-step oracle block by default (the practical
choice); pass --no-skip-small-step-block to run the faithful control flow.
Config files are flat ``key = value`` text; command-line flags win.

Repeats use consecutive seeds and run serially, one generator per repeat,
so outputs are reproducible byte for byte.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import solver
from .exceptions import ContractViolation, LibSVMFormatError
from .libsvm import load_libsvm
from .problems import (
    SIGMOID,
    TANH,
    WELSCH,
    NLSProblem,
    QuadraticProblem,
    SaddleProblem,
    constants_for,
)
from .reporting import aggregate_runs, write_aggregate_json, write_run_csv
from .sampling import PRESETS, preset_policy

PROBLEMS = ("nls-sigmoid", "nls-tanh", "nls-welsch", "quadratic", "saddle")
_NLS = tuple(p for p in PROBLEMS if p.startswith("nls-"))
VARIANTS = PRESETS

EXIT_OK = 0
EXIT_CONTRACT_VIOLATION = 2


@dataclass
class ExperimentSpec:
    problem: str
    variant: str
    data: str = None
    out: str = "."
    eps: float = 1e-3
    eps_h: float = None
    seed: int = 0
    repeats: int = 1
    audit: bool = False
    skip_small_step_block: bool = True
    dim: int = 10
    max_iters: int = 10_000
    welsch_alpha: float = 1.0
    alpha_sol: float = None
    alpha_nc: float = None
    sparse: bool = False
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError("unknown problem %r" % (self.problem,))
        if self.variant not in VARIANTS:
            raise ValueError("unknown variant %r" % (self.variant,))
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.problem.startswith("nls-") and not self.data:
            raise ValueError("problem %r needs --data" % (self.problem,))
        # A key that a spec field also sets would be applied but reported
        # (aggregate.json) at the field's value; `seed` (set by spec.seed, so
        # no config key) would be dropped.
        for key in self.overrides:
            if key in _FIELD_OF_KEY:
                raise ValueError("config key %r is set by the spec field %r, not "
                                 "by overrides" % (key, _FIELD_OF_KEY[key]))
            if key not in _CONFIG_TYPES:
                raise ValueError("unknown config key %r" % key)


def build_problem(spec):
    """Returns (problem, constants, x0)."""
    if spec.problem.startswith("nls-"):
        link = {"nls-sigmoid": SIGMOID, "nls-tanh": TANH, "nls-welsch": WELSCH}[
            spec.problem
        ]
        A, b = load_libsvm(spec.data, sparse=spec.sparse)
        problem = NLSProblem(A, b, link=link, alpha=spec.welsch_alpha)
        try:
            x0 = np.zeros(problem.dim)
        except (ValueError, MemoryError):
            # numpy refuses a byte size past 2**63 with ValueError.
            raise ValueError(
                "dimension %d, the largest feature index in %s, is too large "
                "for a dense iterate" % (problem.dim, spec.data)) from None
    elif spec.problem == "quadratic":
        problem = QuadraticProblem(np.ones(spec.dim))
        x0 = np.ones(problem.dim)
    else:
        problem = SaddleProblem(spec.dim)
        x0 = np.zeros(problem.dim)
    return problem, constants_for(problem), x0


def build_config(spec, seed):
    kwargs = {key: getattr(spec, name) for name, key in _FLAG_KEYS.items()}
    variant_kind = solver.LINE_SEARCH
    if spec.variant == "inexact-fixed":
        variant_kind = solver.FIXED_STEP
        for key, default in (("alpha_sol_fixed", 0.2), ("alpha_nc_fixed", 0.04)):
            if kwargs[key] is None:
                kwargs[key] = default
    kwargs.update(spec.overrides, seed=seed)
    return solver.SolverConfig(**kwargs), variant_kind


def run_experiment(spec):
    """Execute the spec; returns (reports, exit_code).

    Side effects: per-repeat CSVs ``run_seed<seed>.csv`` and
    ``aggregate.json`` under spec.out, created with the first CSV, so a run
    rejected before it finishes leaves no directory behind.
    """
    out_dir = Path(spec.out)
    problem, constants, x0 = build_problem(spec)

    reports = []
    exit_code = EXIT_OK
    csv_paths = []
    for r in range(spec.repeats):
        seed = spec.seed + r
        policy = preset_policy(spec.variant, problem.n)
        config, variant_kind = build_config(spec, seed)
        try:
            report = solver.run(
                problem,
                config,
                policy=policy,
                variant=variant_kind,
                constants=constants,
                x0=x0,
                audit=spec.audit,
            )
        except ContractViolation as exc:
            print("contract violation (seed %d): %s" % (seed, exc), file=sys.stderr)
            return reports, EXIT_CONTRACT_VIOLATION
        reports.append(report)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / ("run_seed%d.csv" % seed)
        write_run_csv(path, report)
        csv_paths.append(str(path))
        if report.termination == solver.TERM_CONTRACT_VIOLATION:
            exit_code = EXIT_CONTRACT_VIOLATION

    agg = aggregate_runs([rep.records for rep in reports])
    write_aggregate_json(
        out_dir / "aggregate.json",
        agg,
        extra={
            "problem": spec.problem,
            "variant": spec.variant,
            "eps": spec.eps,
            "seeds": [spec.seed + r for r in range(spec.repeats)],
            "terminations": [rep.termination for rep in reports],
            "csv_files": [Path(p).name for p in csv_paths],
        },
    )
    return reports, exit_code


def load_config_file(path):
    """Flat ``key = value`` text; '#' starts a comment."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("config line %d is not key = value" % lineno)
            key, val = (part.strip() for part in line.split("=", 1))
            overrides[key] = val
    return overrides


def _config_bool(text):
    low = text.lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ValueError("expected true/false/yes/no/1/0, got %r" % text)


_CONFIG_TYPES = {
    "eps_g": float, "eps_H": float, "theta": float, "eta": float, "zeta": float,
    "delta": float, "theta_tilde": float, "U_H": float, "L_H": float,
    "max_outer_iters": int, "max_ls_trials": int,
    "skip_small_step_block": _config_bool,
    "alpha_sol_fixed": float, "alpha_nc_fixed": float,
}

# The SolverConfig field that each command-line flag sets, by the
# ExperimentSpec field the flag fills; a config file names the same setting
# by the SolverConfig field.
_FLAG_KEYS = {
    "eps": "eps_g", "eps_h": "eps_H", "max_iters": "max_outer_iters",
    "skip_small_step_block": "skip_small_step_block",
    "alpha_sol": "alpha_sol_fixed", "alpha_nc": "alpha_nc_fixed",
}
_FIELD_OF_KEY = {key: name for name, key in _FLAG_KEYS.items()}


def spec_fields_from_config(raw):
    """ExperimentSpec fields from raw config entries: keys that have a
    command-line flag set that flag's field, the rest go to `overrides`."""
    fields, overrides = {}, {}
    for key, val in raw.items():
        if key not in _CONFIG_TYPES:
            raise ValueError("unknown config key %r" % key)
        try:
            value = _CONFIG_TYPES[key](val)
        except ValueError as exc:
            raise ValueError("config key %r: %s" % (key, exc)) from None
        if key in _FIELD_OF_KEY:
            fields[_FIELD_OF_KEY[key]] = value
        else:
            overrides[key] = value
    fields["overrides"] = overrides
    return fields


def make_parser():
    """Parser whose solve options are named after ExperimentSpec fields; an
    option not given on the command line is absent from the namespace, so
    the config file or the spec default supplies it."""
    parser = argparse.ArgumentParser(
        prog="ntcg", description="Newton-CG benchmark driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("solve", help="run one solver preset, write CSV/JSON reports",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--problem", required=True, choices=PROBLEMS)
    p.add_argument("--data", help="LIBSVM file (required for nls-* problems)")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--eps", type=float, help="first-order tolerance")
    p.add_argument("--eps-h", type=float,
                   help="second-order tolerance; default sqrt(L_H * eps)")
    p.add_argument("--seed", type=int)
    p.add_argument("--repeats", type=int)
    p.add_argument("--audit", action="store_true",
                   help="verify decrease floors and caps (ledger-exempt "
                        "exact recomputation); nonzero exit on violation")
    p.add_argument("--no-skip-small-step-block", dest="skip_small_step_block",
                   action="store_false",
                   help="run the faithful small-step control flow")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dim", type=int, help="synthetic problem dimension")
    p.add_argument("--max-iters", type=int)
    p.add_argument("--welsch-alpha", type=float)
    p.add_argument("--alpha-sol", type=float,
                   help="fixed step for Newton-type steps (inexact-fixed)")
    p.add_argument("--alpha-nc", type=float,
                   help="fixed step for curvature steps (inexact-fixed)")
    p.add_argument("--sparse", action="store_true", help="keep data sparse")
    p.add_argument("--config", help="flat key=value config file")
    return parser


# The solve options that only some problems read, by ExperimentSpec field:
# the flag and the problems that read it.  Another problem rejects the flag
# rather than run without it.
_PROBLEM_FLAGS = {
    "data": ("--data", _NLS),
    "sparse": ("--sparse", _NLS),
    "welsch_alpha": ("--welsch-alpha", ("nls-welsch",)),
    "dim": ("--dim", ("quadratic", "saddle")),
}


def _check_problem_flags(args):
    """Raise ValueError for a flag in `args`, the options given on the
    command line, that the chosen problem does not read."""
    for name, (flag, problems) in _PROBLEM_FLAGS.items():
        if name in args and args["problem"] not in problems:
            raise ValueError("%s applies only to problems %s, not %r"
                             % (flag, ", ".join(problems), args["problem"]))


def main(argv=None):
    args = vars(make_parser().parse_args(argv))
    del args["command"]
    try:
        _check_problem_flags(args)
        fields = {}
        if "config" in args:
            fields = spec_fields_from_config(load_config_file(args.pop("config")))
        fields.update(args)  # command-line flags win over the config file
        reports, code = run_experiment(ExperimentSpec(**fields))
    except (OSError, LibSVMFormatError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: out of memory (%s); --sparse keeps LIBSVM data in CSR form"
              % exc, file=sys.stderr)
        return 1
    for rep in reports:
        print(
            json.dumps(
                {
                    "termination": rep.termination,
                    "iterations": rep.iterations,
                    "final_f": rep.final_f,
                    "final_grad_norm": rep.final_true_grad_norm,
                    "props": rep.ledger["props"],
                }
            )
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
