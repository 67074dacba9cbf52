"""Benchmark command line: data ingestion, variant presets, reporting.

``ntcg solve`` runs one of the five solver presets that
``ntcg.solver.preset`` defines (``--variant``) on an NLS dataset (LIBSVM
format) or a synthetic diagnostic, writes one CSV per repeat plus an
aggregate JSON (mean trajectory and 1-standard-deviation band keyed on
cumulative oracle calls), and exits nonzero only when a run ends in a
contract violation.

All presets skip the small-step oracle block by default (the practical
choice); pass --no-skip-small-step-block to run the faithful control flow.

Solver settings are ``SolverConfig`` fields and go by their field names:
in a config file (flat ``key = value`` text), in ``ExperimentSpec.config``
and as the destination of the flags that set them (``_SOLVER_FLAGS``).
Command-line flags win over the config file.  ``ExperimentSpec`` checks
every setting, naming its flag, before any data is read.

Repeats use consecutive seeds and run serially, one generator per repeat,
so outputs are reproducible byte for byte.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import solver
from ._validation import check_interval
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

PROBLEMS = ("nls-sigmoid", "nls-tanh", "nls-welsch", "quadratic", "saddle")
_NLS = tuple(p for p in PROBLEMS if p.startswith("nls-"))

# The ExperimentSpec fields that only some problems read: the flag that sets
# each and the problems that read it.  A spec for another problem that sets
# one to anything but None or False is rejected rather than run without it,
# so `ntcg solve` and the library refuse the same combinations.
_PROBLEM_FLAGS = {
    "data": ("--data", _NLS),
    "sparse": ("--sparse", _NLS),
    "welsch_alpha": ("--welsch-alpha", ("nls-welsch",)),
    "dim": ("--dim", ("quadratic", "saddle")),
}

EXIT_OK = 0
EXIT_CONTRACT_VIOLATION = 2


@dataclass
class ExperimentSpec:
    """One `ntcg solve` invocation.  `config` holds SolverConfig fields by
    name (all but `seed`, which `seed` and `repeats` set per repeat)."""

    problem: str
    variant: str
    data: str = None
    out: str = "."
    seed: int = 0
    repeats: int = 1
    audit: bool = False
    dim: int = None  # quadratic and saddle only; build_problem's default 10
    welsch_alpha: float = None  # nls-welsch only; build_problem's default 1.0
    sparse: bool = False
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError("unknown problem %r" % (self.problem,))
        if self.variant not in solver.PRESETS:
            raise ValueError("unknown variant %r" % (self.variant,))
        if self.repeats < 1:
            raise ValueError("--repeats must be >= 1, got %r" % (self.repeats,))
        if self.problem.startswith("nls-") and not self.data:
            raise ValueError("problem %r needs --data" % (self.problem,))
        for name, (flag, problems) in _PROBLEM_FLAGS.items():
            value = getattr(self, name)
            given = value is not None and value is not False
            if given and self.problem not in problems:
                raise ValueError("%s applies only to problems %s, not %r"
                                 % (flag, ", ".join(problems), self.problem))
        min_dim = 2 if self.problem == "saddle" else 1
        if self.dim is not None and self.dim < min_dim:
            raise ValueError("--dim must be >= %d for problem %r, got %r"
                             % (min_dim, self.problem, self.dim))
        if self.welsch_alpha is not None:
            check_interval(self.welsch_alpha, "--welsch-alpha", 0.0, math.inf)
        _, variant, settings = solver.preset(self.variant, 1)
        # One setting at a time, so the error names the one at fault.
        for key, value in self.config.items():
            if key not in _CONFIG_TYPES:
                raise ValueError("unknown config key %r" % key)
            try:
                solver.SolverConfig(**{key: value})
            except ValueError as exc:
                raise ValueError("%s: %s" % (_SOLVER_FLAGS.get(key)
                                             or "config key %r" % key, exc)) from None
            if (key in ("alpha_sol_fixed", "alpha_nc_fixed") and value is not None
                    and variant != solver.FIXED_STEP):
                fixed = ", ".join(repr(name) for name, (*_, rule)
                                  in solver.PRESETS.items() if rule == solver.FIXED_STEP)
                raise ValueError("step-size overrides apply to variant %s only; "
                                 "%r would ignore %s"
                                 % (fixed, self.variant, _SOLVER_FLAGS[key]))
        # The settings the run would get, under run's FixedStep rule.
        cfg = solver.SolverConfig(**{**settings, **self.config, "seed": self.seed})
        if (variant == solver.FIXED_STEP and cfg.alpha_sol_fixed is None
                and cfg.skip_small_step_block):
            raise ValueError("variant %r derives its Newton step only with the "
                             "small-step block; give --alpha-sol or "
                             "--no-skip-small-step-block" % (self.variant,))


def build_problem(spec):
    """Returns (problem, constants, x0)."""
    if spec.problem.startswith("nls-"):
        link = {"nls-sigmoid": SIGMOID, "nls-tanh": TANH, "nls-welsch": WELSCH}[
            spec.problem
        ]
        A, b = load_libsvm(spec.data, sparse=spec.sparse)
        alpha = 1.0 if spec.welsch_alpha is None else spec.welsch_alpha
        problem = NLSProblem(A, b, link=link, alpha=alpha)
        try:
            x0 = np.zeros(problem.dim)
        except (ValueError, MemoryError):
            # numpy refuses a byte size past 2**63 with ValueError.
            raise ValueError(
                "dimension %d, the largest feature index in %s, is too large "
                "for a dense iterate" % (problem.dim, spec.data)) from None
    elif spec.problem == "quadratic":
        problem = QuadraticProblem(np.ones(10 if spec.dim is None else spec.dim))
        x0 = np.ones(problem.dim)
    else:
        problem = SaddleProblem(10 if spec.dim is None else spec.dim)
        x0 = np.zeros(problem.dim)
    return problem, constants_for(problem), x0


def run_experiment(spec):
    """Execute the spec; returns (reports, exit_code).

    Side effects: per-repeat CSVs ``run_seed<seed>.csv`` and
    ``aggregate.json`` under spec.out, created with the first CSV, so a run
    rejected before it finishes leaves no directory behind.
    """
    out_dir = Path(spec.out)
    problem, constants, x0 = build_problem(spec)
    policy, variant, settings = solver.preset(spec.variant, problem.n)

    reports = []
    exit_code = EXIT_OK
    csv_paths = []
    for r in range(spec.repeats):
        seed = spec.seed + r
        config = solver.SolverConfig(**{**settings, **spec.config, "seed": seed})
        try:
            report = solver.run(
                problem,
                config,
                policy=policy,
                variant=variant,
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
            "eps": config.eps_g,
            "seeds": [spec.seed + r for r in range(spec.repeats)],
            "terminations": [rep.termination for rep in reports],
            "csv_files": [Path(p).name for p in csv_paths],
        },
    )
    return reports, exit_code


def load_config_file(path):
    """Flat ``key = value`` text; '#' starts a comment."""
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("config line %d is not key = value" % lineno)
            key, val = (part.strip() for part in line.split("=", 1))
            entries[key] = val
    return entries


def _config_bool(text):
    low = text.lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ValueError("expected true/false/yes/no/1/0, got %r" % text)


# The type each config-file value is read as, by SolverConfig field.
_CONFIG_TYPES = {f.name: {int: int, bool: _config_bool}.get(f.type, float)
                 for f in fields(solver.SolverConfig) if f.name != "seed"}

# The command-line flag of each SolverConfig field that has one: the flag
# writes the field (its argparse dest), and errors name it.
_SOLVER_FLAGS = {
    "eps_g": "--eps", "eps_H": "--eps-h", "max_outer_iters": "--max-iters",
    "skip_small_step_block": "--no-skip-small-step-block",
    "alpha_sol_fixed": "--alpha-sol", "alpha_nc_fixed": "--alpha-nc",
}


def spec_fields_from_config(raw):
    """The ExperimentSpec `config` dict from raw config-file entries; the
    spec rejects an unknown key."""
    config = {}
    for key, val in raw.items():
        try:
            config[key] = _CONFIG_TYPES.get(key, str)(val)
        except ValueError as exc:
            raise ValueError("config key %r: %s" % (key, exc)) from None
    return config


def make_parser():
    """Parser whose solve options are named after ExperimentSpec fields, or
    after SolverConfig fields for the solver flags; an option not given on
    the command line is absent from the namespace, so the config file or
    the default supplies it."""
    parser = argparse.ArgumentParser(
        prog="ntcg", description="Newton-CG benchmark driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("solve", help="run one solver preset, write CSV/JSON reports",
                       argument_default=argparse.SUPPRESS)

    def solver_flag(key, **kwargs):
        p.add_argument(_SOLVER_FLAGS[key], dest=key, **kwargs)

    p.add_argument("--problem", required=True, choices=PROBLEMS)
    p.add_argument("--data", help="LIBSVM file (required for nls-* problems)")
    p.add_argument("--variant", required=True, choices=solver.PRESETS)
    solver_flag("eps_g", type=float, help="first-order tolerance")
    solver_flag("eps_H", type=float,
                help="second-order tolerance; default sqrt(L_H * eps)")
    p.add_argument("--seed", type=int)
    p.add_argument("--repeats", type=int)
    p.add_argument("--audit", action="store_true",
                   help="verify decrease floors and caps (ledger-exempt "
                        "exact recomputation); nonzero exit on violation")
    solver_flag("skip_small_step_block", action="store_false",
                help="run the faithful small-step control flow")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dim", type=int, help="synthetic problem dimension")
    solver_flag("max_outer_iters", type=int)
    p.add_argument("--welsch-alpha", type=float)
    solver_flag("alpha_sol_fixed", type=float,
                help="fixed step for Newton-type steps (inexact-fixed)")
    solver_flag("alpha_nc_fixed", type=float,
                help="fixed step for curvature steps (inexact-fixed)")
    p.add_argument("--sparse", action="store_true", help="keep data sparse")
    p.add_argument("--config", help="flat key=value config file")
    return parser


def main(argv=None):
    args = vars(make_parser().parse_args(argv))
    del args["command"]
    try:
        config = {}
        if "config" in args:
            config = spec_fields_from_config(load_config_file(args.pop("config")))
        # Command-line flags win over the config file.
        config.update({key: args.pop(key) for key in _SOLVER_FLAGS if key in args})
        reports, code = run_experiment(ExperimentSpec(config=config, **args))
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
