"""Golden trajectories: pinned outcomes of whole solver runs.

Each case pins the termination status, the iteration count, the ledger
props, two sha256 digests of the integer and string columns of the run CSV
and the final objective to a relative 1e-12.  The trajectory digest covers
step types, classes and inner iteration counts; the count digest covers the
cumulative oracle calls and props.  Float columns stay out of the digests
so the pins do not depend on the last bit of BLAS reductions, while any
change to the control flow or the random draw order shows up in the
trajectory digest, and any change to what the run pays in the count digest.

The preset cases run ``ntcg solve`` end to end on LIBSVM files written from
``synthetic_nls(3000, 15, seed=1)``; the audit cases call ``run`` directly
and also pin the audit summary.

A change that moves trajectories re-records the pins from the output of

    PYTHONPATH=src python tests/test_golden.py

which runs the cases of ``CASES`` and prints ``GOLDEN`` and ``AUDIT`` for
the current tree in this file's format, then one comment line per case
naming the pin fields that differ from the committed pins.
"""

import csv
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ntcg import (
    FIXED_STEP,
    LINE_SEARCH,
    SaddleProblem,
    SamplingPolicy,
    SolverConfig,
    dump_libsvm,
    run,
    synthetic_nls,
)
from ntcg.cli import ExperimentSpec, run_experiment
from ntcg.problems import TANH
from ntcg.reporting import write_run_csv
from ntcg.sampling import SUB_BOTH
from ntcg.solver import PRESETS

# The trajectory columns fix the control flow; the count columns fix what
# the run paid for it.  A change that only stops paying for a value twice
# moves the count digest and leaves the trajectory digest alone.
TRAJECTORY_COLUMNS = (
    "iter", "d_type", "step_class", "ls_trials", "cg_iters", "meo_iters",
)
COUNT_COLUMNS = ("f_calls", "grad_calls", "hv_calls", "props")

# case -> (termination, iterations, props, trajectory digest, count digest,
#          final f)
GOLDEN = {
    "full": (
        "CertifiedAtCurrentPoint", 472, 10080000,
        "b66a841cf6579ddb2a6273b1530aac1b7d00852b1e775c6b3e0206bf4386289a",
        "f3961280d71e28782f273df4a2509463fecaab3fc6cae86afb1961595eeca792",
        0.12799617610203531,
    ),
    "subh": (
        "CertifiedAtCurrentPoint", 472, 4350480,
        "e6cb21b76529e273735ee0905e3621b061a3c5db056058ddb022aad9ebc87a63",
        "72971dd14cce7c3dfdec9fae13cd852eac3932510bed8fbe25d84347b8b80912",
        0.12799576718562336,
    ),
    "inexact-full-eval": (
        "ContractViolation", 224, 986334,
        "bacb71984d33969956064c4d80b76b8dd7e9668df081e60e18067128db3e1e47",
        "c82f77a13b0f2e93af5776f305ac70dbc3bc6958552b40fd56f50908719f74ee",
        0.1313462703047632,
    ),
    "inexact-fixed": (
        "CertifiedAtCurrentPoint", 2362, 5529828,
        "f4da15629abc6903d96b73de3b53951ec7abada07ca37c5ebcfe7c7ed7ed96c5",
        "7bb8aa199b874a2d212eb13592400fa2753cace7edaf57b11b07521c0c1f2a8e",
        0.1279962126943314,
    ),
    "inexact-sub-eval": (
        "CertifiedAtCurrentPoint", 2490, 2500818,
        "7a5a3a2fbb8250a34058cbd06e785aa105f80f7cfc86b6f6fb1bc51163f09090",
        "90f8f7f3daef864a47ec6cd4aa22df1bb13f95fd21a903da20410fd53d7dde5f",
        0.12694902912443676,
    ),
    "tanh-subh-block": (
        "FirstOrderAndCertified", 416, 3851520,
        "cf8dbe2f85500cd2b10d0e2481dd76c04caf3d652c6c7cbc989a4e285935f2c2",
        "5d50e6e67fa8a86ab600b9ee73f06753d1f51bfd22305d95d1f9322426c20b0c",
        0.15000955704296065,
    ),
    "tanh-subh-block-nc": (
        "FirstOrderAndCertified", 48, 555960,
        "de5c1a247646a161f527e4a2e911fcdebfd4d09fa253c7302bd86adde02211c4",
        "e12e6f44e4ef0e433841b760374b2731ee12c6d43f650db2619c5cb20bbaef33",
        0.14933480332971924,
    ),
    "saddle-LineSearch-negative-axis": (
        "FirstOrderAndCertified", 3, 29,
        "72aa4fe9f3f5cd65e9d8e35248e9d03d77877f4914b7cfa001a78fef4ce48605",
        "5fc966a604afef767f3cc3f74919ba7d760922e60bb76f6a73b42ac6fd381aa7",
        -0.24999913683030922,
    ),
    "saddle-LineSearch-origin": (
        "CertifiedAtCurrentPoint", 2, 22,
        "422cbc12140a729beadc6aa2b68924256b7d7888e99a6080f64ba812cf90a248",
        "ce3515d12e9d72fce6dd63aef82f2ebc097e1f101430f2ae57ff2b65a340a137",
        -0.25,
    ),
    "saddle-LineSearch-positive-axis": (
        "FirstOrderAndCertified", 3, 53,
        "8df1f117dd6b17363439d987033d9535d5dddc8375cdca44f647c7e0bc2e8957",
        "265172b0c2fd78ed6e0300eebb26eb17fd5ed8b56ae69a0b3a3de6b7ceb9d7d7",
        -0.2499999204019439,
    ),
    "saddle-FixedStep-negative-axis": (
        "FirstOrderAndCertified", 27, 170,
        "e808148e234e597f0b450df3d903e491f522764ad27683e1cdd5a0ac5dd03fb2",
        "20c7f1d0def2f8c0968809ef7cba98aadc54b92cd9470e7fc3b9f5c117d47263",
        -0.24999955744584304,
    ),
    "saddle-FixedStep-origin": (
        "FirstOrderAndCertified", 28, 184,
        "d443a7f556534f83a82142a387749e7a3cf5a9bd8ee03cceb6ac17e57d14a7c7",
        "09ad7c48acea4f6203c152e0cdfd7fc82761083a993c62824e29fc94763977f1",
        -0.24999959721471054,
    ),
    "saddle-FixedStep-positive-axis": (
        "FirstOrderAndCertified", 29, 198,
        "d8695486b18a49db3ae08eb2fc12ae15dca51782764b3258cf1334e1d9384ba0",
        "7bc2b68dfef1334798f9b66bf25381dedb840f6358d9f9ecb7a725175eb6d2eb",
        -0.24999959683683262,
    ),
    "nls-audit-LineSearch-sampled": (
        "MaxIters", 40, 41980,
        "b39c30206e59b737e86d59646f2196988b31ee2c5bdd7ca766341ddfe827120b",
        "2140f0923bbdb69e1b39ce7c809454bbe01153312ea1d9f78d3031910c5c2dd1",
        0.11450239122340579,
    ),
    "nls-audit-LineSearch-exact": (
        "FirstOrderAndCertified", 86, 186600,
        "f7ba6eceb7d52c2f6f0060925185649d660d878d01f21849eb75140118ee4135",
        "8b01f64b01c1a7b47ec9423120590a41cae97b4bd98bc4e0686ef1205e8b0fcf",
        0.0948241170207906,
    ),
    "nls-audit-FixedStep-exact": (
        "FirstOrderAndCertified", 209, 382200,
        "827892f7d185b6b657464f8efa53a6c49639aa9e6da02f5b1582b93bb3c0242f",
        "8057198fb4d91030a60bf91a95f0885a74c70833d52ab12da1f9366efcb7a52a",
        0.09491784979367379,
    ),
}


# case -> (n_checks, violations, iteration bound, condition outcomes by k)
AUDIT = {
    "saddle-LineSearch-negative-axis": (7, 0, 28550501212199, ""),
    "saddle-LineSearch-origin": (4, 0, 28693790830157, ""),
    "saddle-LineSearch-positive-axis": (7, 0, 28699529875261, ""),
    "saddle-FixedStep-negative-axis": (58, 0, 2360434819, ""),
    "saddle-FixedStep-origin": (61, 0, 2372281399, ""),
    "saddle-FixedStep-positive-axis": (63, 0, 2372755879, ""),
    "nls-audit-LineSearch-sampled": (
        0, 0, None, "0101010110001101010000000000100100000001",
    ),
    "nls-audit-LineSearch-exact": (255, 0, 286201099886, ""),
    "nls-audit-FixedStep-exact": (416, 0, 71685985, ""),
}


def column_digest(rows, columns):
    text = "\n".join(",".join(row[c] for c in columns) for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(report, csv_path):
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return (
        report.termination,
        report.iterations,
        report.ledger["props"],
        column_digest(rows, TRAJECTORY_COLUMNS),
        column_digest(rows, COUNT_COLUMNS),
        report.final_f,
    )


def write_datasets(root):
    paths = {}
    for name, link in (("sigmoid", "sigmoid"), ("tanh", TANH)):
        problem = synthetic_nls(3000, 15, link=link, seed=1)
        paths[name] = str(root / (name + ".libsvm"))
        dump_libsvm(paths[name], problem.A, problem.b)
    return paths


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    return write_datasets(tmp_path_factory.mktemp("golden"))


def cli_case(datasets, tmp_path, problem, variant, skip_block=True, eps_h=None):
    link = problem.split("-", 1)[1]
    spec = ExperimentSpec(problem=problem, variant=variant, data=datasets[link],
                          out=str(tmp_path),
                          config={"skip_small_step_block": skip_block, "eps_H": eps_h})
    reports, _ = run_experiment(spec)
    (report,) = reports
    return report, tmp_path / "run_seed0.csv"


def direct_case(tmp_path, problem, consts, config, variant, x0, policy=None):
    report = run(problem, config, policy=policy, variant=variant,
                 constants=consts, x0=x0, audit=True)
    path = tmp_path / "run.csv"
    write_run_csv(path, report)
    return report, path


# Saddle start points: the origin, where only the eigenvalue oracle sees
# the escape direction; a point off it along the negative-curvature axis,
# where capped CG sees it; and one along a positive-curvature axis, where
# CG returns a small Newton step and the small-step block's oracle call
# supplies the curvature direction.
SADDLE_STARTS = {"origin": (0, 0.0), "negative-axis": (0, 0.05),
                 "positive-axis": (1, 0.01)}


def saddle_case(tmp_path, variant, start):
    dim, seed = (4, 5) if variant == LINE_SEARCH else (3, 21)
    problem = SaddleProblem(dim, mu=1.0, gamma=1.0)
    consts = problem.constants()
    config = SolverConfig(eps_g=1e-3, U_H=consts.U_H, L_H=consts.L_H, seed=seed,
                          max_outer_iters=5000)
    x0 = np.zeros(dim)
    axis, value = SADDLE_STARTS[start]
    x0[axis] = value
    return direct_case(tmp_path, problem, consts, config, variant, x0)


def nls_audit_case(tmp_path, variant, sampled):
    # Sampled: retrospective accuracy conditions.  Exact: decrease floors,
    # backtracking caps and the iteration bound.
    problem = synthetic_nls(300, 5, seed=31)
    policy = None
    if sampled:
        policy = SamplingPolicy(mode=SUB_BOTH, grad_batch=290, hess_batch=30)
    config = SolverConfig(eps_g=5e-3, seed=32, max_outer_iters=40 if sampled else 400,
                          skip_small_step_block=sampled)
    return direct_case(tmp_path, problem, None, config, variant, np.zeros(5),
                       policy=policy)


def golden_cases():
    """case -> (audited, callable(datasets, out_dir) returning (report, run
    CSV path)), in the order of GOLDEN."""
    cases = {}
    for variant in PRESETS:
        cases[variant] = False, lambda datasets, out, v=variant: cli_case(
            datasets, out, "nls-sigmoid", v)
    # The smaller eps_H makes capped CG return curvature directions.
    for case, eps_h in (("tanh-subh-block", None), ("tanh-subh-block-nc", 5e-3)):
        cases[case] = False, lambda datasets, out, e=eps_h: cli_case(
            datasets, out, "nls-tanh", "subh", skip_block=False, eps_h=e)
    for variant in (LINE_SEARCH, FIXED_STEP):
        for start in sorted(SADDLE_STARTS):
            cases["saddle-%s-%s" % (variant, start)] = True, (
                lambda datasets, out, v=variant, s=start: saddle_case(out, v, s))
    for variant, sampled in ((LINE_SEARCH, True), (LINE_SEARCH, False),
                             (FIXED_STEP, False)):
        cases["nls-audit-%s-%s" % (variant, "sampled" if sampled else "exact")] = True, (
            lambda datasets, out, v=variant, s=sampled: nls_audit_case(out, v, s))
    return cases


CASES = golden_cases()


def case_pins(case, datasets, out):
    """The GOLDEN pin of case and its AUDIT pin (None without an audit)."""
    audited, run_case = CASES[case]
    report, path = run_case(datasets, out)
    return fingerprint(report, path), audit_pin(report) if audited else None


@pytest.mark.parametrize("case", CASES)
def test_golden_trajectory(datasets, tmp_path, case):
    assert changed_fields(case, *case_pins(case, datasets, tmp_path)) == []


def test_printed_pins_match_this_file():
    text = Path(__file__).read_text(encoding="utf-8")
    assert format_pins("GOLDEN", GOLDEN) in text
    assert format_pins("AUDIT", AUDIT) in text


def test_changed_fields_name_what_moved():
    case = "saddle-LineSearch-origin"
    assert changed_fields(case, GOLDEN[case], AUDIT[case]) == []
    golden, audit = list(GOLDEN[case]), list(AUDIT[case])
    golden[2] += 1
    golden[5] *= 1 + 1e-9
    audit[0] += 1
    assert changed_fields(case, golden, audit) == ["props", "final f", "audit checks"]
    assert changed_fields(case, golden, None) == ["props", "final f", "audit"]
    assert changed_fields("new-case", golden, None) == ["not pinned"]


def audit_pin(report):
    audit = report.audit
    return (
        audit["n_checks"],
        len(audit["violations"]),
        audit.get("iteration_bound"),
        "".join("1" if r["ok"] else "0" for r in audit["condition_results"]),
    )


def format_pins(name, pins, width=88):
    """`name = {...}` as this file writes it: an entry on one line when it
    fits in width columns; else its leading values share an indented line
    as far as they fit, and each value after them has a line of its own."""
    lines = [name + " = {"]
    for case, pin in pins.items():
        values = ['"%s"' % v if isinstance(v, str) else repr(v) for v in pin]
        line = '    "%s": (%s),' % (case, ", ".join(values))
        if len(line) <= width:
            lines.append(line)
            continue
        lines.append('    "%s": (' % case)
        head = " " * 7
        while values and len(head) + len(values[0]) + 2 <= width:
            head += " " + values.pop(0) + ","
        lines += [head] + ["        %s," % value for value in values] + ["    ),"]
    return "\n".join(lines + ["}"])


GOLDEN_FIELDS = ("termination", "iterations", "props", "trajectory digest",
                 "count digest", "final f")
AUDIT_FIELDS = ("audit checks", "audit violations", "audit iteration bound",
                "audit conditions")


def changed_fields(case, golden, audit):
    """Names of the fields of case's pins that differ from the committed
    ones: final f to a relative 1e-12, every other field exactly. The
    golden test requires an empty list; __main__ prints it per case."""
    if case not in GOLDEN:
        return ["not pinned"]
    *pinned, final_f = GOLDEN[case]
    same = [a == b for a, b in zip(golden[:5], pinned)]
    same.append(golden[5] == pytest.approx(final_f, rel=1e-12, abs=0.0))
    changed = [name for name, ok in zip(GOLDEN_FIELDS, same) if not ok]
    old_audit = AUDIT.get(case)
    if (audit is None) != (old_audit is None):
        return changed + ["audit"]
    if audit is not None:
        changed += [name for name, new, old in zip(AUDIT_FIELDS, audit, old_audit)
                    if new != old]
    return changed


def main():
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        datasets = write_datasets(root)
        golden, audit = {}, {}
        for case in CASES:
            out = root / case
            out.mkdir()
            golden[case], audit[case] = case_pins(case, datasets, out)
    print(format_pins("GOLDEN", golden))
    print()
    print(format_pins("AUDIT", {case: pin for case, pin in audit.items() if pin is not None}))
    print()
    for case in CASES:
        changed = changed_fields(case, golden[case], audit[case])
        print("# %s: %s" % (case, ", ".join(changed) or "unchanged"))


if __name__ == "__main__":
    main()
