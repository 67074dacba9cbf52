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
the current tree in this file's format.
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
        "CertifiedAtCurrentPoint", 472, 15732000,
        "b66a841cf6579ddb2a6273b1530aac1b7d00852b1e775c6b3e0206bf4386289a",
        "2aa6025a9a2eb62856f6aa6f6ba21ef49b1ef50f562827c972c481bc8e4bd29a",
        0.12799617610203531,
    ),
    "subh": (
        "CertifiedAtCurrentPoint", 472, 4407000,
        "e6cb21b76529e273735ee0905e3621b061a3c5db056058ddb022aad9ebc87a63",
        "f001f0c5cc389333eb312a9e10aa8f0cb92a603fbf70c15e2b3340dcebcda512",
        0.12799576718562336,
    ),
    "inexact-full-eval": (
        "ContractViolation", 224, 1013214,
        "bacb71984d33969956064c4d80b76b8dd7e9668df081e60e18067128db3e1e47",
        "f481ed04a1edb2d115ae2290844f943d0a349b59036084e11beeebf77caf2f0f",
        0.1313462703047632,
    ),
    "inexact-fixed": (
        "CertifiedAtCurrentPoint", 2362, 5813148,
        "f4da15629abc6903d96b73de3b53951ec7abada07ca37c5ebcfe7c7ed7ed96c5",
        "f6d4f0ea4aa9b49fed1909944bb3ad43bebb59355186f98b517ec87e1d270ef5",
        0.1279962126943314,
    ),
    "inexact-sub-eval": (
        "CertifiedAtCurrentPoint", 2490, 2799498,
        "7a5a3a2fbb8250a34058cbd06e785aa105f80f7cfc86b6f6fb1bc51163f09090",
        "3cec103c1318460cd597beb4d378ab00f0380c13188f0b597f1673be90d75a1a",
        0.12694902912443676,
    ),
    "tanh-subh-block": (
        "FirstOrderAndCertified", 416, 3901440,
        "cf8dbe2f85500cd2b10d0e2481dd76c04caf3d652c6c7cbc989a4e285935f2c2",
        "d02f1006791b52fb9a02c753f6631195b289576dab1c88bb7e342203d21b6c77",
        0.15000955704296065,
    ),
    "tanh-subh-block-nc": (
        "FirstOrderAndCertified", 48, 560040,
        "de5c1a247646a161f527e4a2e911fcdebfd4d09fa253c7302bd86adde02211c4",
        "4b5281a7804e67af16be53e677e329833d735d5b0774fdc08b49adf49446ae3d",
        0.14933480332971924,
    ),
    "saddle-LineSearch-negative-axis": (
        "FirstOrderAndCertified", 3, 37,
        "72aa4fe9f3f5cd65e9d8e35248e9d03d77877f4914b7cfa001a78fef4ce48605",
        "1266a86ad9b0f7ace434904a3fa7cf4551e719da15c4f61667e23a78ebfe0353",
        -0.24999913683030922,
    ),
    "saddle-LineSearch-origin": (
        "CertifiedAtCurrentPoint", 2, 22,
        "422cbc12140a729beadc6aa2b68924256b7d7888e99a6080f64ba812cf90a248",
        "ce3515d12e9d72fce6dd63aef82f2ebc097e1f101430f2ae57ff2b65a340a137",
        -0.25,
    ),
    "saddle-LineSearch-positive-axis": (
        "FirstOrderAndCertified", 3, 65,
        "8df1f117dd6b17363439d987033d9535d5dddc8375cdca44f647c7e0bc2e8957",
        "b10a14462b8c6dd1884e11f491b34280aeae29404160076dc937cabc0cdff27c",
        -0.2499999204019439,
    ),
    "saddle-FixedStep-negative-axis": (
        "FirstOrderAndCertified", 27, 254,
        "e808148e234e597f0b450df3d903e491f522764ad27683e1cdd5a0ac5dd03fb2",
        "b73bde485d5ff5bebf0be2f20b98e680e9c54d85bf893f97ff392c07d5dee8fc",
        -0.24999955744584304,
    ),
    "saddle-FixedStep-origin": (
        "FirstOrderAndCertified", 28, 268,
        "d443a7f556534f83a82142a387749e7a3cf5a9bd8ee03cceb6ac17e57d14a7c7",
        "a0b052b579f78cb4d509605018d7264c6c366d122babe0ec5298ac3ed244ee42",
        -0.24999959721471054,
    ),
    "saddle-FixedStep-positive-axis": (
        "FirstOrderAndCertified", 29, 290,
        "d8695486b18a49db3ae08eb2fc12ae15dca51782764b3258cf1334e1d9384ba0",
        "cf6fc1c06dc6bd71a5bece12c87d482e9b0567c4c9fe227eb738b544a5314fff",
        -0.24999959683683262,
    ),
    "nls-audit-LineSearch-sampled": (
        "MaxIters", 40, 46780,
        "b39c30206e59b737e86d59646f2196988b31ee2c5bdd7ca766341ddfe827120b",
        "e18289e5accecd349859abd0113b547b964586b1c6bbe406f12f48f23858ef2a",
        0.11450239122340579,
    ),
    "nls-audit-LineSearch-exact": (
        "FirstOrderAndCertified", 86, 289800,
        "f7ba6eceb7d52c2f6f0060925185649d660d878d01f21849eb75140118ee4135",
        "bdfbd104e51bdb6defc88a24d9fdb675df19bb21fd1301d175d6ac58db7553a3",
        0.0948241170207906,
    ),
    "nls-audit-FixedStep-exact": (
        "FirstOrderAndCertified", 209, 633000,
        "827892f7d185b6b657464f8efa53a6c49639aa9e6da02f5b1582b93bb3c0242f",
        "bf750f8c58cce86d3aa1ff0afbe957311e275cece797e3eaae4b65f0c70fa45e",
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
    golden, audit = case_pins(case, datasets, tmp_path)
    *pinned, final_f = GOLDEN[case]
    assert golden[:5] == tuple(pinned)
    assert golden[5] == pytest.approx(final_f, rel=1e-12, abs=0.0)
    assert audit == AUDIT.get(case)


def test_printed_pins_match_this_file():
    text = Path(__file__).read_text(encoding="utf-8")
    assert format_pins("GOLDEN", GOLDEN) in text
    assert format_pins("AUDIT", AUDIT) in text


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


if __name__ == "__main__":
    main()
