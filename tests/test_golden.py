"""Golden trajectories: pinned outcomes of whole solver runs.

Each case pins the termination status, the iteration count, the ledger
props, the sha256 of the integer and string columns of the run CSV (step
types, classes, inner iteration counts, cumulative oracle calls) and the
final objective to a relative 1e-12.  Float columns stay out of the digest
so the pins do not depend on the last bit of BLAS reductions, while any
change to the control flow, the random draw order or the oracle-call order
shows up in the integer columns.

The preset cases run ``ntcg solve`` end to end on LIBSVM files written from
``synthetic_nls(3000, 15, seed=1)``; the audit cases call ``run`` directly
and also pin the audit summary.
"""

import csv
import hashlib

import numpy as np
import pytest

from ntcg import (
    FIXED_STEP,
    LINE_SEARCH,
    SamplingPolicy,
    SolverConfig,
    dump_libsvm,
    run,
    synthetic_nls,
    synthetic_saddle,
)
from ntcg.cli import ExperimentSpec, run_experiment
from ntcg.problems import TANH
from ntcg.reporting import write_run_csv
from ntcg.sampling import SUB_BOTH

DIGEST_COLUMNS = (
    "iter", "d_type", "step_class", "ls_trials", "cg_iters", "meo_iters",
    "f_calls", "grad_calls", "hv_calls", "props",
)

# case -> (termination, iterations, props, column digest, final f)
GOLDEN = {
    "full": (
        "CertifiedAtCurrentPoint", 472, 17142000,
        "406394e42e3b6d8e7b461afec7eb5f6471e943263d958f4b259f43356ed83bb5",
        0.12799617610203531,
    ),
    "subh": (
        "CertifiedAtCurrentPoint", 472, 5817000,
        "645eebb7cd0854c6cacc1a0fb19c0f5666e9dd22bf6a0d601bb19d0c69c1d242",
        0.12799576718562336,
    ),
    "inexact-full-eval": (
        "ContractViolation", 224, 1682214,
        "d9b867d68579575a5d456006ae34d28744b8af6049a0653e3eb19d0bdc8097a5",
        0.1313462703047632,
    ),
    "inexact-fixed": (
        "CertifiedAtCurrentPoint", 2362, 5813148,
        "2a71530314e5b522b207a07c046bfadcf83265947cd03d2b94ccf7d0f8ee4b99",
        0.1279962126943314,
    ),
    "inexact-sub-eval": (
        "CertifiedAtCurrentPoint", 2490, 2799498,
        "fe11ba3426593d420430472f3590a96cfee1bf6e35d0075b060da5b52526a74b",
        0.12694902912443676,
    ),
    "tanh-subh-block": (
        "FirstOrderAndCertified", 416, 5143440,
        "ea25373b9243059d08813921746b9a468e717b6e142558c5e52d6ec45a5a3bd7",
        0.15000955704296065,
    ),
    "tanh-subh-block-nc": (
        "FirstOrderAndCertified", 48, 699720,
        "f13bb5cf0989e39bacd7b7091ac48803d8999aa3cc9cc9d8d5082d60761b1441",
        0.14933480332971924,
    ),
    "saddle-LineSearch-negative-axis": (
        "FirstOrderAndCertified", 3, 42,
        "465912fa8660571d3cada380c399e5e9f054a9b9c278fc344da28bbcb352ba1f",
        -0.24999913683030922,
    ),
    "saddle-LineSearch-origin": (
        "CertifiedAtCurrentPoint", 2, 22,
        "d6eaaeef05929850f05ba77a6df1a57a4f756fc13aa466b19ec82ea1924468f0",
        -0.25,
    ),
    "saddle-LineSearch-positive-axis": (
        "FirstOrderAndCertified", 3, 66,
        "3b09f787ac6e6f54f1748e3b3d37d3358e8437f3e38b445183354b4bce5d7a7f",
        -0.2499999204019439,
    ),
    "saddle-FixedStep-negative-axis": (
        "FirstOrderAndCertified", 27, 278,
        "f1201cfb9a4eab3a1110de749bafa535a27d2db374d31a21c6c1cc00f57d3074",
        -0.24999955744584304,
    ),
    "saddle-FixedStep-origin": (
        "FirstOrderAndCertified", 28, 292,
        "127a0d7e06d54ee63775aae770c16e454015c556596abd651a8560537a28140a",
        -0.24999959721471054,
    ),
    "saddle-FixedStep-positive-axis": (
        "FirstOrderAndCertified", 29, 314,
        "8fe7785790df8878cc89a09bfccc1ff8df04dcd9ecfff9c51e88b3e7b20a3c35",
        -0.24999959683683262,
    ),
    "nls-audit-LineSearch-sampled": (
        "MaxIters", 40, 58480,
        "eeb284cf867729ca28141a1841b84ddf31cec5676c0e68c9a50c6090fcd77c7e",
        0.11450239122340579,
    ),
    "nls-audit-LineSearch-exact": (
        "FirstOrderAndCertified", 86, 315000,
        "60a496bf9c871bd2fec44525f3a040547087405104aa29c2a59dec7e82f61d9b",
        0.0948241170207906,
    ),
    "nls-audit-FixedStep-exact": (
        "FirstOrderAndCertified", 209, 633000,
        "678bff1ed8041ea95bb07722641c255477620058b4f848d5f4a0d2aa0526aff5",
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


def column_digest(csv_path):
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    text = "\n".join(",".join(row[c] for c in DIGEST_COLUMNS) for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(report, csv_path):
    return (
        report.termination,
        report.iterations,
        report.ledger["props"],
        column_digest(csv_path),
        report.final_f,
    )


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, link in (("sigmoid", "sigmoid"), ("tanh", TANH)):
        problem = synthetic_nls(3000, 15, link=link, seed=1)
        paths[name] = str(root / (name + ".libsvm"))
        dump_libsvm(paths[name], problem.A, problem.b)
    return paths


def cli_case(datasets, tmp_path, problem, variant, skip_block=True, eps_h=None):
    link = problem.split("-", 1)[1]
    spec = ExperimentSpec(problem=problem, variant=variant, data=datasets[link],
                          out=str(tmp_path), skip_small_step_block=skip_block,
                          eps_h=eps_h)
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
    problem, consts = synthetic_saddle(dim, mu=1.0, gamma=1.0)
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


PRESETS = ("full", "subh", "inexact-full-eval", "inexact-fixed", "inexact-sub-eval")


@pytest.mark.parametrize("variant", PRESETS)
def test_preset_trajectory(datasets, tmp_path, variant):
    report, path = cli_case(datasets, tmp_path, "nls-sigmoid", variant)
    check(variant, report, path)


@pytest.mark.parametrize("eps_h", (None, 5e-3))
def test_tanh_subh_with_small_step_block(datasets, tmp_path, eps_h):
    # The smaller eps_H makes capped CG return curvature directions.
    report, path = cli_case(datasets, tmp_path, "nls-tanh", "subh",
                            skip_block=False, eps_h=eps_h)
    check("tanh-subh-block" + ("" if eps_h is None else "-nc"), report, path)


@pytest.mark.parametrize("variant", (LINE_SEARCH, FIXED_STEP))
@pytest.mark.parametrize("start", sorted(SADDLE_STARTS))
def test_saddle_audit_trajectory(tmp_path, variant, start):
    case = "saddle-%s-%s" % (variant, start)
    report, path = saddle_case(tmp_path, variant, start)
    check(case, report, path)
    assert audit_pin(report) == AUDIT[case]


@pytest.mark.parametrize("variant, sampled", [
    (LINE_SEARCH, True), (LINE_SEARCH, False), (FIXED_STEP, False),
])
def test_nls_audit_trajectory(tmp_path, variant, sampled):
    case = "nls-audit-%s-%s" % (variant, "sampled" if sampled else "exact")
    report, path = nls_audit_case(tmp_path, variant, sampled)
    check(case, report, path)
    assert audit_pin(report) == AUDIT[case]


def audit_pin(report):
    audit = report.audit
    return (
        audit["n_checks"],
        len(audit["violations"]),
        audit.get("iteration_bound"),
        "".join("1" if r["ok"] else "0" for r in audit["condition_results"]),
    )


def check(case, report, path):
    termination, iterations, props, digest, final_f = GOLDEN[case]
    got = fingerprint(report, path)
    assert got[:4] == (termination, iterations, props, digest)
    assert got[4] == pytest.approx(final_f, rel=1e-12, abs=0.0)
