import dataclasses
import json

import numpy as np
import pytest

from ntcg import SolverConfig, dump_libsvm, synthetic_nls
from ntcg.cli import (
    _CONFIG_TYPES,
    EXIT_OK,
    ExperimentSpec,
    load_config_file,
    main,
    make_parser,
    run_experiment,
    spec_fields_from_config,
)
from ntcg.problems import TANH
from ntcg.reporting import CSV_COLUMNS, aggregate_runs, read_run_csv, trajectory


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    problem = synthetic_nls(120, 6, seed=42)
    path = tmp_path_factory.mktemp("data") / "small.libsvm"
    dump_libsvm(path, problem.A, problem.b)
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSolveCommand:
    def test_full_variant_on_quadratic_monotone_csv(self, tmp_path):
        code = main([
            "solve", "--problem", "quadratic", "--variant", "full",
            "--eps", "1e-3", "--dim", "4", "--out", str(tmp_path), "--seed", "7",
        ])
        assert code == EXIT_OK
        rows = read_run_csv(tmp_path / "run_seed7.csv")
        fs = [r["f"] for r in rows]
        assert all(a > b for a, b in zip(fs, fs[1:]))

    def test_csv_schema_is_versioned_and_fixed(self, tmp_path):
        main([
            "solve", "--problem", "saddle", "--variant", "full",
            "--eps", "1e-2", "--dim", "3", "--out", str(tmp_path),
        ])
        header = read(tmp_path / "run_seed0.csv").split(b"\n", 1)[0].decode()
        assert header == ",".join(CSV_COLUMNS)

    def test_repeats_write_expected_files(self, small_dataset, tmp_path):
        code = main([
            "solve", "--problem", "nls-sigmoid", "--data", small_dataset,
            "--variant", "inexact-sub-eval", "--eps", "1e-2", "--seed", "3",
            "--repeats", "3", "--out", str(tmp_path), "--max-iters", "60",
        ])
        assert code == EXIT_OK
        for seed in (3, 4, 5):
            assert (tmp_path / ("run_seed%d.csv" % seed)).exists()
        agg = json.loads(read(tmp_path / "aggregate.json"))
        assert agg["repeats"] == 3
        assert agg["seeds"] == [3, 4, 5]

    def test_determinism_byte_identical(self, small_dataset, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = [
            "solve", "--problem", "nls-sigmoid", "--data", small_dataset,
            "--variant", "inexact-full-eval", "--eps", "1e-2", "--seed", "12",
            "--repeats", "2", "--max-iters", "50",
        ]
        main(argv + ["--out", str(out1)])
        main(argv + ["--out", str(out2)])
        for name in ("run_seed12.csv", "run_seed13.csv", "aggregate.json"):
            assert read(out1 / name) == read(out2 / name)

    def test_audit_flag_fills_true_gradient_column(self, small_dataset, tmp_path):
        main([
            "solve", "--problem", "nls-sigmoid", "--data", small_dataset,
            "--variant", "full", "--eps", "1e-2", "--out", str(tmp_path),
            "--audit", "--max-iters", "80",
        ])
        rows = read_run_csv(tmp_path / "run_seed0.csv")
        assert all(r["grad_true_norm"] is not None for r in rows)

    def test_no_audit_leaves_column_empty(self, small_dataset, tmp_path):
        main([
            "solve", "--problem", "nls-sigmoid", "--data", small_dataset,
            "--variant", "full", "--eps", "1e-2", "--out", str(tmp_path),
            "--max-iters", "80",
        ])
        rows = read_run_csv(tmp_path / "run_seed0.csv")
        assert all(r["grad_true_norm"] is None for r in rows)

    def test_fixed_variant_uses_preset_steps(self, small_dataset, tmp_path):
        main([
            "solve", "--problem", "nls-sigmoid", "--data", small_dataset,
            "--variant", "inexact-fixed", "--eps", "1e-2", "--out",
            str(tmp_path), "--max-iters", "40",
        ])
        rows = read_run_csv(tmp_path / "run_seed0.csv")
        alphas = {r["alpha"] for r in rows if r["alpha"] is not None}
        assert alphas <= {0.2, 0.04}

    def test_welsch_variant_runs(self, tmp_path):
        problem = synthetic_nls(80, 4, seed=5, link="welsch")
        data = tmp_path / "w.libsvm"
        dump_libsvm(data, problem.A, problem.b)
        code = main([
            "solve", "--problem", "nls-welsch", "--data", str(data),
            "--variant", "subh", "--eps", "1e-2", "--out", str(tmp_path / "o"),
            "--max-iters", "60",
        ])
        assert code == EXIT_OK

    def test_missing_data_for_nls_fails(self, tmp_path):
        code = main([
            "solve", "--problem", "nls-sigmoid", "--variant", "full",
            "--out", str(tmp_path),
        ])
        assert code == 1

    def test_nonexistent_data_file_is_clean_error(self, tmp_path, capsys):
        code = main([
            "solve", "--problem", "nls-sigmoid", "--data",
            str(tmp_path / "nope.libsvm"), "--variant", "full",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_data_file_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.libsvm"
        bad.write_text("1 xyz\n")
        code = main([
            "solve", "--problem", "nls-sigmoid", "--data", str(bad),
            "--variant", "full", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_config_file_overrides(self, small_dataset, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("theta = 0.7  # wider backtracking\nmax_ls_trials = 40\n")
        overrides = load_config_file(cfgfile)
        assert overrides == {"theta": "0.7", "max_ls_trials": "40"}
        code = main([
            "solve", "--problem", "nls-sigmoid", "--data", small_dataset,
            "--variant", "full", "--eps", "1e-2", "--out", str(tmp_path / "o"),
            "--config", str(cfgfile), "--max-iters", "40",
        ])
        assert code == EXIT_OK

    def test_command_line_flags_win_over_config(self, small_dataset, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("eps_g = 1e-6\nmax_outer_iters = 3\n")
        argv = ["solve", "--problem", "nls-sigmoid", "--data", small_dataset,
                "--variant", "full", "--config", str(cfgfile)]
        main(argv + ["--out", str(tmp_path / "cfg")])
        assert len(read_run_csv(tmp_path / "cfg" / "run_seed0.csv")) == 3
        assert json.loads(read(tmp_path / "cfg" / "aggregate.json"))["eps"] == 1e-6
        main(argv + ["--out", str(tmp_path / "flags"), "--max-iters", "50",
                     "--eps", "1e-5"])
        assert len(read_run_csv(tmp_path / "flags" / "run_seed0.csv")) == 50
        assert json.loads(read(tmp_path / "flags" / "aggregate.json"))["eps"] == 1e-5

    @pytest.mark.parametrize("text, value", [
        ("true", True), ("FALSE", False), ("Yes", True), ("no", False),
        ("1", True), ("0", False), ("ture", None), ("", None),
    ])
    def test_config_booleans(self, text, value):
        key = "skip_small_step_block"
        if value is None:
            with pytest.raises(ValueError, match=key):
                spec_fields_from_config({key: text})
        else:
            assert spec_fields_from_config({key: text})[key] is value

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.txt"
        for key, value in (("not_a_key", "1"), ("retry_condition_failure", "true")):
            cfgfile.write_text("%s = %s\n" % (key, value))
            code = main([
                "solve", "--problem", "quadratic", "--variant", "full",
                "--out", str(tmp_path), "--config", str(cfgfile),
            ])
            assert code == 1
            assert capsys.readouterr().err == "error: unknown config key %r\n" % key

    def test_config_keys_match_solver_config_fields(self):
        # A config file can set every SolverConfig field but the seed, which
        # --seed sets, and nothing else.
        fields = {f.name for f in dataclasses.fields(SolverConfig)}
        assert set(_CONFIG_TYPES) <= fields
        assert fields - set(_CONFIG_TYPES) == {"seed"}
        # Every solve flag that does not fill an ExperimentSpec field writes
        # a SolverConfig field under that field's own name.
        solve = make_parser()._subparsers._group_actions[0].choices["solve"]
        spec_fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
        solver_flags = {action.option_strings[0]: action.dest
                        for action in solve._actions
                        if action.dest not in spec_fields | {"help"}}
        assert set(solver_flags.values()) <= fields
        assert solver_flags == {
            "--eps": "eps_g", "--eps-h": "eps_H", "--max-iters": "max_outer_iters",
            "--no-skip-small-step-block": "skip_small_step_block",
            "--alpha-sol": "alpha_sol_fixed", "--alpha-nc": "alpha_nc_fixed",
        }

    @pytest.mark.parametrize("flag_argv, text", [
        (["--eps", "0.1"], "eps_g = 0.1"),
        (["--eps-h", "0.02"], "eps_H = 0.02"),
        (["--max-iters", "7"], "max_outer_iters = 7"),
        (["--no-skip-small-step-block"], "skip_small_step_block = false"),
        (["--alpha-sol", "0.3"], "alpha_sol_fixed = 0.3"),
        (["--alpha-nc", "0.01"], "alpha_nc_fixed = 0.01"),
    ], ids=["eps", "eps-h", "max-iters", "no-skip-small-step-block", "alpha-sol",
            "alpha-nc"])
    def test_flag_and_config_key_are_one_setting(self, small_dataset, tmp_path,
                                                 flag_argv, text):
        # A base run with curvature steps, whose own value of the flag's
        # setting, if any, gives way to the flag.
        base = {"--eps": "0.05", "--eps-h": "0.01", "--max-iters": "30"}
        base.pop(flag_argv[0], None)
        argv = ["solve", "--problem", "nls-tanh", "--data", small_dataset,
                "--variant", "inexact-fixed", "--seed", "2"]
        argv += [word for item in base.items() for word in item]
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(text + "\n")
        codes = [main(argv + extra + ["--out", str(tmp_path / name)]) for name, extra in (
            ("base", []), ("flag", flag_argv), ("config", ["--config", str(cfgfile)]))]
        assert codes[1] == codes[2]
        csv, agg = ({name: read(tmp_path / name / file)
                     for name in ("base", "flag", "config")}
                    for file in ("run_seed2.csv", "aggregate.json"))
        assert csv["flag"] == csv["config"] != csv["base"]
        assert agg["flag"] == agg["config"]

    @pytest.mark.parametrize("flag, key", [("--alpha-sol", "alpha_sol_fixed"),
                                           ("--alpha-nc", "alpha_nc_fixed")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_step_size_override_needs_fixed_step_preset(self, tmp_path, capsys,
                                                         flag, key, source):
        argv = ["solve", "--problem", "quadratic", "--dim", "4", "--variant", "full",
                "--out", str(tmp_path / "out")]
        if source == "flag":
            argv += [flag, "0.3"]
        else:
            cfgfile = tmp_path / "cfg.txt"
            cfgfile.write_text("%s = 0.3\n" % key)
            argv += ["--config", str(cfgfile)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: step-size overrides") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("variant", ["full", "subh", "inexact-full-eval",
                                         "inexact-sub-eval"])
    @pytest.mark.parametrize("flag, key", [("--alpha-sol", "alpha_sol_fixed"),
                                           ("--alpha-nc", "alpha_nc_fixed")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_step_size_override_is_rejected_before_the_data_is_read(
            self, tmp_path, capsys, variant, flag, key, source):
        # The missing data file used to be reported instead.
        argv = ["solve", "--problem", "nls-sigmoid", "--data",
                str(tmp_path / "nonexistent"), "--variant", variant,
                "--out", str(tmp_path / "out")]
        if source == "flag":
            argv += [flag, "0.3"]
        else:
            cfgfile = tmp_path / "cfg.txt"
            cfgfile.write_text("%s = 0.3\n" % key)
            argv += ["--config", str(cfgfile)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: step-size overrides apply to variant 'inexact-fixed' only; "
            "%r would ignore %s\n" % (variant, flag))
        assert not (tmp_path / "out").exists()

    def test_derived_eps_h_outside_its_range_names_its_inputs(self, tmp_path, capsys):
        # This used to print "eps_H must lie in (0, 1), got 1.40688", naming
        # neither --eps nor L_H.
        problem = synthetic_nls(120, 6, link=TANH, seed=42)
        path = tmp_path / "tanh.libsvm"
        dump_libsvm(path, problem.A, problem.b)
        argv = ["solve", "--problem", "nls-tanh", "--data", str(path),
                "--variant", "full", "--eps", "0.2", "--max-iters", "2"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: eps_H = sqrt(L_H * eps_g) = 1.40688, derived from "
            "L_H = 9.89663 and eps_g = 0.2, must lie in (0, 1); give eps_H "
            "(--eps-h) or a smaller eps_g (--eps)\n")
        assert not (tmp_path / "out").exists()
        # Either remedy it names runs.
        assert main(argv + ["--eps-h", "0.5", "--out", str(tmp_path / "eps-h")]) == EXIT_OK
        argv[argv.index("0.2")] = "0.05"
        assert main(argv + ["--out", str(tmp_path / "eps")]) == EXIT_OK

    @pytest.mark.parametrize("problem, argv, flag", [
        ("quadratic", ["--dim", "4", "--welsch-alpha", "3"], "--welsch-alpha"),
        ("nls-sigmoid", ["--data", "F", "--welsch-alpha", "-5"], "--welsch-alpha"),
        ("nls-sigmoid", ["--data", "F", "--dim", "7"], "--dim"),
        ("nls-welsch", ["--data", "F", "--dim", "7"], "--dim"),
        ("quadratic", ["--dim", "4", "--data", "/nonexistent"], "--data"),
        ("saddle", ["--dim", "3", "--sparse"], "--sparse"),
        ("quadratic", ["--dim", "4", "--welsch-alpha", "3", "--sparse", "--data",
                       "/nonexistent"], "--data"),
    ], ids=["welsch-alpha-on-quadratic", "welsch-alpha-on-sigmoid", "dim-on-sigmoid",
            "dim-on-welsch", "data-on-quadratic", "sparse-on-saddle", "several"])
    def test_flag_the_problem_ignores_is_rejected(self, tmp_path, capsys, problem,
                                                  argv, flag):
        # These used to run, with the flag silently dropped.
        code = main(["solve", "--problem", problem, "--variant", "full",
                     "--out", str(tmp_path / "out")] + argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: %s applies only to problems " % flag)
        assert err.endswith(", not %r\n" % problem) and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_negative_seed_is_rejected(self, tmp_path, capsys):
        # numpy's "expected non-negative integer" used to name no flag.
        code = main(["solve", "--problem", "saddle", "--dim", "3", "--variant", "full",
                     "--seed", "-3", "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be a non-negative integer")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, text, message", [
        (["--alpha-sol", "0"], None, "alpha_sol_fixed must lie in (0, inf)"),
        (["--alpha-sol", "-0.2"], None, "alpha_sol_fixed must lie in (0, inf)"),
        (["--alpha-nc", "nan"], None, "alpha_nc_fixed must be a finite"),
        (["--alpha-nc", "inf"], None, "alpha_nc_fixed must be a finite"),
        ([], "L_H = -1\n", "L_H must be finite and >= 0"),
    ], ids=["zero-step", "negative-step", "nan-step", "inf-step", "negative-l-h"])
    def test_invalid_solver_settings_exit_cleanly(self, tmp_path, capsys, argv,
                                                  text, message):
        # These used to run: a zero step stalled, a negative one climbed, a
        # non-finite one failed on the first iterate.
        if text is not None:
            cfgfile = tmp_path / "cfg.txt"
            cfgfile.write_text(text)
            argv = argv + ["--config", str(cfgfile)]
        code = main(["solve", "--problem", "saddle", "--dim", "3",
                     "--variant", "inexact-fixed", "--out", str(tmp_path / "out")]
                    + argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, text, message", [
        (["--max-iters", "0"], None,
         "--max-iters: max_outer_iters must be a positive integer, got 0"),
        ([], "max_outer_iters = 0\n",
         "--max-iters: max_outer_iters must be a positive integer, got 0"),
        (["--eps", "0"], None, "--eps: eps_g must lie in (0, 1), got 0"),
        (["--eps-h", "2"], None, "--eps-h: eps_H must lie in (0, 1), got 2"),
        (["--alpha-sol", "-1"], None,
         "--alpha-sol: alpha_sol_fixed must lie in (0, inf), got -1"),
        (["--alpha-nc", "nan"], None,
         "--alpha-nc: alpha_nc_fixed must be a finite real number, got nan"),
        ([], "theta = 2\n", "config key 'theta': theta must lie in (0, 1), got 2"),
        (["--repeats", "0"], None, "--repeats must be >= 1, got 0"),
        (["--seed", "-3"], None,
         "seed must be a non-negative integer or a numpy Generator, got -3"),
        (["--welsch-alpha", "nan"], None,
         "--welsch-alpha must be a finite real number, got nan"),
        (["--welsch-alpha", "inf"], None,
         "--welsch-alpha must be a finite real number, got inf"),
        (["--welsch-alpha", "0"], None, "--welsch-alpha must lie in (0, inf), got 0"),
        (["--welsch-alpha", "-1"], None, "--welsch-alpha must lie in (0, inf), got -1"),
    ], ids=["max-iters", "max-outer-iters-key", "eps", "eps-h", "alpha-sol",
            "alpha-nc", "theta-key", "repeats", "seed", "welsch-alpha-nan",
            "welsch-alpha-inf", "welsch-alpha-zero", "welsch-alpha-negative"])
    @pytest.mark.parametrize("data", ["present", "missing"])
    def test_settings_errors_come_before_the_data_is_read(
            self, small_dataset, tmp_path, capsys, argv, text, message, data):
        # Out-of-range settings used to surface only after the data loaded,
        # under the SolverConfig field name (a NaN Welsch alpha as "L_H must
        # be finite"); a missing data file was reported instead.
        if text is not None:
            cfgfile = tmp_path / "cfg.txt"
            cfgfile.write_text(text)
            argv = argv + ["--config", str(cfgfile)]
        path = small_dataset if data == "present" else str(tmp_path / "nonexistent")
        code = main(["solve", "--problem", "nls-welsch", "--data", path,
                     "--variant", "inexact-fixed", "--out", str(tmp_path / "out")]
                    + argv)
        assert code == 1
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        (None, "No such file"),
        ("theta = abc\n", "config key 'theta': could not convert"),
    ], ids=["missing-file", "bad-value"])
    def test_config_file_errors_exit_cleanly(self, tmp_path, capsys, text, message):
        cfgfile = tmp_path / "cfg.txt"
        if text is not None:
            cfgfile.write_text(text)
        code = main([
            "solve", "--problem", "quadratic", "--variant", "full",
            "--out", str(tmp_path / "out"), "--config", str(cfgfile),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestAggregation:
    def test_aggregate_matches_recomputation_from_csvs(self, small_dataset, tmp_path):
        main([
            "solve", "--problem", "nls-sigmoid", "--data", small_dataset,
            "--variant", "inexact-full-eval", "--eps", "1e-2", "--seed", "1",
            "--repeats", "3", "--out", str(tmp_path), "--max-iters", "50",
        ])
        agg = json.loads(read(tmp_path / "aggregate.json"))
        runs = [read_run_csv(tmp_path / ("run_seed%d.csv" % s)) for s in (1, 2, 3)]
        recomputed = aggregate_runs(runs, n_bins=len(agg["bins"]))
        np.testing.assert_allclose(agg["bins"], recomputed["bins"])
        np.testing.assert_allclose(agg["mean"], recomputed["mean"])
        np.testing.assert_allclose(agg["std"], recomputed["std"])

    def test_trajectory_extraction(self):
        records = [
            {"props": 10, "f": 5.0},
            {"props": 30, "f": 3.0},
            {"props": 60, "f": 2.0},
        ]
        props, f = trajectory(records)
        np.testing.assert_allclose(props, [10, 30, 60])
        np.testing.assert_allclose(f, [5.0, 3.0, 2.0])

    def test_std_band_zero_for_identical_runs(self):
        records = [{"props": 10 * (i + 1), "f": 5.0 - i} for i in range(4)]
        agg = aggregate_runs([records, records], n_bins=16)
        assert max(agg["std"]) == 0.0


class TestSpecValidation:
    @pytest.mark.parametrize("key", ["tolerance", "seed"])
    def test_overrides_reject_unknown_keys(self, key):
        # Each repeat's own seed would replace a config seed.
        with pytest.raises(ValueError, match="unknown config key %r" % key):
            ExperimentSpec(problem="saddle", variant="full", dim=3,
                           config={key: 1})

    def test_fields_the_problem_ignores_are_rejected(self, tmp_path):
        # The library path used to run this spec, dropping every such field.
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="--data applies only to problems"):
            run_experiment(ExperimentSpec(
                problem="quadratic", variant="full", data="/nonexistent", sparse=True,
                welsch_alpha=-5, dim=4, out=str(out)))
        assert not out.exists()

    @pytest.mark.parametrize("problem, dim, least", [
        ("quadratic", "-1", 1), ("quadratic", "0", 1), ("saddle", "1", 2),
    ])
    def test_dim_below_the_problem_minimum_names_the_flag(self, tmp_path, capsys,
                                                          problem, dim, least):
        # numpy's "negative dimensions are not allowed" and the problems'
        # own "need dim >= ..." used to name no flag.
        code = main(["solve", "--problem", problem, "--variant", "full", "--dim", dim,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --dim must be >= %d" % least)
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_derived_fixed_step_without_the_block_is_rejected_before_the_data_is_read(
            self, tmp_path):
        # This spec used to pass; the run then read the data file before
        # run() refused it, naming SolverConfig fields.  The file is missing,
        # so a read would raise FileNotFoundError instead.
        data, out = str(tmp_path / "nonexistent"), tmp_path / "out"
        with pytest.raises(ValueError, match="derives its Newton step only with the "
                           "small-step block; give --alpha-sol or "
                           "--no-skip-small-step-block"):
            run_experiment(ExperimentSpec(
                problem="nls-sigmoid", variant="inexact-fixed", data=data,
                out=str(out), config={"alpha_sol_fixed": None}))
        assert not out.exists()
        # With the block on, the derived step is allowed.
        ExperimentSpec(problem="nls-sigmoid", variant="inexact-fixed", data=data,
                       config={"alpha_sol_fixed": None, "skip_small_step_block": False})

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="quadratic", variant="warp")

    def test_zero_repeats(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="quadratic", variant="full", repeats=0)
