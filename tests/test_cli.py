import dataclasses
import json
import re

import numpy as np
import pytest
from test_bench import PlusStateProblem

from spsakit import cli
from spsakit.bench import EnsembleSpec
from spsakit.cli import PROBLEM_FIELDS, execute, main, parse_config
from spsakit.linalg import blas_threads
from spsakit.optimizers import OptimizerConfig


def run_cli(tmp_path, *flags):
    out = tmp_path / "exp"
    code = main(["--out", str(out), *flags])
    return code, out.with_suffix(".csv"), out.with_suffix(".json")


def read_strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


class TestParseConfig:
    def test_sgqt_defaults(self):
        config = parse_config(["--application", "sgqt"])
        assert config.qubits == 6
        assert config.shots == 2e4
        assert config.iterations == 5000
        assert config.runs == 100

    def test_vqe_defaults(self):
        config = parse_config(["--application", "vqe"])
        assert (config.qubits, config.layers) == (10, 1)
        assert config.shots == 2e4
        assert (config.iterations, config.runs) == (700, 100)
        assert config.periodic is True
        assert (config.j, config.h) == (1.0, 0.3)

    def test_grape_defaults(self):
        config = parse_config(["--application", "grape"])
        assert (config.qubits, config.slices) == (5, 25)
        assert config.shots == 2**13
        assert config.iterations == 1000

    @pytest.mark.parametrize("application", sorted(cli.APPLICATIONS))
    def test_defaults_are_the_library_defaults(self, application):
        # ExperimentConfig restates the defaults of OptimizerConfig and
        # EnsembleSpec; neither side may change them alone
        config = parse_config(["--application", application])
        _, iterations = cli.APPLICATIONS[application]
        assert config.optimizer_config() == OptimizerConfig(max_iterations=iterations)
        spec_defaults = {f.name: f.default for f in dataclasses.fields(EnsembleSpec)}
        assert ((config.calibrate, config.workers, config.seed)
                == tuple(spec_defaults[name] for name in ("calibrate", "workers", "base_seed")))

    def test_scalar_first_order_rejected(self):
        with pytest.raises(ValueError):
            parse_config(["--application", "sgqt", "--scalar", "true"])

    def test_unknown_application_rejected(self):
        with pytest.raises(ValueError):
            parse_config(["--application", "qaoa"])

    def test_periodic_two_qubit_grape_rejected(self):
        with pytest.raises(ValueError):
            parse_config(["--application", "grape", "--qubits", "2",
                          "--periodic", "true"])

    def test_gains_five_tuple_round_trip(self):
        from spsakit.cli import _parse_gains
        from spsakit.estimators import gains_label

        spec = "2.5,0.2,1.0,0.7,0.15"
        gains = _parse_gains(spec)
        assert (gains.a, gains.b, gains.A, gains.s, gains.t) == (2.5, 0.2, 1.0, 0.7, 0.15)
        assert gains_label(gains) == spec
        assert _parse_gains(gains_label(gains)) == gains

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"application": "sgqt", "qubits": 3,
                                        "iterations": 50}))
        config = parse_config(["--config", str(cfg_file), "--iterations", "7"])
        assert config.qubits == 3
        assert config.iterations == 7

    def test_unknown_file_keys_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"application": "sgqt", "qbits": 3}))
        with pytest.raises(ValueError):
            parse_config(["--config", str(cfg_file)])

    @pytest.mark.parametrize("key, text, value", [
        ("periodic", "false", False), ("periodic", "true", True), ("qubits", "3", 3),
        ("shots", "inf", float("inf")), ("epsilon", "0.01", 0.01)])
    def test_file_strings_read_as_flags_read_them(self, tmp_path, key, text, value):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"application": "vqe", "method": "second_order",
                                        key: text}))
        from_file = parse_config(["--config", str(cfg_file)])
        assert getattr(from_file, key) == value
        assert from_file == parse_config(["--application", "vqe", "--method", "second_order",
                                          "--" + key, text])

    def test_file_string_false_builds_an_open_chain(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"application": "grape", "qubits": 4,
                                        "periodic": "false"}))
        problem = parse_config(["--config", str(cfg_file)]).problem()
        assert problem.periodic is False

    def test_file_null_keeps_none(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"application": "sgqt", "epsilon": None,
                                        "workers": None}))
        config = parse_config(["--config", str(cfg_file)])
        assert config.epsilon is None and config.workers is None

    @pytest.mark.parametrize("gains", [[2.5, 0.2, 1, 0.7, 0.15], "2.5,0.2,1,0.7,0.15"])
    def test_file_gains_list_or_string(self, tmp_path, gains):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"application": "sgqt", "gains": gains}))
        assert parse_config(["--config", str(cfg_file)]).gains == "2.5,0.2,1.0,0.7,0.15"

    @pytest.mark.parametrize("gains", [
        [True, 0.1, 0, 0.6, 0.1], ["3", 0.1, 0, 0.6, 0.1], [None, 0.1, 0, 0.6, 0.1],
        [[3], 0.1, 0, 0.6, 0.1], True, 3, {"a": 3}])
    def test_file_gains_that_are_not_numbers_exit_2(self, tmp_path, capsys, gains):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"application": "sgqt", "gains": gains}))
        assert main(["--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("content", ["[]", '["application", "vqe"]', "3"])
    def test_config_file_that_is_no_object_exits_2(self, tmp_path, capsys, content):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(content)
        assert main(["--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("values", [
        {"qubits": 3.5}, {"qubits": True}, {"runs": "many"}, {"runs": None},
        {"scalar": 1}, {"periodic": "maybe"}, {"epsilon": True}, {"method": 2}])
    def test_file_values_of_the_wrong_type_exit_2(self, tmp_path, capsys, values):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"application": "vqe", **values}))
        assert main(["--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_shots_inf(self):
        config = parse_config(["--application", "sgqt", "--shots", "inf"])
        assert type(config.shots) is float and config.shots == float("inf")

    @pytest.mark.parametrize("shots", [9007199254740993, 2**63 - 1])
    def test_integral_shots_come_through_exactly(self, tmp_path, shots):
        # read as an int, not rounded through a float: 2^53 + 1 and MAX_SHOTS
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"application": "sgqt", "shots": shots}))
        for argv in (["--application", "sgqt", "--shots", str(shots)],
                     ["--config", str(cfg_file)]):
            config = parse_config(argv)
            assert type(config.shots) is int and config.shots == shots

    # "inf" is read as a float too (test_shots_inf); VQE rejects it as j
    @pytest.mark.parametrize("text, value", [("1", 1), ("-2", -2), ("1.0", 1.0),
                                             ("2e4", 2e4)])
    def test_float_options_read_integral_literals_as_ints(self, text, value):
        config = parse_config(["--application", "vqe", "--j", text])
        assert type(config.j) is type(value) and config.j == value

    @pytest.mark.parametrize("shots", [2**63, 1e19])
    def test_file_shots_past_the_maximum_exit_2(self, tmp_path, capsys, shots):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"application": "sgqt", "shots": shots}))
        assert main(["--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 2
        assert "at most 2**63 - 1 shots" in capsys.readouterr().err

    @pytest.mark.parametrize("shots", ["0", "2.5", "-inf", "nan", "1e19",
                                       "9223372036854775808", "many"])
    def test_invalid_shots_rejected(self, tmp_path, capsys, shots):
        # "many" is no number, which argparse rejects; the problem rejects the rest
        try:
            code = main(["--application", "sgqt", "--shots", shots, "--runs", "1",
                         "--iterations", "1", "--out", str(tmp_path / "x")])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestExecute:
    def test_csv_row_count_and_header(self, tmp_path):
        code, csv_path, json_path = run_cli(
            tmp_path, "--application", "sgqt", "--qubits", "2", "--runs", "1",
            "--iterations", "3", "--seed", "1")
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "iteration,mean,std,median,q1,q3,obj_evals,fid_evals"
        assert len(lines) == 4

    def test_determinism_bit_identical_csv(self, tmp_path):
        args = ["--application", "sgqt", "--qubits", "2", "--runs", "2",
                "--iterations", "5", "--seed", "3"]
        code1 = main(["--out", str(tmp_path / "a"), *args])
        code2 = main(["--out", str(tmp_path / "b"), *args])
        assert code1 == 0 and code2 == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_eval_columns_first_order(self, tmp_path):
        code, csv_path, _ = run_cli(
            tmp_path, "--application", "sgqt", "--qubits", "2", "--runs", "1",
            "--iterations", "4")
        rows = csv_path.read_text().strip().split("\n")[1:]
        obj_evals = [int(r.split(",")[6]) for r in rows]
        assert obj_evals == [2, 4, 6, 8]

    def test_json_summary_schema(self, tmp_path):
        code, _, json_path = run_cli(
            tmp_path, "--application", "sgqt", "--qubits", "2", "--runs", "2",
            "--iterations", "3", "--method", "second_order", "--postproc", "spall")
        summary = json.loads(json_path.read_text())
        assert summary["schema_version"] == 3
        assert summary["application"] == "sgqt"
        assert summary["excluded_runs"] == 0
        assert summary["row"]["method"] == "2CSPSA"
        assert summary["row"]["postproc"] == "spall"
        assert list(summary["row"].keys()) == ["method", "gains", "postproc",
                                               "resampling", "blocking", "median",
                                               "iqr", "mean", "std"]
        assert summary["config"]["qubits"] == 2

    @pytest.mark.parametrize("flags, workers, calibrated", [
        (("--workers", "2", "--calibrate", "true"), 2, True),
        (("--workers", "1"), 1, False),
    ])
    def test_json_records_the_environment(self, tmp_path, monkeypatch, flags, workers,
                                          calibrated):
        import platform

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        code, _, json_path = run_cli(
            tmp_path, "--application", "sgqt", "--qubits", "2", "--runs", "2",
            "--iterations", "2", *flags)
        assert code == 0
        env = read_strict_json(json_path)["environment"]
        assert env == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "workers": workers,
            "cpus": cli.available_cpus(),
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": None,
            "calibrated": calibrated,
        }
        assert env["cpus"] >= 1
        assert env["blas_threads"] is None or env["blas_threads"] >= 1

    def test_all_diverged_ensemble_writes_strict_json(self, tmp_path):
        # a huge first step drives the controls past the propagator's range
        code, _, json_path = run_cli(
            tmp_path, "--application", "grape", "--qubits", "2", "--slices", "2",
            "--runs", "2", "--iterations", "3", "--gains", "1e30,0.1,0,0.602,0.101")
        assert code == 0
        summary = read_strict_json(json_path)
        assert summary["excluded_runs"] == 2
        for key in ("median", "iqr", "mean", "std"):
            assert summary["row"][key] is None

    @pytest.mark.parametrize("postproc", ["spall", "gidi"])
    @pytest.mark.parametrize("method", ["second_order", "quantum_natural"])
    def test_nan_preconditioner_estimate_writes_strict_json(self, tmp_path, method, postproc):
        # a huge perturbation makes every Hessian or metric estimate NaN
        code, _, json_path = run_cli(
            tmp_path, "--application", "grape", "--qubits", "2", "--slices", "2",
            "--runs", "2", "--iterations", "3", "--method", method, "--postproc", postproc,
            "--gains", "1,1e30,0,0.602,0.101")
        assert code == 0
        assert read_strict_json(json_path)["excluded_runs"] == 2

    def test_csv_floats_round_trip(self, tmp_path):
        code, csv_path, json_path = run_cli(
            tmp_path, "--application", "sgqt", "--qubits", "2", "--runs", "3",
            "--iterations", "5")
        summary = json.loads(json_path.read_text())
        rows = csv_path.read_text().strip().split("\n")[1:]
        last = rows[-1].split(",")
        assert float(last[1]) == summary["row"]["mean"]
        assert float(last[3]) == summary["row"]["median"]

    def test_unwritable_output_path(self, tmp_path):
        # the directory exists, but <out>.csv is a directory: the ensemble
        # runs, then writing its outputs fails
        (tmp_path / "x.csv").mkdir()
        code = main(["--application", "sgqt", "--qubits", "2", "--runs", "1",
                     "--iterations", "2", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_output_in_a_missing_directory_exits_2_before_any_run(self, tmp_path, capsys,
                                                                 monkeypatch):
        def no_run(spec):
            raise AssertionError("run_ensemble called")

        monkeypatch.setattr(cli, "run_ensemble", no_run)
        code = main(["--application", "sgqt", "--qubits", "2", "--runs", "1",
                     "--iterations", "2", "--out", str(tmp_path / "missing" / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.iterdir())

    def test_invalid_flags_exit_code(self):
        assert main(["--application", "sgqt", "--scalar", "true"]) == 2

    def test_quantum_natural_runs_and_counts_fidelity(self, tmp_path):
        code, csv_path, _ = run_cli(
            tmp_path, "--application", "sgqt", "--qubits", "2", "--runs", "1",
            "--iterations", "3", "--method", "quantum_natural")
        rows = csv_path.read_text().strip().split("\n")[1:]
        fid_evals = [int(r.split(",")[7]) for r in rows]
        assert fid_evals == [4, 8, 12]

    def test_blocking_auto_flows_through(self, tmp_path):
        code, csv_path, json_path = run_cli(
            tmp_path, "--application", "sgqt", "--qubits", "2", "--runs", "1",
            "--iterations", "3", "--blocking", "auto")
        assert code == 0
        summary = json.loads(json_path.read_text())
        assert summary["row"]["blocking"] == "auto"
        rows = csv_path.read_text().strip().split("\n")[1:]
        obj_evals = [int(r.split(",")[6]) for r in rows]
        # 25 estimation samples + 1 reference + (2 gradient + 1 candidate) per iter
        assert obj_evals == [29, 32, 35]

    def test_vqe_smoke_with_exact_shots(self, tmp_path):
        code, csv_path, json_path = run_cli(
            tmp_path, "--application", "vqe", "--qubits", "2", "--periodic", "false",
            "--runs", "1", "--iterations", "3", "--shots", "inf")
        assert code == 0
        summary = json.loads(json_path.read_text())
        # two-site Heisenberg singlet is field-insensitive: E0 = -3 exactly
        assert summary["exact_minimum"] == pytest.approx(-3.0, abs=1e-10)
        assert summary["config"]["shots"] == "inf"


class TestApplicationTable:
    @pytest.mark.parametrize("option, flags", [
        ("layers", ("--application", "sgqt", "--layers", "7")),
        ("slices", ("--application", "sgqt", "--slices", "3")),
        ("entangler", ("--application", "sgqt", "--entangler", "bogus")),
        ("j", ("--application", "grape", "--j", "2")),
        ("j", ("--application", "vqe", "--qubits", "3", "--j", "1" + "0" * 400)),
        ("j", ("--application", "vqe", "--qubits", "3", "--j", "inf")),
        ("h", ("--application", "vqe", "--qubits", "3", "--h", "nan")),
        ("periodic", ("--application", "vqe", "--qubits", "2")),
        ("qubits", ("--application", "vqe", "--qubits", "13")),
        ("qubits", ("--application", "grape", "--qubits", "13")),
        ("entangler", ("--application", "vqe", "--entangler", "bogus")),
        ("entangler", ("--application", "vqe", "--qubits", "3", "--layers", "0",
                       "--entangler", "bogus")),
        ("layers", ("--application", "vqe", "--layers", "-1")),
        ("slices", ("--application", "grape", "--slices", "0")),
        ("periodic", ("--application", "grape", "--qubits", "2", "--periodic", "true")),
        ("qubits", ("--application", "sgqt", "--qubits", "0")),
        ("workers", ("--application", "sgqt", "--workers", "0")),
        ("workers", ("--application", "sgqt", "--workers", "-3")),
        ("runs", ("--application", "sgqt", "--runs", "0")),
        ("seed", ("--application", "sgqt", "--seed", "-1")),
        ("blocking", ("--application", "sgqt", "--blocking", "nan")),
        ("gains", ("--application", "sgqt", "--gains", "nan,0.1,0,0.6,0.1")),
        ("gains", ("--application", "sgqt", "--gains", "1,0.1,0,inf,0.1")),
        ("epsilon", ("--application", "sgqt", "--method", "second_order", "--epsilon", "nan")),
        ("epsilon", ("--application", "sgqt", "--method", "second_order", "--epsilon", "inf")),
        ("qubits", ("--application", "sgqt", "--qubits", "3.5")),
        ("scalar", ("--application", "sgqt", "--scalar", "maybe")),
        ("calibrate", ("--application", "sgqt", "--method", "second_order",
                       "--calibrate", "true")),
        ("calibrate", ("--application", "sgqt", "--method", "quantum_natural",
                       "--calibrate", "true")),
        # gain calibration whose probe gradients overflow
        ("calibrate", ("--application", "grape", "--qubits", "2", "--slices", "3",
                       "--calibrate", "true", "--gains", "1,1e10,0,0.602,0.101",
                       "--runs", "2")),
        # each of these used to fail after the runs had started, or to run
        ("qubits", ("--application", "sgqt", "--qubits", "64")),
        ("j", ("--application", "vqe", "--j", "1e308")),
        ("shots", ("--application", "vqe", "--qubits", "3", "--shots", "1e400")),
        ("shots", ("--application", "vqe", "--qubits", "3", "--shots", "Infinity")),
        ("layers", ("--application", "vqe", "--qubits", "3", "--layers", "9223372036854775807")),
        ("resampling", ("--application", "vqe", "--qubits", "3",
                        "--resampling", "9223372036854775807")),
        ("runs", ("--application", "sgqt", "--runs", "9223372036854775808")),
        # each of these used to print an error that named no option
        ("gains", ("--application", "sgqt", "--gains", "bogus")),
        ("gains", ("--application", "sgqt", "--gains", "x,y,z,w,v")),
        ("blocking", ("--application", "sgqt", "--blocking", "abc")),
        ("blocking", ("--application", "sgqt", "--blocking", "")),
        ("config", ("--config", "{configs}/missing.json")),
        ("config", ("--config", "{configs}/not.json")),
    ])
    def test_invalid_flags_exit_2_with_error(self, tmp_path, tmp_path_factory, capsys, option,
                                             flags):
        configs = tmp_path_factory.mktemp("configs")
        (configs / "not.json").write_text("not json")
        flags = [flag.format(configs=configs) for flag in flags]
        assert main([*flags, "--iterations", "1", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        # the option as the command line and a config file name it, and no
        # library field such as n_runs, base_seed or n_qubits
        assert re.search(rf"\b{option}\b", err), err
        assert not re.search(r"\b(n_runs|base_seed|max_iterations|n_qubits)\b", err), err
        assert not list(tmp_path.iterdir())

    def test_iteration_count_error_names_the_option(self, tmp_path, capsys):
        assert main(["--application", "sgqt", "--iterations", "0",
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: iterations must be an integer")

    @pytest.mark.parametrize("text", ["1e400", "Infinity", "-inf", "nan", '"1e400"', '"nan"'])
    def test_config_file_non_finite_numbers_rejected(self, tmp_path, capsys, text):
        # JSON reads 1e400 and Infinity as a float inf: only the string
        # "inf" asks for exact evaluation
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(f'{{"application": "sgqt", "qubits": 2, "shots": {text}}}')
        assert main(["--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("option", ["j", "h", "shots"])
    def test_config_file_integer_past_the_float_range_names_its_option(self, tmp_path,
                                                                       capsys, option):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"application": "vqe", "qubits": 3, option: 10**400}))
        assert main(["--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {option}: int too large to convert to float\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_config_file_largest_shot_budget_is_exact(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"application": "sgqt", "shots": 2**63 - 1}))
        shots = parse_config(["--config", str(cfg_file)]).shots
        assert type(shots) is int and shots == 2**63 - 1

    @pytest.mark.parametrize("error", [RuntimeError("an estimator broke its evaluation "
                                                    "contract"),
                                       ValueError("a run's error")])
    def test_errors_inside_runs_surface(self, tmp_path, monkeypatch, error):
        # only calibration's errors are reported as an option's
        def fail(spec):
            raise error

        monkeypatch.setattr(cli, "run_ensemble", fail)
        with pytest.raises(type(error), match=str(error)):
            main(["--application", "sgqt", "--qubits", "2", "--out", str(tmp_path / "x")])
        assert not list(tmp_path.iterdir())

    def test_config_file_inf_string_is_exact(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text('{"application": "sgqt", "shots": "inf"}')
        assert parse_config(["--config", str(cfg_file)]).shots == float("inf")

    def test_out_with_a_null_byte_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text('{"application": "sgqt", "qubits": 2, "out": "x\\u0000y"}')
        assert main(["--config", str(cfg_file), "--runs", "1", "--iterations", "1"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("out", ["", "d/", ".", "d/.."])
    def test_out_naming_no_file_exits_2(self, tmp_path, monkeypatch, capsys, out):
        # "" and "d/" used to write the hidden files .csv and .json
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        assert main(["--application", "sgqt", "--qubits", "2", "--runs", "1",
                     "--iterations", "1", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: out: ")
        assert [p.name for p in tmp_path.rglob("*")] == ["d"]

    def test_unused_problem_key_in_config_file_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"application": "sgqt", "layers": 1}))
        with pytest.raises(ValueError, match="--layers"):
            parse_config(["--config", str(cfg_file)])

    @pytest.mark.parametrize("flags, problem_flags", [
        (("--application", "vqe", "--qubits", "3", "--layers", "2", "--shots", "inf",
          "--entangler", "cz_ring", "--method", "quantum_natural"),
         {"qubits", "shots", "layers", "j", "h", "periodic", "entangler"}),
        (("--application", "grape", "--qubits", "2", "--slices", "2",
          "--gains", "0.5,0.1,1,0.7,0.15", "--blocking", "auto", "--calibrate", "true"),
         {"qubits", "shots", "slices", "periodic"}),
        (("--application", "sgqt", "--qubits", "2", "--method", "second_order",
          "--scalar", "true", "--workers", "1"),
         {"qubits", "shots"}),
    ])
    def test_config_echo_round_trips(self, tmp_path, flags, problem_flags):
        config = parse_config([*flags, "--runs", "2", "--iterations", "2",
                               "--out", str(tmp_path / "exp")])
        assert execute(config) == 0
        echo = read_strict_json(tmp_path / "exp.json")["config"]
        assert set(echo) & set(PROBLEM_FIELDS) == problem_flags
        cfg_file = tmp_path / "echo.json"
        cfg_file.write_text(json.dumps(echo))
        assert parse_config(["--config", str(cfg_file)]) == config

    @pytest.mark.parametrize("text, echoed", [
        ("2e4", 20000.0), ("inf", "inf"), ("20000", 20000),
        ("9223372036854775807", 9223372036854775807)])
    def test_shots_echo_round_trips(self, tmp_path, text, echoed):
        config = parse_config(["--application", "sgqt", "--qubits", "2", "--shots", text,
                               "--runs", "1", "--iterations", "1",
                               "--out", str(tmp_path / "exp")])
        assert execute(config) == 0
        echo = read_strict_json(tmp_path / "exp.json")["config"]
        assert type(echo["shots"]) is type(echoed) and echo["shots"] == echoed
        cfg_file = tmp_path / "echo.json"
        cfg_file.write_text(json.dumps(echo))
        assert parse_config(["--config", str(cfg_file)]) == config

    def test_custom_gains_label(self, tmp_path):
        code, _, json_path = run_cli(
            tmp_path, "--application", "sgqt", "--qubits", "2", "--runs", "1",
            "--iterations", "2", "--gains", "2.5,0.2,1,0.7,0.15")
        summary = read_strict_json(json_path)
        assert summary["config"]["gains"] == "2.5,0.2,1.0,0.7,0.15"
        assert summary["row"]["gains"] == "2.5,0.2,1.0,0.7,0.15"

    def test_new_problem_class_runs_through_main(self, tmp_path, monkeypatch):
        # a Problem dataclass reaches the command line through one table row
        monkeypatch.setitem(cli.APPLICATIONS, "plus", (PlusStateProblem, 40))
        code, csv_path, json_path = run_cli(
            tmp_path, "--application", "plus", "--runs", "4", "--shots", "inf",
            "--gains", "0.3,0.1,0,0.602,0.101")
        assert code == 0
        summary = read_strict_json(json_path)
        assert summary["excluded_runs"] == 0
        assert summary["exact_minimum"] == 0.0
        assert summary["config"]["iterations"] == 40
        assert set(summary["config"]) & set(PROBLEM_FIELDS) == {"shots"}
        rows = [r.split(",") for r in csv_path.read_text().strip().split("\n")[1:]]
        assert len(rows) == 40
        assert float(rows[-1][3]) < 0.1 * float(rows[0][3])
        assert main(["--application", "plus", "--qubits", "2", "--out", str(tmp_path / "y")]) == 2

    def test_help_lists_the_table(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.APPLICATIONS, "plus", (PlusStateProblem, 40))
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for name, (cls, iterations) in cli.APPLICATIONS.items():
            assert f"{name} ({cls.__name__}, {iterations} iterations)" in text
        assert "sgqt (SgqtProblem, 5000 iterations): --qubits --shots;" in text
