import json

import numpy as np
import pytest

from spsakit.cli import ExperimentConfig, execute, main, parse_config


def run_cli(tmp_path, *flags):
    out = tmp_path / "exp"
    code = main(["--out", str(out), *flags])
    return code, out.with_suffix(".csv"), out.with_suffix(".json")


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
        from spsakit.cli import _gains_spec_string, _parse_gains

        spec = "2.5,0.2,1.0,0.7,0.15"
        gains = _parse_gains(spec)
        assert (gains.a, gains.b, gains.A, gains.s, gains.t) == (2.5, 0.2, 1.0, 0.7, 0.15)
        assert _parse_gains(_gains_spec_string(spec)) == gains

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

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPSAKIT_SEED", "123")
        config = parse_config(["--application", "sgqt"])
        assert config.seed == 123
        config = parse_config(["--application", "sgqt", "--seed", "9"])
        assert config.seed == 9

    def test_shots_inf(self):
        config = parse_config(["--application", "sgqt", "--shots", "inf"])
        assert config.shots == float("inf")


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
        assert summary["schema_version"] == 1
        assert summary["application"] == "sgqt"
        assert summary["excluded_runs"] == 0
        assert summary["row"]["method"] == "2CSPSA"
        assert summary["row"]["postproc"] == "spall"
        assert list(summary["row"].keys()) == ["method", "gains", "postproc",
                                               "resampling", "blocking", "median",
                                               "iqr", "mean", "std"]
        assert summary["config"]["qubits"] == 2

    def test_all_diverged_ensemble_writes_strict_json(self, tmp_path):
        # a huge first step drives the controls past the propagator's range
        code, _, json_path = run_cli(
            tmp_path, "--application", "grape", "--qubits", "2", "--slices", "2",
            "--runs", "2", "--iterations", "3", "--gains", "1e30,0.1,0,0.602,0.101")
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        summary = json.loads(json_path.read_text(), parse_constant=reject)
        assert summary["excluded_runs"] == 2
        for key in ("median", "iqr", "mean", "std"):
            assert summary["row"][key] is None

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
        code = main(["--application", "sgqt", "--qubits", "2", "--runs", "1",
                     "--iterations", "2", "--out", str(tmp_path / "no" / "dir" / "x")])
        assert code == 1

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
