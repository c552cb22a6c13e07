"""Command-line front end: configure an experiment, run it, export results.

One process runs one experiment.  Configuration comes from a flat JSON file
(``--config``) and/or command-line flags; flags override file values.  Two
artifacts are written: ``<out>.csv`` with per-iteration statistics and
``<out>.json`` with an appendix-style summary row plus the full config echo.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time

from .applications import GrapeProblem, SgqtProblem, VqeProblem
from .bench import EnsembleSpec, run_ensemble, summarize_final
from .estimators import GAIN_PRESETS, GainSchedule
from .optimizers import OptimizerConfig

__all__ = ["ExperimentConfig", "parse_config", "execute", "main"]

SCHEMA_VERSION = 1

APPLICATION_DEFAULTS = {
    "vqe": dict(qubits=10, layers=1, shots=2e4, iterations=700, runs=100,
                j=1.0, h=0.3, periodic=True),
    "grape": dict(qubits=5, slices=25, shots=2**13, iterations=1000, runs=100,
                  periodic=False),
    "sgqt": dict(qubits=6, shots=2e4, iterations=5000, runs=100),
}


@dataclasses.dataclass
class ExperimentConfig:
    application: str
    qubits: int
    shots: float
    iterations: int
    runs: int
    layers: int = 1
    slices: int = 25
    j: float = 1.0
    h: float = 0.3
    periodic: bool = False
    entangler: str = "ccz_ring"
    method: str = "first_order"
    field: str = "complex"
    scalar: bool = False
    gains: str = "standard"
    postproc: str = "gidi"
    epsilon: float | None = None
    blocking: str = "off"
    resampling: int = 1
    calibrate: bool = False
    seed: int = 0
    threads: int | None = 1
    out: str = "experiment"

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            method=self.method,
            field=self.field,
            scalar=self.scalar,
            gains=_parse_gains(self.gains),
            postproc=self.postproc,
            epsilon=self.epsilon,
            blocking=_parse_blocking(self.blocking),
            resampling=self.resampling,
            max_iterations=self.iterations,
            seed=self.seed,
        )

    def problem(self):
        if self.application == "vqe":
            return VqeProblem(n_qubits=self.qubits, layers=self.layers, j=self.j,
                              h=self.h, periodic=self.periodic, shots=self.shots,
                              entangler=self.entangler)
        if self.application == "grape":
            return GrapeProblem(n_qubits=self.qubits, slices=self.slices,
                                periodic=self.periodic, shots=self.shots)
        if self.application == "sgqt":
            return SgqtProblem(n_qubits=self.qubits, shots=self.shots)
        raise ValueError(f"unknown application {self.application!r}")


def _parse_gains(spec):
    if isinstance(spec, GainSchedule):
        return spec
    if isinstance(spec, (list, tuple)):
        values = [float(v) for v in spec]
    elif spec in GAIN_PRESETS:
        return GAIN_PRESETS[spec]
    else:
        values = [float(v) for v in str(spec).split(",")]
    if len(values) != 5:
        raise ValueError("explicit gains must be the five values a,b,A,s,t")
    a, b, big_a, s, t = values
    return GainSchedule(a=a, b=b, A=big_a, s=s, t=t)


def _gains_spec_string(spec) -> str:
    if isinstance(spec, str) and spec in GAIN_PRESETS:
        return spec
    g = _parse_gains(spec)
    return f"{g.a},{g.b},{g.A},{g.s},{g.t}"


def _parse_blocking(spec):
    if spec in (None, "off", False):
        return None
    if spec == "auto":
        return "auto"
    return float(spec)


def _parse_shots(value):
    if isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return math.inf
    value = float(value)
    if not math.isinf(value):
        if value < 1 or value != int(value):
            raise ValueError("shots must be a positive integer or 'inf'")
    return value


def _parse_bool(value):
    if isinstance(value, bool):
        return value
    lowered = str(value).lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {value!r}")


_FLAG_TYPES = {
    "application": str, "qubits": int, "shots": _parse_shots, "iterations": int,
    "runs": int, "layers": int, "slices": int, "j": float, "h": float,
    "periodic": _parse_bool, "entangler": str, "method": str, "field": str,
    "scalar": _parse_bool,
    "gains": str, "postproc": str, "epsilon": float, "blocking": str,
    "resampling": int, "calibrate": _parse_bool, "seed": int, "threads": int,
    "out": str,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spsakit",
        description="Run one stochastic-optimization experiment and export "
                    "per-iteration statistics (CSV) and a summary (JSON).",
    )
    parser.add_argument("--config", help="JSON config file with flat keys; "
                                         "flags override file values")
    for name, typ in _FLAG_TYPES.items():
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=typ, default=None, dest=name)
    return parser


def parse_config(argv=None) -> ExperimentConfig:
    """Merge config file, command-line flags, and per-application defaults."""
    args = _build_parser().parse_args(argv)

    file_values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        unknown = set(file_values) - set(_FLAG_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")

    merged = dict(file_values)
    for name in _FLAG_TYPES:
        value = getattr(args, name)
        if value is not None:
            merged[name] = value

    application = merged.get("application")
    if application not in APPLICATION_DEFAULTS:
        raise ValueError("application must be one of vqe, grape, sgqt")
    values = dict(APPLICATION_DEFAULTS[application])
    values.update(merged)
    if "shots" in values:
        values["shots"] = _parse_shots(values["shots"])
    if "seed" not in merged and "SPSAKIT_SEED" in os.environ:
        values["seed"] = int(os.environ["SPSAKIT_SEED"])

    config = ExperimentConfig(**values)
    _validate(config)
    return config


def _validate(config: ExperimentConfig):
    config.optimizer_config()  # raises on inconsistent method/field/scalar combos
    _parse_blocking(config.blocking)
    if config.application == "grape" and config.periodic and config.qubits == 2:
        raise ValueError("a periodic 2-qubit ring duplicates its only bond; "
                         "use periodic=false or more qubits")
    if config.runs < 1:
        raise ValueError("runs must be >= 1")
    config.problem()  # validates application parameters


def _format_number(x) -> str:
    # repr of a Python float is the shortest string that round-trips.
    return repr(float(x))


def _json_safe(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {key: _json_safe(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_statistics_csv(path, result):
    rows = ["iteration,mean,std,median,q1,q3,obj_evals,fid_evals"]
    for i, s in enumerate(result.stats):
        rows.append(",".join([
            str(s.k),
            _format_number(s.mean), _format_number(s.std),
            _format_number(s.median), _format_number(s.q1), _format_number(s.q3),
            str(int(result.objective_evals[i])), str(int(result.fidelity_evals[i])),
        ]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(rows) + "\n")


def execute(config: ExperimentConfig) -> int:
    """Run the configured ensemble and write the CSV/JSON outputs."""
    problem = config.problem()
    opt_config = config.optimizer_config()
    spec = EnsembleSpec(
        problem=problem,
        config=opt_config,
        n_runs=config.runs,
        base_seed=config.seed,
        calibrate=config.calibrate,
        workers=config.threads,
    )
    start = time.perf_counter()
    result = run_ensemble(spec)
    wall_time = time.perf_counter() - start

    summary = {
        "schema_version": SCHEMA_VERSION,
        "application": config.application,
        "config": _config_echo(config),
        "seed": config.seed,
        "runs": config.runs,
        "excluded_runs": result.n_excluded,
        "wall_time_s": wall_time,
        "at_iteration": config.iterations,
        "calibrated_a": result.calibrated_a,
        "exact_minimum": problem.exact_minimum(),
        "row": summarize_final(result, config.iterations, opt_config),
    }

    csv_path = config.out + ".csv"
    json_path = config.out + ".json"
    try:
        write_statistics_csv(csv_path, result)
        with open(json_path, "w", encoding="utf-8") as fh:
            # Strict JSON: statistics of an all-diverged ensemble are null.
            json.dump(_json_safe(summary), fh, indent=2, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _config_echo(config: ExperimentConfig) -> dict:
    echo = dataclasses.asdict(config)
    echo["gains"] = _gains_spec_string(config.gains)
    echo["shots"] = "inf" if math.isinf(config.shots) else config.shots
    return echo


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return execute(config)


if __name__ == "__main__":
    sys.exit(main())
