"""Command-line front end: configure an experiment, run it, export results.

One process runs one experiment.  Configuration comes from a flat JSON file
(``--config``) and/or command-line flags; flags override file values.
``--application`` picks a row of ``APPLICATIONS`` (``--help`` lists them): a
problem class and the paper's iteration count.  The problem flags naming a
field of that class default to the field's default; the others are rejected.
Two artifacts are written: ``<out>.csv`` with per-iteration statistics and
``<out>.json`` with an appendix-style summary row plus the config echo.
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
from .estimators import GAIN_PRESETS, GainSchedule, gains_label
from .optimizers import OptimizerConfig

__all__ = ["APPLICATIONS", "ExperimentConfig", "parse_config", "execute", "main"]

SCHEMA_VERSION = 1

APPLICATIONS = {
    "vqe": (VqeProblem, 700),
    "grape": (GrapeProblem, 1000),
    "sgqt": (SgqtProblem, 5000),
}

# Each problem flag and the problem dataclass field it sets.
PROBLEM_FIELDS = {
    "qubits": "n_qubits", "shots": "shots", "layers": "layers", "slices": "slices",
    "j": "j", "h": "h", "periodic": "periodic", "entangler": "entangler",
}


@dataclasses.dataclass
class ExperimentConfig:
    """One experiment; a problem flag is None if the problem class has no such field."""

    application: str
    iterations: int
    runs: int = 100
    qubits: int | None = None
    shots: float | None = None
    layers: int | None = None
    slices: int | None = None
    j: float | None = None
    h: float | None = None
    periodic: bool | None = None
    entangler: str | None = None
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
            method=self.method, field=self.field, scalar=self.scalar,
            gains=_parse_gains(self.gains), postproc=self.postproc, epsilon=self.epsilon,
            blocking=_parse_blocking(self.blocking), resampling=self.resampling,
            max_iterations=self.iterations, seed=self.seed)

    def problem(self):
        cls, _ = APPLICATIONS[self.application]
        return cls(**{name: getattr(self, flag) for flag, name in PROBLEM_FIELDS.items()
                      if getattr(self, flag) is not None})

    def ensemble_spec(self) -> EnsembleSpec:
        """The ensemble this experiment runs; raises ValueError on an invalid option."""
        return EnsembleSpec(problem=self.problem(), config=self.optimizer_config(),
                            n_runs=self.runs, base_seed=self.seed,
                            calibrate=self.calibrate, workers=self.threads)


def _problem_defaults(cls) -> dict:
    """Each problem flag that names a field of ``cls``, with the field's default."""
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    return {flag: fields[name] for flag, name in PROBLEM_FIELDS.items() if name in fields}


def _parse_gains(spec):
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


def _parse_blocking(spec):
    if spec in (None, "off", False):
        return None
    if spec == "auto":
        return "auto"
    return float(spec)


def _parse_shots(value):
    value = float(value)  # also reads "inf"
    if value != math.inf and not (value >= 1 and value == int(value)):
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
        epilog="applications and their problem flags: " + "; ".join(
            f"{name} ({cls.__name__}, {iterations} iterations): "
            f"--{' --'.join(_problem_defaults(cls))}"
            for name, (cls, iterations) in APPLICATIONS.items()),
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

    merged = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            merged = json.load(fh)
        unknown = set(merged) - set(_FLAG_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    merged.update((name, value) for name, value in vars(args).items()
                  if value is not None and name in _FLAG_TYPES)

    application = merged.get("application")
    if application not in APPLICATIONS:
        raise ValueError(f"application must be one of {', '.join(APPLICATIONS)}")
    cls, iterations = APPLICATIONS[application]
    defaults = _problem_defaults(cls)
    unused = set(merged).intersection(PROBLEM_FIELDS).difference(defaults)
    if unused:
        raise ValueError(f"{application} takes no " + ", ".join("--" + f for f in sorted(unused)))
    values = dict(defaults, iterations=iterations)
    values.update(merged)
    if "shots" in values:
        values["shots"] = _parse_shots(values["shots"])
    if "gains" in values:
        values["gains"] = gains_label(_parse_gains(values["gains"]))
    if "seed" not in merged and "SPSAKIT_SEED" in os.environ:
        values["seed"] = int(os.environ["SPSAKIT_SEED"])

    config = ExperimentConfig(**values)
    config.ensemble_spec()  # raises on any invalid option
    return config


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
    for s, n_obj, n_fid in zip(result.stats, result.objective_evals, result.fidelity_evals):
        # repr of a Python float is the shortest string that round-trips.
        stats = [repr(float(x)) for x in (s.mean, s.std, s.median, s.q1, s.q3)]
        rows.append(",".join([str(s.k), *stats, str(int(n_obj)), str(int(n_fid))]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(rows) + "\n")


def execute(config: ExperimentConfig) -> int:
    """Run the configured ensemble and write the CSV/JSON outputs."""
    spec = config.ensemble_spec()
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
        "exact_minimum": spec.problem.exact_minimum(),
        "row": summarize_final(result, config.iterations, spec.config),
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
    echo = {key: value for key, value in dataclasses.asdict(config).items()
            if value is not None or key not in PROBLEM_FIELDS}
    if "shots" in echo and math.isinf(echo["shots"]):
        echo["shots"] = "inf"
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
