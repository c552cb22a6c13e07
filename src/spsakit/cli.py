"""Command-line front end: configure an experiment, run it, export results.

One process runs one experiment.  Configuration comes from a flat JSON file
(``--config``) and/or command-line flags; flags override file values.  Both
go through one parser per option, derived from the field types of
`ExperimentConfig`, so ``"false"`` reads the same from either.
``--application`` picks a row of ``APPLICATIONS`` (``--help`` lists them): a
problem class and the paper's iteration count.  The problem flags naming a
field of that class default to the field's default; the others are rejected.
Two artifacts are written: ``<out>.csv`` with per-iteration statistics and
``<out>.json`` with an appendix-style summary row, the config echo and an
``environment`` record.
"""

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import time
import typing

import numpy as np

from .applications import GrapeProblem, SgqtProblem, VqeProblem
from .bench import EnsembleSpec, available_cpus, run_ensemble, summarize_final
from .estimators import GAIN_PRESETS, GainSchedule, gains_label
from .linalg import blas_threads
from .optimizers import OptimizerConfig

__all__ = ["APPLICATIONS", "ExperimentConfig", "parse_config", "execute", "main"]

SCHEMA_VERSION = 3

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

# Each library field that an option sets, and the option's name where it
# differs: the problem fields, and the runs, seed and iterations of the
# ensemble and the optimizer.  A library error starts with the field it is
# about, which `main` prints as its option.
OPTION_OF_FIELD = {name: flag for flag, name in PROBLEM_FIELDS.items()} | {
    "n_runs": "runs", "base_seed": "seed", "max_iterations": "iterations"}


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
    workers: int | None = 1
    out: str = "experiment"

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            method=self.method, field=self.field, scalar=self.scalar,
            gains=_parse_gains(self.gains), postproc=self.postproc, epsilon=self.epsilon,
            blocking=_parse_blocking(self.blocking), resampling=self.resampling,
            max_iterations=self.iterations)

    def problem(self):
        cls, _ = APPLICATIONS[self.application]
        return cls(**{name: getattr(self, flag) for flag, name in PROBLEM_FIELDS.items()
                      if getattr(self, flag) is not None})

    def ensemble_spec(self) -> EnsembleSpec:
        """The ensemble this experiment runs; raises ValueError on an invalid option."""
        return EnsembleSpec(problem=self.problem(), config=self.optimizer_config(),
                            n_runs=self.runs, base_seed=self.seed,
                            calibrate=self.calibrate, workers=self.workers)


def _problem_defaults(cls) -> dict:
    """Each problem flag that names a field of ``cls``, with the field's default."""
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    return {flag: fields[name] for flag, name in PROBLEM_FIELDS.items() if name in fields}


def _parse_gains(spec):
    """A preset name, the string ``a,b,A,s,t``, or a list of five numbers;
    as in every other option, a bool or string entry is not a number."""
    if isinstance(spec, (list, tuple)):
        if not all(type(v) in (int, float) for v in spec):
            raise ValueError(f"expected five numbers a,b,A,s,t, got {list(spec)!r}")
        values = [float(v) for v in spec]
    elif not isinstance(spec, str):
        raise ValueError(f"expected a preset, a,b,A,s,t or a list, got {spec!r}")
    elif spec in GAIN_PRESETS:
        return GAIN_PRESETS[spec]
    else:
        values = [float(v) for v in spec.split(",")]
    if len(values) != 5:
        raise ValueError(f"expected a preset or the five values a,b,A,s,t, got {spec!r}")
    return GainSchedule(*values)


def _parse_blocking(spec):
    if spec == "off":
        return None
    if spec == "auto":
        return "auto"
    return float(spec)


def _check_blocking(spec):
    """A blocking option as given, once `_parse_blocking` reads it, so that
    the config echo keeps its spelling."""
    if not isinstance(spec, str):
        raise ValueError(f"expected str, got {spec!r}")
    _parse_blocking(spec)
    return spec


def _parse_bool(text):
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_number(text):
    """An integral literal as an int, so that a shot budget past 2^53 stays
    exact, and any other number as a float.  A non-finite number must be
    spelled ``inf``: an overflowing literal such as ``1e400`` is an error,
    not a request for exact evaluation, and an integral one past the float
    range raises ``OverflowError``."""
    try:
        value = int(text)
    except ValueError:
        value = float(text)
    if not (math.isfinite(value) or text == "inf"):
        raise ValueError(f"expected a finite number or inf, got {text!r}")
    return value


def _option_parser(name, annotation, read=None):
    """The parser of one `ExperimentConfig` field, for a flag's string and a
    config file's JSON value alike; its errors start with ``name``.  A
    string is read as its type reads it (``_parse_bool`` for a bool,
    `_parse_number` for a float); any other value must already have the
    type, an int standing for a float and kept as it is.  A float must be
    finite, and an int standing for one must lie in the float range: a
    config file gives exact evaluation as the string ``"inf"``, and JSON
    reads ``1e400`` and ``Infinity`` as a float inf that is rejected.  None
    passes only where the field admits it.  ``read``, where given, reads
    every other value in place of these rules."""
    kinds = typing.get_args(annotation) or (annotation,)
    optional = type(None) in kinds
    kind, = (k for k in kinds if k is not type(None))
    text = {bool: _parse_bool, float: _parse_number}.get(kind, kind)
    types = (kind, int) if kind is float else (kind,)

    def parse(value):
        if value is None and optional:
            return None
        try:
            if read is not None:
                return read(value)
            if isinstance(value, str):
                return text(value)
            # math.isfinite raises OverflowError on an int past the float range
            if type(value) in types and (kind is not float or math.isfinite(value)):
                return value
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{name}: {exc}") from None
        raise ValueError(f"{name}: expected {kind.__name__}, got {value!r}")

    return parse


# One parser per option; gains are kept as their label, a config file may
# also give them as the list [a, b, A, s, t], and blocking is kept as given.
_READERS = {"gains": lambda value: gains_label(_parse_gains(value)), "blocking": _check_blocking}
OPTION_PARSERS = {f.name: _option_parser(f.name, f.type, _READERS.get(f.name))
                  for f in dataclasses.fields(ExperimentConfig)}


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
    for name in OPTION_PARSERS:
        parser.add_argument("--" + name, default=None, dest=name)
    return parser


def parse_config(argv=None) -> ExperimentConfig:
    """Merge config file, command-line flags, and per-application defaults."""
    args = _build_parser().parse_args(argv)

    merged = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                merged = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"config: {exc}") from None
        if not isinstance(merged, dict):
            raise ValueError("config: the file must hold one JSON object")
        unknown = set(merged) - set(OPTION_PARSERS)
        if unknown:
            raise ValueError(f"config: unknown keys {sorted(unknown)}")
    merged.update((name, value) for name, value in vars(args).items()
                  if value is not None and name in OPTION_PARSERS)
    merged = {name: OPTION_PARSERS[name](value) for name, value in merged.items()}

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

    config = ExperimentConfig(**values)
    config.ensemble_spec()  # raises on any invalid option
    head, tail = os.path.split(config.out)
    if "\0" in config.out or tail in ("", ".", "..") or not os.path.isdir(head or "."):
        raise ValueError(f"out: {config.out!r} names no file in a directory that exists")
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
    exact_minimum = spec.problem.exact_minimum()  # before any run: nothing fails after one
    start = time.perf_counter()
    try:
        result = run_ensemble(spec)
    except ValueError as exc:
        # Gain calibration, before any run, rejects an option; a run's
        # errors surface as they are.
        if not str(exc).startswith("calibrate:"):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
        "exact_minimum": exact_minimum,
        "row": summarize_final(result, config.iterations, spec.config),
        "environment": _environment(spec, result),
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


def _environment(spec: EnsembleSpec, result) -> dict:
    """What the results and timings depend on besides the config: library
    versions, the resolved worker count, the CPUs of the affinity mask, the
    thread count of numpy's bundled OpenBLAS (None without one), the thread
    variables that set the BLAS defaults, and whether gain calibration
    ran."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "workers": spec.resolved_workers(),
        "cpus": available_cpus(),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "calibrated": result.calibrated_a is not None,
    }


def _config_echo(config: ExperimentConfig) -> dict:
    echo = {key: value for key, value in dataclasses.asdict(config).items()
            if value is not None or key not in PROBLEM_FIELDS}
    if "shots" in echo and math.isinf(echo["shots"]):
        echo["shots"] = "inf"
    return echo


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except (ValueError, OverflowError, OSError) as exc:
        message = re.sub(r"^\w+", lambda field: OPTION_OF_FIELD.get(field[0], field[0]), str(exc))
        print(f"error: {message}", file=sys.stderr)
        return 2
    return execute(config)


if __name__ == "__main__":
    sys.exit(main())
