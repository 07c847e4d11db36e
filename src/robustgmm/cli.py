"""Command-line front end.

Subcommands: estimate, synth-sweep, semi-sweep, diagnose; each accepts only
the flags its run reads (see _COMMANDS).
Configuration is a flat key=value file overlaid by repeatable --set flags
(last one wins); unknown keys are rejected. Every output file starts with
the resolved configuration as '#' comment lines, and is byte-reproducible
from (config, seed). Exit codes: 0 success, 1 usage, config or file
error, 2 estimation failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .core import EstimationError
from .experiments import (
    CARD_STANDIN_COLUMNS,
    ESTIMATOR_NAMES,
    SweepConfig,
    aggregate_rows,
    diagnose_assumptions,
    format_float,
    load_csv,
    robust_linear_estimate,
    run_sweep,
    write_aggregate_csv,
    write_lines,
    write_rows_csv,
)
from .models import (
    ate_from_params,
    hte_design,
    model_class,
    scalar_treatment_design,
    two_stage_least_squares,
)
from .numerics import RandomSource

__all__ = ["main"]


class ConfigError(Exception):
    """Bad usage or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"key {key}: expected a boolean, got {raw!r}")


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key {key}: expected a number, got {raw!r}") from None


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key}: expected an integer, got {raw!r}") from None


def _split_list(raw: str) -> list:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _read_config_file(path) -> dict:
    out = {}
    try:
        with open(path, "r") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(
                        f"{path}:{lineno}: expected key=value, got {stripped!r}"
                    )
                key, _, value = stripped.partition("=")
                out[key.strip()] = value.strip()
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    return out


def _resolve(args, spec: dict) -> dict:
    """Defaults <- config file <- --set overrides <- --seed flag."""
    resolved = {k: v for k, v in spec.items() if v is not None}
    overlays = []
    if args.config:
        overlays.append(_read_config_file(args.config))
    pairs = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        pairs[key.strip()] = value.strip()
    overlays.append(pairs)
    for overlay in overlays:
        for key, value in overlay.items():
            if key not in spec:
                raise ConfigError(f"unknown config key {key!r}")
            resolved[key] = value
    seed = getattr(args, "seed", None)  # diagnose takes no --seed
    if seed is not None:
        resolved["seed"] = str(seed)
    return resolved


def _stamp(command: str, resolved: dict) -> list:
    lines = [f"command={command}"]
    lines.extend(f"{k}={resolved[k]}" for k in sorted(resolved))
    return lines


_COLUMN_KEYS = {
    "col_response": "y",
    "col_treatment": "",
    "col_instruments": "z1",
    "col_covariates": "x1",
}

def _columns_from(resolved: dict) -> dict:
    treatment = resolved.get("col_treatment", "")
    return {
        "response": resolved["col_response"],
        "treatment": treatment if treatment else None,
        "instruments": _split_list(resolved["col_instruments"]),
        "covariates": _split_list(resolved["col_covariates"]),
    }


def _require(resolved: dict, key: str) -> str:
    value = resolved.get(key, "")
    if not value:
        raise ConfigError(f"key {key!r} is required")
    return value


_HTE_MODES = {"hte": "treatment_only", "hte-full": "full"}
_MODEL_KINDS = ("linear", "logistic", "scalar", *_HTE_MODES)


def _build_design(resolved: dict):
    """Load the CSV and derive the design for the requested model kind.

    Returns (design dataset, model kind for the solver, base dataset for ATE
    reporting or None). An unknown model kind (checked before the input is
    read), an unreadable input, unusable columns or a logistic response
    outside [0, 1] are config errors.
    """
    kind = resolved["model"]
    if kind not in _MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    try:
        base = load_csv(_require(resolved, "input"), _columns_from(resolved))
        if kind == "logistic" and not 0.0 <= base.Y.min() <= base.Y.max() <= 1.0:
            lo, hi, column = base.Y.min(), base.Y.max(), resolved["col_response"]
            raise ConfigError(f"model=logistic needs a response in [0, 1]; "
                              f"column {column!r} ranges from {lo:g} to {hi:g}")
        if kind in ("linear", "logistic"):
            return base, kind, None
        if kind == "scalar":
            intercept = _parse_bool(resolved["intercept"], "intercept")
            return scalar_treatment_design(base, intercept=intercept), "linear", base
        return hte_design(base, _HTE_MODES[kind]), "linear", base
    except (ValueError, KeyError, OSError) as err:
        raise ConfigError(str(err)) from None


_ESTIMATE_SPEC = {
    "seed": "0",
    "input": None,
    "model": "linear",
    "intercept": "true",
    **_COLUMN_KEYS,
    "eps": None,  # required
}


def cmd_estimate(args) -> int:
    resolved = _resolve(args, _ESTIMATE_SPEC)
    eps = _parse_float(_require(resolved, "eps"), "eps")
    if not 0.0 <= eps < 0.5:
        raise ConfigError(f"eps must be < 0.5 and nonnegative, got {eps}")
    design, solver_kind, base = _build_design(resolved)

    report = robust_linear_estimate(
        design,
        eps,
        RandomSource(_parse_int(resolved["seed"], "seed")),
        model_kind=solver_kind,
    )

    w = report.w_hat
    removed = np.setdiff1d(np.arange(design.n), report.final_set.indices)
    lines = [f"w_hat={','.join(format_float(v) for v in w)}"]
    if base is not None:
        # the effect parameters lead w in the scalar and both hte designs
        mode = "scalar" if resolved["model"] == "scalar" else "hte"
        lines.append(f"ate={format_float(ate_from_params(w[: base.d], base, mode))}")
    lines.append(f"final_set_size={len(report.final_set)}")
    lines.append(f"removed_indices={','.join(str(i) for i in removed)}")
    for key in sorted(report.diagnostics):
        lines.append(f"diag.{key}={format_float(report.diagnostics[key])}")
    write_lines(args.out, lines, _stamp("estimate", resolved))
    return 0


_SYNTH_SPEC = {
    "seed": "0",
    "preset": "paper",
    "n": "",
    "d": "",
    "eps_grid": "",
    "reps": "",
    "estimators": ",".join(ESTIMATOR_NAMES),
    "attack": "all-ones",
    "stamp_runtime": "false",
}

_PRESETS = {
    "paper": {
        "n": "10000",
        "d": "20",
        "eps_grid": "0.01,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45",
        "reps": "10",
    },
    "desk": {
        "n": "2000",
        "d": "10",
        "eps_grid": "0.05,0.1,0.2,0.3",
        "reps": "5",
    },
}


def _sweep_common(resolved: dict, kind: str, grid: dict) -> dict:
    """SweepConfig fields both sweeps share; grid holds eps_grid and reps."""
    return {
        "kind": kind,
        "eps_grid": tuple(
            _parse_float(tok, "eps_grid") for tok in _split_list(grid["eps_grid"])
        ),
        "repetitions": _parse_int(grid["reps"], "reps"),
        "estimators": tuple(_split_list(resolved["estimators"])),
        "attack": resolved["attack"],
        "stamp_runtime": _parse_bool(resolved["stamp_runtime"], "stamp_runtime"),
    }


def _emit_sweep(args, command: str, resolved: dict, fields: dict) -> int:
    """Run the SweepConfig of fields at the resolved seed; write both CSVs."""
    rng = RandomSource(_parse_int(resolved["seed"], "seed"))
    try:
        rows = run_sweep(SweepConfig(**fields), rng, jobs=args.jobs)
    except ValueError as err:
        # a bad config, or a cell that could not build its design (columns,
        # attack or grid)
        raise ConfigError(str(err)) from None
    header = _stamp(command, resolved)
    write_rows_csv(args.out, rows, header)
    root, ext = os.path.splitext(args.out)
    write_aggregate_csv(f"{root}.agg{ext}", aggregate_rows(rows), header)
    if rows and all(row.value is None for row in rows):
        print("estimation failed: every sweep cell failed", file=sys.stderr)
        return 2
    return 0


def cmd_synth_sweep(args) -> int:
    resolved = _resolve(args, _SYNTH_SPEC)
    preset = resolved["preset"]
    if preset not in _PRESETS:
        raise ConfigError(f"unknown preset {preset!r}")
    merged = dict(_PRESETS[preset])
    for key in merged:
        if resolved.get(key):
            merged[key] = resolved[key]
    return _emit_sweep(args, "synth-sweep", resolved, {
        "n": _parse_int(merged["n"], "n"),
        "d": _parse_int(merged["d"], "d"),
        **_sweep_common(resolved, "synthetic", merged),
    })


_SEMI_SPEC = {
    "seed": "0",
    "input": None,
    "eps_grid": "0.05,0.1,0.15",
    "reps": "10",
    "estimators": "iterated-gmm-sever,classical-iv",
    "attack": "negation",
    "intercept": "true",
    "col_response": CARD_STANDIN_COLUMNS["response"],
    "col_treatment": CARD_STANDIN_COLUMNS["treatment"],
    "col_instruments": ",".join(CARD_STANDIN_COLUMNS["instruments"]),
    "col_covariates": ",".join(CARD_STANDIN_COLUMNS["covariates"]),
    "stamp_runtime": "false",
}


def cmd_semi_sweep(args) -> int:
    resolved = _resolve(args, _SEMI_SPEC)
    return _emit_sweep(args, "semi-sweep", resolved, {
        "data_path": _require(resolved, "input"),
        "columns": _columns_from(resolved),
        "intercept": _parse_bool(resolved["intercept"], "intercept"),
        **_sweep_common(resolved, "semi", resolved),
    })


_DIAGNOSE_SPEC = {
    "input": None,
    "model": "linear",
    "intercept": "true",
    **_COLUMN_KEYS,
}


def cmd_diagnose(args) -> int:
    resolved = _resolve(args, _DIAGNOSE_SPEC)
    design, solver_kind, _ = _build_design(resolved)
    model = model_class(solver_kind)(design)
    try:
        w_ref = two_stage_least_squares(design)
    except EstimationError:
        w_ref = np.zeros(design.d)
    diag = diagnose_assumptions(model, w_ref)
    lines = [f"n={design.n}", f"d={design.d}", f"p={design.p}"]
    lines.append(f"w_ref={','.join(format_float(v) for v in w_ref)}")
    lines.extend(f"{key}={format_float(diag[key])}" for key in sorted(diag))
    write_lines(args.out, lines, _stamp("diagnose", resolved))
    return 0


def _parse_jobs(raw: str) -> int:
    try:
        jobs = int(raw)
    except ValueError:
        raise ConfigError(f"--jobs expects an integer, got {raw!r}") from None
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    return jobs


_FLAGS = {
    "--config": {"help": "flat key=value config file"},
    "--set": {
        "action": "append",
        "metavar": "KEY=VALUE",
        "help": "override one config key (repeatable, wins over --config)",
    },
    "--seed": {"type": int, "help": "64-bit master seed"},
    "--out": {"required": True, "help": "output file path"},
    "--jobs": {"type": _parse_jobs, "default": 1, "help": "parallel sweep cells"},
}

_SWEEP_FLAGS = ("--config", "--set", "--seed", "--out", "--jobs")

# each subcommand parses only the flags its run reads
_COMMANDS = {
    "estimate": (cmd_estimate, ("--config", "--set", "--seed", "--out")),
    "synth-sweep": (cmd_synth_sweep, _SWEEP_FLAGS),
    "semi-sweep": (cmd_semi_sweep, _SWEEP_FLAGS),
    "diagnose": (cmd_diagnose, ("--config", "--set", "--out")),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="robustgmm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (EstimationError, np.linalg.LinAlgError) as err:
        # LAPACK giving up on a design (an SVD that does not converge) is an
        # estimation failure, as a sweep records it
        print(f"estimation failed: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
