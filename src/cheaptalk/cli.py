"""Configuration-driven command line: solve / verify / classify / rd / transform / sweep.

One JSON config file describes the run; dotted flags override any leaf
(``--solver.seed=7``), the ``CHEAPTALK_SEED`` environment variable
overrides the config seed, and ``--seed`` overrides both.  Every command
emits line-delimited JSON records whose ``payload`` field is byte-identical
across runs with the same effective config (wall-clock time lives outside
the payload).  ``--csv`` additionally writes a flat table where the command
has one.

Exit codes: 0 success/verified; 1 verification failed or classification
answered "no" (the computation itself succeeded); 2 invalid config;
3 numerical failure (non-convergence, bin death after retries, a payload
value that is not finite).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv as csv_module
import dataclasses
import hashlib
import inspect
import json
import math
import os
import sys
import time

import numpy as np

from . import classify as classify_mod
from . import ratedist
from .equilibrium import (
    ActionSet,
    QuantizerPolicy,
    SolverConfig,
    construct_reveal_plus_quantize,
    solve_fixed_point,
    verify_equilibrium,
)
from .errors import CheapTalkError, InfeasibleDistortionError
from .geometry import _is_whole
from .sources import (
    SourceModel,
    correlated_gaussian_2d,
    iid_exponential,
    iid_gaussian,
    iid_laplace,
    iid_uniform,
    tabulated_from_csv,
)
from .transforms import bias_aligning_transform, helmert_transform, pair_transform_2d

__all__ = ["main", "run_command", "build_source", "ConfigError"]

COMMANDS = ("solve", "verify", "classify", "rd", "transform", "sweep")

# the library's defaults, so that the CLI cannot drift from them; k has no
# library default
SOLVER_DEFAULTS = {
    "k": 1,
    **{f.name: f.default for f in dataclasses.fields(SolverConfig)},
    "grid_levels": construct_reveal_plus_quantize.__kwdefaults__["grid_levels"],
}


class ConfigError(ValueError):
    """The run configuration failed validation."""


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else str(v)  # "nan", "inf" or "-inf"
    if isinstance(obj, (np.integer, int, str, bool)) or obj is None:
        return int(obj) if isinstance(obj, np.integer) else obj
    raise ConfigError(f"cannot serialize value of type {type(obj).__name__}")


# payload fields that are +inf by definition: the least slack over no pair
# (fewer than two realized actions), and the centroid stderr when no bin has a z
_INFINITE_FIELDS = ("min_pairwise_geo_slack", "centroid_residual_stderr")


def _nonfinite(obj, path: str = ""):
    """(path, value) of each payload value that is NaN, or infinite outside
    ``_INFINITE_FIELDS`` (which may hold +inf), in payload order."""
    obj = obj.tolist() if isinstance(obj, np.ndarray) else obj
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nonfinite(value, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _nonfinite(value, f"{path}[{i}]")
    elif isinstance(obj, (np.floating, float)) and not math.isfinite(obj) and not (
            obj == math.inf and path.rpartition(".")[2] in _INFINITE_FIELDS):
        yield path, float(obj)


def canonical_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


# -- config handling ---------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def parse_overrides(tokens: list[str]) -> dict[str, object]:
    out = {}
    for tok in tokens:
        if not tok.startswith("--") or "=" not in tok:
            raise ConfigError(f"unrecognized argument {tok!r} (overrides look like --a.b.c=value)")
        path, raw = tok[2:].split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out[path] = value
    return out


def set_leaf(config: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = config
    for key in keys[:-1]:
        nxt = node.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            node[key] = nxt
        node = nxt
    node[keys[-1]] = value


def effective_config(config: dict, overrides: dict, env_seed: str | None, seed_flag: int | None) -> dict:
    cfg = copy.deepcopy(config)
    solver = cfg.get("solver") or {}
    if not isinstance(solver, dict):
        raise ConfigError(f"invalid solver block: solver must be an object, got {solver!r}")
    cfg["solver"] = {**SOLVER_DEFAULTS, **solver}
    if env_seed is not None:
        try:
            cfg["solver"]["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"CHEAPTALK_SEED must be an integer, got {env_seed!r}") from exc
    for path, value in overrides.items():
        set_leaf(cfg, path, value)
    if seed_flag is not None:
        cfg["solver"]["seed"] = int(seed_flag)
    return cfg


# -- leaf kinds: each converts one leaf or raises a ConfigError naming it -----------


def _bad(leaf: str, what: str, value) -> ConfigError:
    where = f"{leaf.split('.')[0]} block" if "." in leaf else "config"
    return ConfigError(f"invalid {where}: {leaf} must be {what}, got {value!r}")


def _int(value, leaf: str) -> int:
    """An integer: booleans, fractions and non-numbers are errors, not truncations."""
    if not _is_whole(value):
        raise _bad(leaf, "an integer", value)
    return int(value)


def _count(value, leaf: str) -> int:
    """An integer of at least 1: a bin count or a grid resolution."""
    count = _int(value, leaf)
    if count < 1:
        raise _bad(leaf, "an integer of at least 1", value)
    return count


def _real(value, leaf: str) -> float:
    """A finite number; a boolean or a string is not one."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise _bad(leaf, "finite and real", value)
    return float(value)


def _list(value, leaf: str) -> list:
    if not isinstance(value, list) or not value:
        raise _bad(leaf, "a nonempty list", value)
    return value


def _vector(value, leaf: str) -> np.ndarray:
    return np.array([_real(v, f"{leaf}[{i}]") for i, v in enumerate(_list(value, leaf))])


def _matrix(value, leaf: str) -> np.ndarray:
    """A nonempty list of rows of one length; a bare number is a row of one."""
    rows = [
        _vector(row if isinstance(row, list) else [row], f"{leaf}[{i}]")
        for i, row in enumerate(_list(value, leaf))
    ]
    if len({row.size for row in rows}) != 1:
        raise _bad(leaf, "rows of one length", value)
    return np.array(rows)


def _ints(value, leaf: str) -> list[int]:
    return [_int(v, f"{leaf}[{i}]") for i, v in enumerate(_list(value, leaf))]


def _text(value, leaf: str) -> str:
    if not isinstance(value, str):
        raise _bad(leaf, "a string", value)
    return value


# -- the block table -----------------------------------------------------------------


def _iid(factory):
    """The maker of an i.i.d. family, whose ``dim`` is 2 unless the config gives it."""
    return lambda dim=2, **params: factory(dim, **params)


def _quantizer(model: SourceModel, bias: np.ndarray, solver: dict, actions: np.ndarray):
    return QuantizerPolicy(ActionSet(actions), bias)


def _reveal_quantize(model: SourceModel, bias: np.ndarray, solver: dict, k_last=1):
    return construct_reveal_plus_quantize(model, bias, k_last, grid_levels=solver["grid_levels"])


def _rd(seed: int, sigma_sq, b=0.0, d_team=None, de=None, dd=None, n_list=None, rate_bits=1,
        **experiment):
    """The rd payload and CSV rows; ``experiment`` holds ``samples`` when the
    config gives it, and the experiment's own default applies otherwise."""
    payload: dict = {"sigma_sq": sigma_sq, "b": b}
    csv_rows = None
    if d_team is not None:
        rate = ratedist.team_rate_distortion(sigma_sq, d_team)
        tup = ratedist.achievable_tuple(rate, d_team, b)
        payload["team_rate"] = rate
        payload["achievable"] = {"rate": tup.rate, "de": tup.de, "dd": tup.dd}
    if de is not None and dd is not None:
        try:
            payload["rate_bound"] = ratedist.game_rate_bound(sigma_sq, b, de, dd)
            payload["feasible"] = True
        except InfeasibleDistortionError:
            payload["rate_bound"] = None
            payload["feasible"] = False
    if n_list is not None:
        rows = ratedist.asymptotic_experiment(sigma_sq, b, rate_bits, n_list, seed=seed, **experiment)
        payload["asymptotic"] = [
            dict(zip(ratedist.AsymptoticRow.CSV_COLUMNS, r.csv_values())) for r in rows
        ]
        csv_rows = [ratedist.AsymptoticRow.CSV_COLUMNS] + [r.csv_values() for r in rows]
    if len(payload) == 2:
        raise ConfigError("rd block specifies nothing to compute (d_team, de/dd, or n_list)")
    return payload, csv_rows


# block -> (maker or None, the kind of each key); README lists every leaf
_BLOCKS = {
    "solver": (None, {
        "k": _count, "tolerance": _real, "max_iterations": _int, "samples": _int,
        "seed": _int, "grid_levels": _count,
    }),
    "rd": (_rd, {
        "sigma_sq": _real, "b": _real, "d_team": _real, "de": _real, "dd": _real,
        "n_list": _ints, "rate_bits": _int, "samples": _int,
    }),
    "sweep": (lambda command, path, values: (command, path, values),
              {"command": _text, "path": _text, "values": _list}),
    "output": (None, {"records": _text}),
}
# block -> (the key that chooses, {choice: (maker, the kind of each other key)})
_CHOSEN = {
    "source": ("family", {
        "iid-gaussian": (_iid(iid_gaussian), {"dim": _int, "mean": _real, "sigma_sq": _real}),
        "correlated-gaussian-2d": (correlated_gaussian_2d, {
            "sigma1_sq": _real, "sigma2_sq": _real, "rho": _real, "mean": _vector,
        }),
        "iid-uniform": (_iid(iid_uniform), {"dim": _int, "lo": _real, "hi": _real}),
        "iid-exponential": (_iid(iid_exponential), {"dim": _int, "rate": _real}),
        "iid-laplace": (_iid(iid_laplace), {"dim": _int, "mean": _real, "scale": _real}),
        "tabulated-density": (lambda csv: tabulated_from_csv(csv), {"csv": _text}),
    }),
    "policy": ("kind", {
        "quantizer": (_quantizer, {"actions": _matrix}),
        "reveal-quantize": (_reveal_quantize, {"k_last": _count}),
    }),
    "transform": ("kind", {
        "pair2d": (lambda bias: pair_transform_2d(bias), {"bias": _vector}),
        "helmert": (helmert_transform, {"n": _int, "bias": _real}),
        "bias-aligning": (lambda bias: bias_aligning_transform(bias), {"bias": _vector}),
    }),
}


@contextlib.contextmanager
def _invalid(block: str, lead: str = ""):
    """Turn the ValueError, TypeError or OSError (a tabulated source's CSV) that
    a library call raises into a config error (exit 2) on ``block``; ``lead``
    goes before the library's message."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"invalid {block} block: {lead}{exc}") from exc


def _block(cfg: dict, name: str, *args):
    """Config block ``name`` (absent reads as empty), read by its table row.

    A non-object block, an unknown ``family``/``kind``, a key the block does
    not take and a required key it lacks are config errors naming the dotted
    leaf.  The keys present are converted by their kinds and, where the block
    has a maker, passed to ``maker(*args, ...)``, so the library's defaults
    fill in the rest.
    """
    block = {} if cfg.get(name) is None else cfg[name]
    if not isinstance(block, dict):
        raise ConfigError(f"invalid {name} block: {name} must be an object, got {block!r}")
    if name in _CHOSEN:
        key, choices = _CHOSEN[name]
        choice = block.get(key)
        if not isinstance(choice, str) or choice not in choices:
            raise _bad(f"{name}.{key}", f"one of {', '.join(choices)}", choice)
        maker, kinds = choices[choice]
        block = {k: v for k, v in block.items() if k != key}
    else:
        maker, kinds = _BLOCKS[name]
    unknown = ", ".join(f"{name}.{k}" for k in sorted(block) if k not in kinds)
    if unknown:
        raise ConfigError(f"invalid {name} block: no setting named {unknown}")
    leaves = {k: kinds[k](v, f"{name}.{k}") for k, v in block.items()}
    if maker is None:
        return leaves
    # the maker's parameters past ``args`` are named as the block's keys
    params = list(inspect.signature(maker).parameters.values())[len(args):]
    missing = ", ".join(f"{name}.{p.name}" for p in params if p.name not in leaves
                        and p.default is p.empty and p.kind is not p.VAR_KEYWORD)
    if missing:
        raise ConfigError(f"invalid {name} block: missing {missing}")
    with _invalid(name):
        return maker(*args, **leaves)


def build_source(block) -> SourceModel:
    return _block({"source": block}, "source")


def _solver(cfg: dict) -> dict:
    """The solver leaves over the defaults (an override may replace the block)."""
    return {**SOLVER_DEFAULTS, **_block(cfg, "solver")}


def _problem(cfg: dict):
    """The source model, the bias vector and the solver leaves."""
    model = build_source(cfg.get("source"))
    bias = cfg.get("bias")
    if isinstance(bias, (int, float)) and not isinstance(bias, bool):
        bias = [bias] * model.dim  # one number biases every coordinate alike
    bias = _vector(bias, "bias")
    if bias.shape != (model.dim,):
        raise ConfigError(f"invalid config: bias must have length {model.dim}, got {bias.size}")
    return model, bias, _solver(cfg)


# -- command payloads ---------------------------------------------------------------


def _cmd_solve(cfg: dict):
    model, bias, s = _problem(cfg)
    fields = {f.name: s[f.name] for f in dataclasses.fields(SolverConfig)}
    with _invalid("solver", "solver."):  # the messages start with the offending field's name
        result = solve_fixed_point(model, bias, s["k"], SolverConfig(**fields))
    final_movement = result.movements[-1] if result.movements else 0.0
    payload = {
        "actions": result.actions.actions,
        "converged": result.converged,
        "iterations": result.iterations,
        "final_movement": final_movement,
        "restarts": result.restarts,
        "k": result.actions.k,
    }
    if not result.converged:
        print(f"solve did not converge: stop reason {result.stop_reason!r} after "
              f"{result.iterations} sweeps, last movement {final_movement:.6g}", file=sys.stderr)
    return payload, (0 if result.converged else 3), None


def _cmd_verify(cfg: dict):
    model, bias, s = _problem(cfg)
    policy = _block(cfg, "policy", model, bias, s)
    samples, seed = s["samples"], s["seed"]
    with _invalid("solver", f"(solver.samples={samples}, solver.seed={seed}) "):
        cert = verify_equilibrium(policy, model, bias, samples=samples, seed=seed)
    payload = {"policy_kind": policy.kind, **cert.to_dict()}
    if next(_nonfinite(payload), None) is None:  # else main reports the value and no check reads it
        for check in cert.checks:
            if not check.passed:
                print(f"verify failed the {check}", file=sys.stderr)
    return payload, (0 if cert.passed else 1), None


def _cmd_classify(cfg: dict):
    model, bias, s = _problem(cfg)
    if model.dim != 2:
        raise ConfigError("invalid source block: classification is defined for 2-D sources, "
                          f"got a {model.dim}-D source")
    samples, seed = s["samples"], s["seed"]
    with _invalid("solver", f"(solver.samples={samples}, solver.seed={seed}) "):
        verdict = classify_mod.classify_linear_existence(model, bias, samples=samples, seed=seed)
    if verdict.exists == "no":
        evidence = "".join(f", {name} {value:.6g}" for name, value in verdict.evidence.items())
        print(f"classify answered no: theorem_case {verdict.theorem_case}, source family "
              f"{model.family} ({verdict.confidence}){evidence}", file=sys.stderr)
    return verdict.to_dict(), (1 if verdict.exists == "no" else 0), None


def _cmd_rd(cfg: dict):
    payload, csv_rows = _block(cfg, "rd", _solver(cfg)["seed"])
    return payload, 0, csv_rows


def _cmd_transform(cfg: dict):
    t = _block(cfg, "transform")
    payload = {
        "kind": cfg["transform"]["kind"],
        "forward": t.forward,
        "inverse": t.inverse,
        "transformed_bias": t.transformed_bias,
        "scale": t.scale,
        "orthonormal": t.is_orthonormal,
    }
    csv_rows = [tuple(row) for row in t.forward]
    return payload, 0, csv_rows


def _cmd_sweep(cfg: dict):
    command, path, values = _block(cfg, "sweep")
    if command not in COMMANDS[:-1]:
        raise _bad("sweep.command", f"one of {', '.join(COMMANDS[:-1])}", command)
    results = []
    status = 0
    for value in values:
        sub = copy.deepcopy(cfg)
        sub.pop("sweep", None)
        set_leaf(sub, path, value)
        payload, code, _ = run_command(command, sub)
        results.append({"value": value, "payload": payload, "status": code})
        status = max(status, code)
    keys = sorted({k for r in results for k, v in r["payload"].items() if _scalar(v)})
    rows = [(r["value"], r["status"], *[r["payload"].get(k) for k in keys]) for r in results]
    payload = {"command": command, "path": path, "points": results}
    return payload, status, [(path, "status", *keys), *rows]


def _scalar(value) -> bool:
    return isinstance(value, (int, float, bool, str)) or value is None


_COMMAND_TABLE = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "rd": _cmd_rd,
    "transform": _cmd_transform,
    "sweep": _cmd_sweep,
}


def run_command(command: str, cfg: dict):
    """Dispatch to the command implementation; returns (payload, status, csv_rows).

    A top-level key that is neither ``bias`` nor a block name is a config
    error; a block the command does not read is accepted.
    """
    unknown = ", ".join(sorted(set(cfg) - {"bias", *_BLOCKS, *_CHOSEN}))
    if unknown:
        raise ConfigError(f"invalid config: no setting named {unknown}")
    return _COMMAND_TABLE[command](cfg)


# -- entry point ---------------------------------------------------------------------


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv_module.writer(fh)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cheaptalk",
        description="Cheap-talk equilibrium solver, verifier and rate-distortion tool",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--csv", help="optional CSV table output path")
    parser.add_argument("--seed", type=int, help="override the solver seed")
    args, unknown = parser.parse_known_args(argv)

    try:
        overrides = parse_overrides(unknown)
        cfg = effective_config(
            load_config(args.config), overrides, os.environ.get("CHEAPTALK_SEED"), args.seed
        )
        out_path = _block(cfg, "output").get("records")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    try:
        payload, status, csv_rows = run_command(args.command, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheapTalkError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - t0
    bad = next(_nonfinite(payload), None)
    if bad is not None:
        print(f"numerical failure: payload field {bad[0]} is {bad[1]}", file=sys.stderr)
        return 3

    payload = _jsonable(payload)
    line = (
        '{"command":' + json.dumps(args.command)
        + ',"config_hash":' + json.dumps(config_hash(cfg))
        + ',"payload":' + canonical_json(payload)
        + ',"status":' + str(status)
        + ',"wall_clock_s":' + f"{wall:.6f}" + "}"
    )

    if out_path:
        with open(out_path, "a") as fh:
            fh.write(line + "\n")
    print(line)

    if args.csv:
        if csv_rows is None:
            csv_rows = [("key", "value"), *sorted((k, v) for k, v in payload.items() if _scalar(v))]
        _write_csv(args.csv, csv_rows)
    return status


if __name__ == "__main__":
    sys.exit(main())
