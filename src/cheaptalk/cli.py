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
3 numerical failure (non-convergence, bin death after retries).
"""

from __future__ import annotations

import argparse
import copy
import csv as csv_module
import dataclasses
import hashlib
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
from .errors import BinDeathError, CheapTalkError, InfeasibleDistortionError
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

# the library's defaults, so that the CLI cannot drift from them; k and k_last
# have no library default
SOLVER_DEFAULTS = {
    "k": 1,
    "k_last": 1,
    **{f.name: f.default for f in dataclasses.fields(SolverConfig)},
    "grid_levels": construct_reveal_plus_quantize.__kwdefaults__["grid_levels"],
}
# the solver leaves that are counts or seeds
_SOLVER_INTEGERS = ("k", "k_last", "max_iterations", "samples", "seed", "grid_levels")
# the keys each source family and transform kind reads, and the rd keys; a
# key outside these would change nothing but the config hash
_SOURCE_KEYS = {
    "iid-gaussian": ("mean", "sigma_sq"),
    "correlated-gaussian-2d": ("sigma1_sq", "sigma2_sq", "rho", "mean"),
    "iid-uniform": ("lo", "hi"),
    "iid-exponential": ("rate",),
    "iid-laplace": ("mean", "scale"),
    "tabulated-density": ("csv",),
}
_TRANSFORM_KEYS = {"pair2d": ("bias",), "helmert": ("n", "bias"), "bias-aligning": ("bias",)}
_RD_KEYS = ("sigma_sq", "b", "d_team", "de", "dd", "n_list", "rate_bits", "samples")


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
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.integer, int, str, bool)) or obj is None:
        return int(obj) if isinstance(obj, np.integer) else obj
    raise ConfigError(f"cannot serialize value of type {type(obj).__name__}")


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
    solver = dict(SOLVER_DEFAULTS)
    solver.update(cfg.get("solver", {}) or {})
    cfg["solver"] = solver
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


def _integer(value, path: str) -> int:
    """The integer config leaf at dotted ``path``: booleans, non-integral
    numbers and non-numbers are config errors naming the leaf."""
    if not ratedist._is_whole(value):
        raise ConfigError(
            f"invalid {path.split('.')[0]} block: {path} must be an integer, got {value!r}"
        )
    return int(value)


def _known_keys(block: dict, name: str, known) -> None:
    """Reject the keys of config block ``name`` that are not in ``known``:
    they would change nothing.  The message names each dotted leaf."""
    unknown = [key for key in block if key not in known]
    if unknown:
        names = ", ".join(f"{name}.{key}" for key in sorted(unknown))
        raise ConfigError(f"invalid {name} block: no setting named {names}")


def _solver_block(cfg: dict) -> dict:
    """The solver block, over the defaults, with its integer leaves checked
    and converted (an override may have replaced the whole block).  A key
    the defaults do not name is an error."""
    block = cfg["solver"]
    if not isinstance(block, dict):
        raise ConfigError(f"invalid solver block: solver must be an object, got {block!r}")
    _known_keys(block, "solver", SOLVER_DEFAULTS)
    s = {**SOLVER_DEFAULTS, **block}
    for key in _SOLVER_INTEGERS:
        s[key] = _integer(s[key], f"solver.{key}")
    return s


def build_source(block) -> SourceModel:
    if not isinstance(block, dict):
        raise ConfigError("source block must be an object")
    family = block.get("family")
    if not isinstance(family, str) or family not in _SOURCE_KEYS:
        raise ConfigError(f"unknown source family {family!r}")
    _known_keys(block, "source", ("family", "dim", *_SOURCE_KEYS[family]))
    dim = _integer(block.get("dim", 2), "source.dim")
    try:
        if family == "iid-gaussian":
            return iid_gaussian(
                dim,
                mean=float(block.get("mean", 0.0)),
                sigma_sq=float(block.get("sigma_sq", 1.0)),
            )
        if family == "correlated-gaussian-2d":
            return correlated_gaussian_2d(
                float(block["sigma1_sq"]),
                float(block["sigma2_sq"]),
                float(block["rho"]),
                mean=block.get("mean", (0.0, 0.0)),
            )
        if family == "iid-uniform":
            return iid_uniform(
                dim,
                lo=float(block.get("lo", 0.0)),
                hi=float(block.get("hi", 1.0)),
            )
        if family == "iid-exponential":
            return iid_exponential(dim, rate=float(block.get("rate", 1.0)))
        if family == "iid-laplace":
            return iid_laplace(
                dim,
                mean=float(block.get("mean", 0.0)),
                scale=float(block.get("scale", 1.0)),
            )
        return tabulated_from_csv(block["csv"])
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid source block: {exc}") from exc


def _get_bias(cfg: dict, dim: int) -> np.ndarray:
    bias = cfg.get("bias")
    if bias is None:
        raise ConfigError("config needs a 'bias' vector")
    arr = np.asarray(bias, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise ConfigError(f"bias must have length {dim}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("bias entries must be finite")
    return arr


# -- command payloads ---------------------------------------------------------------


def _cmd_solve(cfg: dict):
    model = build_source(cfg.get("source"))
    bias = _get_bias(cfg, model.dim)
    s = _solver_block(cfg)
    fields = dict(
        tolerance=float(s["tolerance"]),
        max_iterations=s["max_iterations"],
        damping=float(s["damping"]),
        samples=s["samples"],
        seed=s["seed"],
    )
    try:
        result = solve_fixed_point(model, bias, s["k"], SolverConfig(**fields))
    except ValueError as exc:  # the messages start with the offending field's name
        raise ConfigError(f"invalid solver block: solver.{exc}") from exc
    payload = {
        "actions": result.actions.actions,
        "converged": result.converged,
        "iterations": result.iterations,
        "final_movement": result.movements[-1] if result.movements else 0.0,
        "restarts": result.restarts,
        "k": result.actions.k,
    }
    return payload, (0 if result.converged else 3), None


def _build_policy(cfg: dict, s: dict, model: SourceModel, bias: np.ndarray):
    block = cfg.get("policy")
    if not isinstance(block, dict):
        raise ConfigError("verify needs a 'policy' block")
    kind = block.get("kind")
    if kind == "quantizer":
        actions = block.get("actions")
        if actions is None:
            raise ConfigError("quantizer policies need explicit 'actions'")
        return QuantizerPolicy(ActionSet(np.asarray(actions, dtype=float)), bias)
    if kind == "reveal-quantize":
        k_last = _integer(block.get("k_last", s["k_last"]), "policy.k_last")
        try:
            return construct_reveal_plus_quantize(
                model, bias, k_last, grid_levels=s["grid_levels"]
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown policy kind {kind!r}")


def _cmd_verify(cfg: dict):
    model = build_source(cfg.get("source"))
    bias = _get_bias(cfg, model.dim)
    s = _solver_block(cfg)
    policy = _build_policy(cfg, s, model, bias)
    samples, seed = s["samples"], s["seed"]
    try:
        cert = verify_equilibrium(policy, model, bias, samples=samples, seed=seed)
    except ValueError as exc:  # too few samples or a negative seed
        raise ConfigError(
            f"invalid solver block (solver.samples={samples}, solver.seed={seed}): {exc}"
        ) from exc
    payload = {"policy_kind": policy.kind, **cert.to_dict()}
    return payload, (0 if cert.passed else 1), None


def _cmd_classify(cfg: dict):
    model = build_source(cfg.get("source"))
    bias = _get_bias(cfg, model.dim)
    s = _solver_block(cfg)
    if model.family == "correlated-gaussian-2d":
        verdict = classify_mod.classify_correlated_gaussian(
            float(model.cov[0, 0]), float(model.cov[1, 1]), float(model.cov[0, 1]), bias
        )
    else:
        verdict = classify_mod.classify_linear_existence(
            model, bias, samples=min(s["samples"], 400_000), seed=s["seed"]
        )
    return verdict.to_dict(), (1 if verdict.exists == "no" else 0), None


def _finite(block: dict, key: str, default=None) -> float:
    value = float(block[key] if default is None else block.get(key, default))
    if not math.isfinite(value):
        raise ConfigError(f"invalid rd block: rd.{key} must be finite, got {value}")
    return value


def _cmd_rd(cfg: dict):
    block = cfg.get("rd")
    if not isinstance(block, dict):
        raise ConfigError("rd needs an 'rd' block")
    _known_keys(block, "rd", _RD_KEYS)
    seed = _solver_block(cfg)["seed"]
    try:
        payload, csv_rows = _rd_payload(block, seed)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # ratedist rejects bad values with ValueError
        raise ConfigError(f"invalid rd block: {exc}") from exc
    return payload, 0, csv_rows


def _rd_payload(block: dict, seed: int):
    sigma_sq = _finite(block, "sigma_sq")
    b = _finite(block, "b", 0.0)
    payload: dict = {"sigma_sq": sigma_sq, "b": b}
    csv_rows = None
    if "d_team" in block:
        d_team = _finite(block, "d_team")
        rate = ratedist.team_rate_distortion(sigma_sq, d_team)
        tup = ratedist.achievable_tuple(rate, d_team, b)
        payload["team_rate"] = rate
        payload["achievable"] = {"rate": tup.rate, "de": tup.de, "dd": tup.dd}
    if "de" in block and "dd" in block:
        try:
            payload["rate_bound"] = ratedist.game_rate_bound(
                sigma_sq, b, _finite(block, "de"), _finite(block, "dd")
            )
            payload["feasible"] = True
        except InfeasibleDistortionError:
            payload["rate_bound"] = None
            payload["feasible"] = False
    if "n_list" in block:
        if not isinstance(block["n_list"], list):
            raise ConfigError("invalid rd block: rd.n_list must be a list of dimensions")
        rows = ratedist.asymptotic_experiment(
            sigma_sq,
            b,
            _integer(block.get("rate_bits", 1), "rd.rate_bits"),
            [_integer(n, f"rd.n_list[{i}]") for i, n in enumerate(block["n_list"])],
            samples=_integer(block.get("samples", 400_000), "rd.samples"),
            seed=seed,
        )
        payload["asymptotic"] = [
            dict(zip(ratedist.AsymptoticRow.CSV_COLUMNS, r.csv_values())) for r in rows
        ]
        csv_rows = [ratedist.AsymptoticRow.CSV_COLUMNS] + [r.csv_values() for r in rows]
    if len(payload) == 2:
        raise ConfigError("rd block specifies nothing to compute (d_team, de/dd, or n_list)")
    return payload, csv_rows


def _cmd_transform(cfg: dict):
    block = cfg.get("transform")
    if not isinstance(block, dict):
        raise ConfigError("transform needs a 'transform' block")
    kind = block.get("kind")
    if not isinstance(kind, str) or kind not in _TRANSFORM_KEYS:
        raise ConfigError(f"unknown transform kind {kind!r}")
    _known_keys(block, "transform", ("kind", *_TRANSFORM_KEYS[kind]))
    try:
        if kind == "pair2d":
            t = pair_transform_2d(np.asarray(block["bias"], dtype=float))
        elif kind == "helmert":
            n = _integer(block["n"], "transform.n")
            t = helmert_transform(n, bias=float(block.get("bias", 0.0)))
        else:
            t = bias_aligning_transform(np.asarray(block["bias"], dtype=float))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid transform block: {exc}") from exc
    payload = {
        "kind": kind,
        "forward": t.forward,
        "inverse": t.inverse,
        "transformed_bias": t.transformed_bias,
        "scale": t.scale,
        "orthonormal": t.is_orthonormal,
    }
    csv_rows = [tuple(row) for row in t.forward]
    return payload, 0, csv_rows


def _cmd_sweep(cfg: dict):
    block = cfg.get("sweep")
    if not isinstance(block, dict):
        raise ConfigError("sweep needs a 'sweep' block")
    command = block.get("command")
    path = block.get("path")
    values = block.get("values")
    if command not in COMMANDS or command == "sweep":
        raise ConfigError(f"sweep command must be one of {COMMANDS[:-1]}")
    if not isinstance(path, str) or not isinstance(values, list) or not values:
        raise ConfigError("sweep needs a dotted 'path' and a nonempty 'values' list")
    results = []
    status = 0
    for value in values:
        sub = copy.deepcopy(cfg)
        sub.pop("sweep", None)
        set_leaf(sub, path, value)
        payload, code, _ = _COMMAND_TABLE[command](sub)
        results.append({"value": value, "payload": payload, "status": code})
        status = max(status, code)
    payload = {"command": command, "path": path, "points": results}
    csv_rows = _sweep_csv(results, path)
    return payload, status, csv_rows


def _sweep_csv(results: list[dict], path: str):
    scalar_keys = sorted(
        {
            k
            for r in results
            for k, v in r["payload"].items()
            if isinstance(v, (int, float, bool, str)) or v is None
        }
    )
    header = (path, "status", *scalar_keys)
    rows = [header]
    for r in results:
        rows.append(
            (r["value"], r["status"], *[r["payload"].get(k) for k in scalar_keys])
        )
    return rows


_COMMAND_TABLE = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "rd": _cmd_rd,
    "transform": _cmd_transform,
    "sweep": _cmd_sweep,
}


def run_command(command: str, cfg: dict):
    """Dispatch to the command implementation; returns (payload, status, csv_rows)."""
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    try:
        payload, status, csv_rows = run_command(args.command, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BinDeathError, CheapTalkError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - t0

    record = {
        "command": args.command,
        "config_hash": config_hash(cfg),
        "payload": _jsonable(payload),
        "status": status,
    }
    line = (
        '{"command":' + json.dumps(record["command"])
        + ',"config_hash":' + json.dumps(record["config_hash"])
        + ',"payload":' + canonical_json(record["payload"])
        + ',"status":' + str(status)
        + ',"wall_clock_s":' + f"{wall:.6f}" + "}"
    )

    out_path = (cfg.get("output") or {}).get("records")
    if out_path:
        with open(out_path, "a") as fh:
            fh.write(line + "\n")
    print(line)

    if args.csv:
        if csv_rows is None:
            _write_csv(args.csv, [("key", "value"), *sorted(
                (k, v) for k, v in record["payload"].items()
                if isinstance(v, (int, float, str, bool)) or v is None
            )])
        else:
            _write_csv(args.csv, csv_rows)
    return status


if __name__ == "__main__":
    sys.exit(main())
