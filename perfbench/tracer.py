"""Span tracer that wraps cheaptalk's public functions from outside the package.

Every wrapped callable records one span per call: name, start, end, parent
span and the benchmark case it ran under, plus a few per-call attributes
(rows touched, codes returned, ...).  Spans stay in memory; ``dump`` writes
them out once the run has ended.  Nothing inside ``src/`` changes: the
wrappers replace the attribute in every ``cheaptalk`` module namespace that
holds the original object, because modules import each other's functions by
name (``equilibrium`` looks up ``truncated_moments_1d`` and
``assign_actions_batch`` in its own globals, ``ratedist`` looks up
``solve_scalar_biased`` in its own).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _rows(arr) -> int:
    shape = np.shape(arr)
    return int(shape[0]) if len(shape) > 1 else 1


def _first_arg_rows(args, kwargs, result):
    return {"rows": _rows(args[0]) if args else 0}


def _sample_rows(args, kwargs, result):
    return {"rows": int(args[0] if args else kwargs["count"])}


def _apply_rows(args, kwargs, result):
    return {"rows": _rows(args[0] if args else kwargs["p"])}


def _decode_attrs(args, kwargs, result):
    codes = result[1]
    return {"negative_codes": int(np.count_nonzero(codes < 0))}


def _quadrature_attrs(args, kwargs, result):
    return {"cells": int(result[0].shape[0])}


def _fixed_point_attrs(args, kwargs, result):
    return {
        "iterations": int(result.iterations),
        "restarts": int(result.restarts),
        "converged": int(bool(result.converged)),
    }


# (span name, defining module, attribute path, per-call attribute function)
TARGETS = [
    ("sources.truncated_moments_1d", "cheaptalk.sources", "truncated_moments_1d", None),
    ("sources.marginal_ppf", "cheaptalk.sources", "SourceModel.marginal_ppf", None),
    ("sources.SourceModel.sample", "cheaptalk.sources", "SourceModel.sample", _sample_rows),
    ("sources.quadrature_cells", "cheaptalk.sources", "SourceModel.quadrature_cells", _quadrature_attrs),
    ("sources.conditional_mean_curve", "cheaptalk.sources", "conditional_mean_curve", None),
    ("geometry.assign_actions_batch", "cheaptalk.geometry", "assign_actions_batch", _first_arg_rows),
    ("transforms.LinearTransform.apply", "cheaptalk.transforms", "LinearTransform.apply", _apply_rows),
    ("equilibrium.solve_scalar_biased", "cheaptalk.equilibrium", "solve_scalar_biased", None),
    ("equilibrium.best_response_step", "cheaptalk.equilibrium", "best_response_step", None),
    ("equilibrium.solve_fixed_point", "cheaptalk.equilibrium", "solve_fixed_point", _fixed_point_attrs),
    ("equilibrium.construct_reveal_plus_quantize", "cheaptalk.equilibrium",
     "construct_reveal_plus_quantize", None),
    ("equilibrium.decode", "cheaptalk.equilibrium", "QuantizerPolicy.decode", _decode_attrs),
    ("equilibrium.decode", "cheaptalk.equilibrium", "RevealQuantizePolicy.decode", _decode_attrs),
    ("equilibrium.decode_transformed", "cheaptalk.equilibrium",
     "RevealQuantizePolicy.decode_transformed", None),
    ("equilibrium.verify_equilibrium", "cheaptalk.equilibrium", "verify_equilibrium", None),
    ("ratedist.asymptotic_experiment", "cheaptalk.ratedist", "asymptotic_experiment", None),
    ("ratedist.lloyd_max_quantizer", "cheaptalk.ratedist", "lloyd_max_quantizer", None),
]


class Tracer:
    """Collects spans from wrapped callables; ``install``/``uninstall`` patch them."""

    def __init__(self):
        # each span: (name, start, end, parent index, case id, error type, attrs)
        self.spans: list[tuple] = []
        self.case_id: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn, attrs_fn=None, method: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            error = attrs = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                # a tuple of plain values, which the garbage collector stops
                # scanning; a list per span would slow the traced program
                tracer.spans[index] = (name, start, end, parent, tracer.case_id, error, attrs)
            if attrs_fn is not None:
                attrs = attrs_fn(args[1:] if method else args, kwargs, result)
                tracer.spans[index] = (name, start, end, parent, tracer.case_id, None, attrs)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a ``cheaptalk`` module holds it."""
        for name, module_name, path, attrs_fn in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self.span(name, original, attrs_fn, method=True))
                continue
            original = getattr(module, path)
            wrapper = self.span(name, original, attrs_fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "cheaptalk" or mod_name.startswith("cheaptalk.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, case, error, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "case": case, "error": error, "attrs": attrs,
                }) + "\n")


def load_spans(path: str) -> list[list]:
    with open(path) as fh:
        return [[r["name"], r["start"], r["end"], r["parent"], r["case"], r["error"], r["attrs"]]
                for r in map(json.loads, fh)]


# -- aggregation --------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _has_ancestor(spans, index: int, name: str) -> bool:
    return _root_of(spans, index, name) >= 0


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-module metrics from one pass's spans (names as in BENCHMARK.json)."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    attr: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _, _, attrs) in enumerate(spans):
        calls[name] += 1
        own[name] += selfs[i]
        if not _has_ancestor(spans, i, name):  # recursion would count twice
            total[name] += end - start
        for key, value in (attrs or {}).items():
            attr[f"{name}.{key}"] += value

    solve = "equilibrium.solve_scalar_biased"
    top_solves = nested = infeasible = 0
    for i, s in enumerate(spans):
        if s[0] != solve:
            continue
        if _has_ancestor(spans, i, solve):
            nested += 1
        else:
            top_solves += 1
            infeasible += s[5] == "InfeasibleBinCountError"

    verify = "equilibrium.verify_equilibrium"
    # verifies of quantizer policies make no transform calls; average over the rest
    apply_in_verify = 0
    verifies_applying = set()
    for i, s in enumerate(spans):
        if s[0] == "transforms.LinearTransform.apply":
            root = _root_of(spans, i, verify)
            if root >= 0:
                apply_in_verify += 1
                verifies_applying.add(root)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "sources.truncated_moments_1d.calls": calls["sources.truncated_moments_1d"],
        "sources.truncated_moments_1d.s": total["sources.truncated_moments_1d"],
        "sources.truncated_moments_1d.calls_per_solve": ratio(
            calls["sources.truncated_moments_1d"], top_solves),
        "sources.marginal_ppf.calls": calls["sources.marginal_ppf"],
        "sources.marginal_ppf.s": total["sources.marginal_ppf"],
        f"{solve}.calls": calls[solve],
        f"{solve}.nested_calls": nested,
        f"{solve}.infeasible": infeasible,
        f"{solve}.self_s": own[solve],
        "equilibrium.best_response_step.calls": calls["equilibrium.best_response_step"],
        "equilibrium.best_response_step.s": total["equilibrium.best_response_step"],
        "equilibrium.best_response_step.self_s": own["equilibrium.best_response_step"],
        "equilibrium.solve_fixed_point.iterations": attr["equilibrium.solve_fixed_point.iterations"],
        "equilibrium.solve_fixed_point.restarts": attr["equilibrium.solve_fixed_point.restarts"],
        "equilibrium.solve_fixed_point.converged": attr["equilibrium.solve_fixed_point.converged"],
        "geometry.assign_actions_batch.calls": calls["geometry.assign_actions_batch"],
        "geometry.assign_actions_batch.points": attr["geometry.assign_actions_batch.rows"],
        "geometry.assign_actions_batch.s": total["geometry.assign_actions_batch"],
        "sources.SourceModel.sample.calls": calls["sources.SourceModel.sample"],
        "sources.SourceModel.sample.rows": attr["sources.SourceModel.sample.rows"],
        "sources.SourceModel.sample.s": total["sources.SourceModel.sample"],
        "sources.quadrature_cells.s": total["sources.quadrature_cells"],
        "sources.quadrature_cells.cells": attr["sources.quadrature_cells.cells"],
        "sources.conditional_mean_curve.s": total["sources.conditional_mean_curve"],
        "transforms.LinearTransform.apply.calls": calls["transforms.LinearTransform.apply"],
        "transforms.LinearTransform.apply.rows": attr["transforms.LinearTransform.apply.rows"],
        "transforms.LinearTransform.apply.s": total["transforms.LinearTransform.apply"],
        "transforms.LinearTransform.apply.calls_per_verify": ratio(
            apply_in_verify, len(verifies_applying)),
        "equilibrium.decode.calls": calls["equilibrium.decode"],
        "equilibrium.decode.s": total["equilibrium.decode"],
        "equilibrium.decode.negative_codes": attr["equilibrium.decode.negative_codes"],
        "equilibrium.decode_transformed.calls": calls["equilibrium.decode_transformed"],
        "equilibrium.construct_reveal_plus_quantize.s": total["equilibrium.construct_reveal_plus_quantize"],
        f"{verify}.s": total[verify],
        f"{verify}.self_s": own[verify],
        "ratedist.asymptotic_experiment.s": total["ratedist.asymptotic_experiment"],
        "ratedist.lloyd_max_quantizer.s": total["ratedist.lloyd_max_quantizer"],
    }
    return {k: float(v) for k, v in m.items()}


def _root_of(spans, index: int, name: str) -> int:
    """Index of the outermost ancestor span called ``name``."""
    found = -1
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            found = parent
        parent = spans[parent][3]
    return found
