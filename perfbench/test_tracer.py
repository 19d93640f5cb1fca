"""Tracing must not change what the library computes.

    python3 -m pytest perfbench/test_tracer.py

Runs a cheap slice of the benchmark's cases untraced and then traced, and
requires byte-identical output fingerprints.
"""

import math

import cheaptalk
from cheaptalk import equilibrium as eq
from cheaptalk import sources

import workloads as wl
from tracer import Tracer, self_times, summarize
from worker import run_pass


def cheap_cases():
    scalar = [c for c in wl.scalar_sweep_cases(7) if "gaussian" not in c.case_id]
    reveal = [c for c in wl.reveal_verify_cases(7)
              if c.case_id in ("reveal/planted-violation", "linear/classify-table",
                               "ratedist/asymptotic")]
    return scalar + reveal


def test_tracing_leaves_results_byte_identical():
    cases = cheap_cases()
    _, _, plain_failures, plain = run_pass(cases)
    tracer = Tracer()
    tracer.install()
    try:
        _, _, traced_failures, traced = run_pass(cases, tracer)
    finally:
        tracer.uninstall()
    assert plain_failures == [] and traced_failures == []
    assert plain == traced
    metrics = summarize(tracer.spans)
    assert metrics["sources.truncated_moments_1d.calls"] > 0
    assert metrics["equilibrium.solve_scalar_biased.infeasible"] > 0
    assert metrics["equilibrium.decode.calls"] > 0
    assert math.isclose(sum(self_times(tracer.spans)),
                        sum(s[2] - s[1] for s in tracer.spans if s[3] < 0))


def test_uninstall_restores_every_binding():
    before = (eq.truncated_moments_1d, sources.truncated_moments_1d,
              cheaptalk.solve_scalar_biased, sources.SourceModel.__dict__["sample"])
    tracer = Tracer()
    tracer.install()
    assert eq.truncated_moments_1d is not before[0]
    assert eq.truncated_moments_1d is sources.truncated_moments_1d
    tracer.uninstall()
    after = (eq.truncated_moments_1d, sources.truncated_moments_1d,
             cheaptalk.solve_scalar_biased, sources.SourceModel.__dict__["sample"])
    assert all(a is b for a, b in zip(before, after))
