"""One benchmark process: set up a workload, run timed or traced passes, report JSON.

Started by ``run.py`` with the thread pins and ``PYTHONPATH`` already set;
the launcher passes its wall-clock time at spawn so that set-up time covers
the cold interpreter too.  The last line of standard output is this
process's result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import workloads as wl
from tracer import Tracer, load_spans, self_times, summarize

HERE = os.path.dirname(os.path.abspath(__file__))


def run_pass(cases, tracer: Tracer | None = None):
    """Run every case once; returns (pass seconds, case seconds, failures, digests)."""
    times, failures, digests = [], [], []
    start = time.perf_counter()
    for case in cases:
        run = case.run
        if tracer is not None:
            tracer.case_id = case.case_id
            run = tracer.span("case", case.run)
        t0 = time.perf_counter()
        try:
            digests.append(run().hex())
        except wl.CheckFailed as exc:
            failures.append(f"{case.case_id}: {exc}")
            digests.append("failed")
        except Exception as exc:  # an exception the case should not raise
            failures.append(f"{case.case_id}: {type(exc).__name__}: {exc}")
            digests.append("error")
        times.append(time.perf_counter() - t0)
    return time.perf_counter() - start, times, failures, digests


class CliRunner:
    """Starts one cold CLI process per call and keeps its timings."""

    def __init__(self, root: str):
        self.root = root
        self.span_dir: str | None = None  # set: run under the tracer, spans here
        self.process_s: list[float] = []
        self.record_wall_s: list[float] = []
        self.span_files: list[tuple[str, str]] = []

    def __call__(self, command: str, config: str):
        if self.span_dir is None:
            argv = [sys.executable, "-m", "cheaptalk.cli", command, "--config", config]
        else:
            spans = os.path.join(self.span_dir, f"cli-{len(self.span_files)}.jsonl")
            self.span_files.append((os.path.basename(config), spans))
            argv = [sys.executable, os.path.join(HERE, "cli_trace.py"), spans,
                    command, "--config", config]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=self.root, capture_output=True, text=True, timeout=120)
        self.process_s.append(time.perf_counter() - t0)
        try:
            record, _ = wl.cli_payload(proc.stdout)
            self.record_wall_s.append(float(record["wall_clock_s"]))
        except (ValueError, IndexError, KeyError):
            pass
        return proc.returncode, proc.stdout, proc.stderr


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def timed_run(cases, seconds: float):
    """Passes until another one would end after ``seconds``; at least one."""
    passes, case_times, failures, attempted = [], [], [], 0
    by_case = {case.case_id: [] for case in cases}
    start = time.perf_counter()
    while True:
        pass_s, times, failed, _ = run_pass(cases)
        passes.append(pass_s)
        case_times += times
        for case, t in zip(cases, times):
            by_case[case.case_id].append(t)
        failures += failed
        attempted += len(cases)
        if time.perf_counter() - start + statistics.median(passes) > seconds:
            break
    return {"pass_s": passes, "case_s": case_times, "failures": failures, "attempted": attempted,
            "case_s_median": {k: statistics.median(v) for k, v in by_case.items()}}


def traced_run(cases, cli: CliRunner | None, span_dir: str):
    """An untraced pass, then a traced one; per-module metrics from the latter."""
    plain_s, _, failures, plain_digests = run_pass(cases)
    tracer = Tracer()
    cli_metrics = {"cli.process_s": 0.0, "cli.record_wall_s": 0.0, "cli.outside_run_s": 0.0}
    if cli is not None:  # from the untraced pass; the traced one traces inside each process
        process_s, record_s = sum(cli.process_s), sum(cli.record_wall_s)
        cli_metrics = {"cli.process_s": process_s, "cli.record_wall_s": record_s,
                       "cli.outside_run_s": process_s - record_s}
        cli.span_dir = span_dir
    else:
        tracer.install()
    try:
        traced_s, _, traced_failures, traced_digests = run_pass(cases, tracer)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    if cli is not None:
        spans = merge_cli_spans(spans, cli.span_files)
    tracer.spans = spans
    tracer.dump(os.path.join(span_dir, "spans.jsonl"))

    metrics = summarize(spans)
    metrics.update(cli_metrics)
    metrics.update({
        "trace_overhead_frac": traced_s / plain_s - 1.0,
        # the case spans are the roots, so this is traced case time over untraced pass time
        "trace.self_sum_frac": sum(self_times(spans)) / plain_s,
        "failed_fraction": (len(failures) + len(traced_failures)) / (2 * len(cases)),
    })
    return {"metrics": metrics, "failures": failures + traced_failures,
            "attempted": 2 * len(cases), "identical": plain_digests == traced_digests}


def merge_cli_spans(case_spans: list[list], span_files) -> list[list]:
    """Hang each CLI process's spans under the harness span of its case."""
    merged = [list(s) for s in case_spans]
    roots = {s[4]: i for i, s in enumerate(merged) if s[0] == "case"}
    for config, path in span_files:
        if not os.path.exists(path):
            continue
        root = roots[f"cli/{config}"]
        offset = len(merged)
        for span in load_spans(path):
            span[3] = root if span[3] < 0 else span[3] + offset
            span[4] = f"cli/{config}"
            merged.append(span)
    return merged


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    cli = None
    if args.workload == "cli-cold":
        cli = CliRunner(args.root)
        cases = wl.cli_cold_cases(args.seed, cli)
    else:
        cases = wl.IN_PROCESS[args.workload](args.seed)
        wl.warm_up()
    setup_s = time.time() - args.spawn_time
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if args.trace:
            span_dir = os.path.join(args.out_dir, f"{args.workload}-seed{args.seed}")
            os.makedirs(span_dir, exist_ok=True)
            result.update(traced_run(cases, cli, span_dir))
        else:
            result.update(timed_run(cases, args.seconds))
        result.update({
            "peak_rss_mb": peak_rss_mb(args.workload),
            "cases": len(cases),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
