"""Benchmark launcher for cheaptalk.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It pins the BLAS/OpenMP thread pools
to one thread (a plain single-threaded baseline, within the machine's
``nproc``), puts ``src/`` on ``PYTHONPATH`` and starts ``worker.py``:

* ``--trace 0`` times passes over the workload's case list for about S
  seconds, plus four extra cold set-ups, and prints the end-to-end metrics;
* ``--trace 1`` runs one untraced and one traced pass, plus three cold
  ``-X importtime`` imports, and prints the per-module metrics.

Workloads are described in ``workloads.py`` and ``BENCHMARK.json``.  The
last line of standard output is the result object; the line before it holds
the run's details (versions, sample counts, tail percentile, failures).
Spans of traced runs are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scalar-sweep", "lloyd-certify", "reveal-verify", "cli-cold")
SETUP_PROBES = 4
IMPORT_PROBES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, root: str, env: dict, deadline: float, setup_only: bool) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--root", root, "--out-dir", os.path.join(HERE, "out")]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--spawn-time", repr(time.time())]
    # its own session, so that a timeout also ends the CLI processes it started
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def parse_import_times(stderr: str) -> dict:
    """Cumulative seconds of ``cheaptalk`` and of ``scipy.stats`` from ``-X importtime``.

    ``from scipy import stats`` goes through scipy's lazy loader and prints
    no line of its own, so scipy.stats time is the sum over the outermost
    ``scipy.stats*`` lines.  Lines come children first; a line's parent is
    the next line one level shallower.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) / 1e6))
    cheaptalk_s = stats_s = 0.0
    for i, (depth, name, cumulative) in enumerate(entries):
        if name == "cheaptalk":
            cheaptalk_s = cumulative
        if not name.startswith("scipy.stats"):
            continue
        parent = next((n for d, n, _ in entries[i + 1:] if d == depth - 1), "")
        if not parent.startswith("scipy.stats"):
            stats_s += cumulative
    return {"import.cheaptalk_s": cheaptalk_s, "import.scipy_stats_s": stats_s}


def import_times(root: str, env: dict) -> dict:
    """Import metrics, each the median over cold interpreters."""
    runs = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cheaptalk"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import cheaptalk failed:\n{proc.stderr[-2000:]}")
        runs.append(parse_import_times(proc.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it.

    Below 100 samples that percentile would fall under the 90th, so the
    90th (nearest rank) is reported instead; at 10 samples or fewer that is
    the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(math.ceil(0.9 * n) - 1, n - 11)
    return ordered[index], 100.0 * (index + 1) / n


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_fraction"):
        return "fraction"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cheaptalk", "__init__.py")):
        print("run.py: no src/cheaptalk here; run it from the root of a cheaptalk checkout",
              file=sys.stderr)
        return 2
    env = child_env(root)

    try:
        setups = []
        if not args.trace:
            setups = [start_worker(args, root, env, deadline, True)["setup_s"]
                      for _ in range(SETUP_PROBES)]
        result = start_worker(args, root, env, deadline, False)
        imports = import_times(root, env) if args.trace else {}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    failures = result["failures"]
    failed = len(failures)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "threads": 1, "python": result["python"],
        "numpy": result["numpy"], "scipy": result["scipy"],
        "cases_per_pass": result["cases"], "failures": failures,
    }
    if args.trace:
        metrics = {**imports, **result["metrics"]}
        correct = not failures and result["identical"]
        if not result["identical"]:
            failures.append("tracing changed a result")
    else:
        setups.append(result["setup_s"])
        tail_value, tail_pct = tail(result["case_s"])
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(result["pass_s"]),
            "case_tail_s": tail_value,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        details.update({
            "passes": len(result["pass_s"]), "pass_s_all": result["pass_s"],
            "case_samples": len(result["case_s"]), "case_tail_percentile": tail_pct,
            # short cases inherit the host's drift, so the median case stays off the gate
            "case_p50_s": statistics.median(result["case_s"]),
            "setup_s_all": setups, "case_s_median": result["case_s_median"],
            "failed_fraction": failed / result["attempted"],
        })
        correct = not failures
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
