"""The benchmark's workloads: case lists generated from a seed, and their checks.

A workload builds a list of cases from ``--seed``; each case calls the public
cheaptalk API, checks its own output and returns a fingerprint of that
output.  Library calls go through module attributes looked up at call time
(``eq.solve_scalar_biased``), so the tracer's wrappers see them.

The seed draws the scalar biases and the order of every case list.  The
inputs of certificate-checked cases are fixed, as in
``tests/test_acceptance.py``: a check at 3 stderr fails on a correct
equilibrium a few percent of the time, so a drawn sampling seed or bias
turns into false failures (a 15-seed trial of the reveal-verify checks
failed 4 times; a drawn 8-D bias failed its certificate at z = 3.49 once in
ten, and at z = 1.96 to 2.5 under four other certificate seeds).  Lloyd
sweep counts are moreover chaotic in the inputs (98 to 258 sweeps for a 3%
change of the 2-D bias, 173 to 500 over Monte Carlo seeds of the 3-D
gaussian case).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

import cheaptalk
from cheaptalk import classify as cl
from cheaptalk import equilibrium as eq
from cheaptalk import ratedist as rd
from cheaptalk.errors import InfeasibleBinCountError

WORKLOADS = ("scalar-sweep", "lloyd-certify", "reveal-verify", "cli-cold")

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_CONFIG_DIR = os.path.join(HERE, "cli_configs")
CLI_REFERENCE = os.path.join(HERE, "cli_reference.json")


class CheckFailed(Exception):
    """A case's output failed its check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Case:
    """One timed unit of work; ``run`` checks its output and returns a fingerprint."""

    case_id: str
    run: Callable[[], bytes]


def fingerprint(*parts) -> bytes:
    """Exact digest of floats, arrays and strings (float repr round-trips)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode() + str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.digest()


# -- scalar-sweep ---------------------------------------------------------------

# |beta| ranges per family.  Across each range the largest feasible K stays
# put (uniform 3, exponential with negative bias 3, laplace with positive
# bias 6), so every pass runs the re-solve chain of the infeasible path.  The
# ranges are narrow because a sweep's cost moves with beta (a laplace sweep
# took 0.3 to 0.8 s over 0.10..0.13), which would read as run-to-run spread.
SCALAR_BETA_RANGES = {
    "iid-gaussian": (0.10, 0.11),
    "iid-laplace": (0.10, 0.11),
    "iid-exponential": (0.12, 0.13),
    "iid-uniform": (0.06, 0.07),
}
SCALAR_MAX_K = 8


FACTORIES = {
    "iid-gaussian": cheaptalk.iid_gaussian,
    "iid-laplace": cheaptalk.iid_laplace,
    "iid-exponential": cheaptalk.iid_exponential,
    "iid-uniform": cheaptalk.iid_uniform,
}


def uniform_oracle(beta: float, k: int):
    """Closed-form interior boundaries on [0, 1], or None when K is infeasible.

    Interior conditions force consecutive bin lengths to drop by 4*beta.
    """
    d1 = (1.0 + 2.0 * beta * k * (k - 1)) / k
    lengths = [d1 - 4.0 * beta * i for i in range(k)]
    if min(lengths) <= 0.0:
        return None
    return np.cumsum(lengths)[:-1]


def uniform_max_feasible(beta: float) -> int:
    k = 1
    while uniform_oracle(beta, k + 1) is not None:
        k += 1
    return k


_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def _mills(x: float) -> float:
    """Upper-tail probability of a standard normal divided by its density at x."""
    return float(special.erfcx(x / math.sqrt(2.0))) * _SQRT_HALF_PI


def gaussian_bin_mean(a: float, b: float) -> float:
    """E[Z | a < Z < b] for a standard normal Z, stable in either tail."""
    if b <= 0.0:
        return -gaussian_bin_mean(-b, -a)
    if a >= 0.0:
        if math.isinf(b):
            return 1.0 / _mills(a)
        ratio = math.exp(0.5 * (a * a - b * b))  # phi(b) / phi(a)
        return (1.0 - ratio) / (_mills(a) - ratio * _mills(b))
    pa = math.exp(-0.5 * a * a) if math.isfinite(a) else 0.0
    pb = math.exp(-0.5 * b * b) if math.isfinite(b) else 0.0
    mass = 0.5 * (special.erf(b / math.sqrt(2.0)) - special.erf(a / math.sqrt(2.0)))
    return float((pa - pb) / math.sqrt(2.0 * math.pi) / mass)


def exponential_bin_mean(a: float, b: float, rate: float = 1.0) -> float:
    a = max(a, 0.0)
    if math.isinf(b):
        return a + 1.0 / rate
    width = b - a
    return a + 1.0 / rate - width / math.expm1(rate * width)


def laplace_bin_mean(a: float, b: float, mu: float = 0.0, s: float = 1.0) -> float:
    """Mean of a Laplace(mu, s) restricted to [a, b], from its two exponential halves."""
    mass = total = 0.0
    if b > mu:  # right half: weight 1/2, exponential of rate 1/s from mu
        lo = max(a, mu)
        p = 0.5 * (math.exp(-(lo - mu) / s) - (math.exp(-(b - mu) / s) if math.isfinite(b) else 0.0))
        mass += p
        total += p * (mu + exponential_bin_mean(lo - mu, b - mu, 1.0 / s))
    if a < mu:
        hi = min(b, mu)
        p = 0.5 * (math.exp(-(mu - hi) / s) - (math.exp(-(mu - a) / s) if math.isfinite(a) else 0.0))
        mass += p
        total += p * (mu - exponential_bin_mean(mu - hi, mu - a, 1.0 / s))
    return total / mass


BIN_MEANS = {
    "iid-gaussian": gaussian_bin_mean,
    "iid-laplace": laplace_bin_mean,
    "iid-exponential": exponential_bin_mean,
}


def check_scalar_structure(family: str, beta: float, k: int, quant) -> None:
    bounds, acts = np.asarray(quant.boundaries), np.asarray(quant.actions)
    require(bounds.shape == (k + 1,) and acts.shape == (k,), "wrong number of bins")
    require(bool(np.all(np.diff(bounds) > 0.0)), "boundaries not increasing")
    # the models are standardised, so absolute tolerances are relative to the scale
    for i in range(1, k):
        want = 0.5 * (acts[i - 1] + acts[i]) + beta
        require(abs(bounds[i] - want) <= 1e-9,
                f"boundary {i} misses (u_i + u_i+1)/2 + beta by {bounds[i] - want:.3g}")
    mean_of = BIN_MEANS[family]
    for j in range(k):
        want = mean_of(float(bounds[j]), float(bounds[j + 1]))
        require(abs(acts[j] - want) <= 1e-7,
                f"action {j} is {acts[j] - want:.3g} away from its bin mean")


def scalar_sweep_cases(seed: int) -> list[Case]:
    """One case per (family, beta): the K = 1..8 sweep, as a user sweeps bin counts."""
    rng = random.Random(seed)
    groups = []
    for family, (lo, hi) in SCALAR_BETA_RANGES.items():
        for sign in (1.0, -1.0):
            groups.append((family, sign * rng.uniform(lo, hi)))
    rng.shuffle(groups)
    return [Case(f"scalar/{family}/{beta:+.4f}", _scalar_case(FACTORIES[family](1), family, beta))
            for family, beta in groups]


def _scalar_case(model, family: str, beta: float):
    def run() -> bytes:
        parts, max_ok = [], 0
        for k in range(1, SCALAR_MAX_K + 1):
            try:
                quant = eq.solve_scalar_biased(model, beta, k)
            except InfeasibleBinCountError as exc:
                # the largest feasible K: closed form for uniform, else the
                # largest K this sweep solved
                want = uniform_max_feasible(beta) if family == "iid-uniform" else max_ok
                require(family != "iid-uniform" or uniform_oracle(beta, k) is None,
                        f"K={k}: feasible K reported infeasible")
                require(exc.max_feasible == want,
                        f"K={k}: max_feasible {exc.max_feasible}, expected {want}")
                parts.append(("infeasible", exc.requested, exc.max_feasible))
                continue
            require(max_ok == k - 1, f"K={k} solved after a smaller K was infeasible")
            if family == "iid-uniform":
                oracle = uniform_oracle(beta, k)
                require(oracle is not None, f"K={k}: infeasible K solved")
                inner = np.asarray(quant.boundaries[1:-1])
                require(inner.shape == oracle.shape and bool(np.all(np.abs(inner - oracle) <= 1e-9)),
                        f"K={k}: uniform boundaries miss the closed-form recursion")
            else:
                check_scalar_structure(family, beta, k, quant)
            max_ok = k
            parts += [quant.boundaries, quant.actions]
        return fingerprint(*parts)

    return run


# -- lloyd-certify ----------------------------------------------------------------

LLOYD_CERT_SAMPLES = 200_000
LLOYD_CERT_SEED = 99


def lloyd_certify_cases(seed: int) -> list[Case]:
    specs = [
        # 2-D quadrature: 250 x 250 exact cells; ~100 sweeps
        ("lloyd/gauss2d-quad", cheaptalk.iid_gaussian(2), [1.0, 0.5], 3,
         eq.SolverConfig(samples=62_500, seed=42)),
        # 3-D Monte Carlo: the drifting case, hundreds of sweeps
        ("lloyd/gauss3d-mc", cheaptalk.iid_gaussian(3), [0.3, 0.2, 0.1], 4,
         eq.SolverConfig(samples=200_000, seed=42)),
        # ~20 sweeps; the smallest case, so that the median case is the 2-D one
        ("lloyd/laplace3d-mc", cheaptalk.iid_laplace(3), [1.0, 0.0, 0.0], 3,
         eq.SolverConfig(samples=100_000, seed=42)),
    ]
    cases = [Case(case_id, _lloyd_case(model, np.asarray(b), k, cfg))
             for case_id, model, b, k, cfg in specs]
    random.Random(seed).shuffle(cases)
    return cases


def _lloyd_case(model, b, k, config):
    def run() -> bytes:
        result = eq.solve_fixed_point(model, b, k, config)
        require(result.converged, f"no convergence after {result.iterations} sweeps")
        require(result.actions.k == k, "actions merged")
        policy = eq.QuantizerPolicy(result.actions, b)
        cert = eq.verify_equilibrium(policy, model, b, samples=LLOYD_CERT_SAMPLES,
                                     seed=LLOYD_CERT_SEED)
        require(cert.passed, f"certificate failed: {cert.to_dict()}")
        return fingerprint(result.actions.actions, result.iterations, result.restarts,
                           json.dumps(cert.to_dict(), sort_keys=True))

    return run


# -- reveal-verify ------------------------------------------------------------------

REVEAL_SAMPLES = 1_000_000
GAP_SAMPLES = 200_000
TWO_LEVEL_GAUSSIAN_DISTORTION = 1.0 - 2.0 / math.pi

LINEAR_FIXTURES = [  # (family, bias, linear equilibrium exists)
    ("iid-gaussian", [1.0, 2.0], "yes"),
    ("iid-exponential", [1.0, 1.0], "no"),
    ("iid-uniform", [1.0, -1.0], "yes"),
    ("iid-exponential", [0.0, 3.0], "yes"),
    ("iid-exponential", [1.0, 2.0], "no"),
]


def check_distortion_gap(policy, model, b, seed: int) -> None:
    """Je - Jd must equal ||b||^2 within 3 stderr on an independent sample."""
    m = model.sample(GAP_SAMPLES, seed)
    u, _ = policy.decode(m)
    gap = np.sum((m - u - b) ** 2, axis=1) - np.sum((m - u) ** 2, axis=1)
    se = gap.std(ddof=1) / math.sqrt(gap.shape[0])
    require(abs(gap.mean() - float(b @ b)) <= 3.0 * se,
            f"Je - Jd = {gap.mean():.6g}, ||b||^2 = {float(b @ b):.6g}, stderr {se:.3g}")


def _reveal_case(model, b, k_last, gap_seed):
    def run() -> bytes:
        policy = eq.construct_reveal_plus_quantize(model, b, k_last, grid_levels=1024)
        cert = eq.verify_equilibrium(policy, model, b, samples=REVEAL_SAMPLES, seed=99)
        require(cert.passed, f"certificate failed: {cert.to_dict()}")
        check_distortion_gap(policy, model, b, gap_seed)
        return fingerprint(json.dumps(cert.to_dict(), sort_keys=True), policy.last_boundaries)

    return run


def _planted_case():
    model = cheaptalk.iid_gaussian(2)
    b = np.array([1.0, 0.0])
    policy = eq.QuantizerPolicy(eq.ActionSet(np.array([[0.0, 0.0], [1.0, 0.0]])), b)

    def run() -> bytes:
        cert = eq.verify_equilibrium(policy, model, b, samples=REVEAL_SAMPLES, seed=99)
        require(not cert.passed, "planted violation passed its certificate")
        return fingerprint(json.dumps(cert.to_dict(), sort_keys=True))

    return run


def _linear_case(family, b, exists):
    model = FACTORIES[family](2)

    def run() -> bytes:
        rep = eq.verify_linear_equilibrium(model, b, samples=REVEAL_SAMPLES, seed=77)
        if exists == "yes":
            require(rep.constancy_max_z <= 3.0, f"constancy z {rep.constancy_max_z:.3g} > 3")
        else:
            require(rep.constancy_max_z > 5.0, f"constancy z {rep.constancy_max_z:.3g} <= 5")
        return fingerprint(json.dumps(rep.to_dict(), sort_keys=True))

    return run


def _classify_table_case():
    table = [(FACTORIES[f](2), b, exists) for f, b, exists in LINEAR_FIXTURES]

    def run() -> bytes:
        verdicts = []
        for model, b, exists in table:
            verdict = cl.classify_linear_existence(model, b)
            require(verdict.exists == exists, f"{model.family} {b}: {verdict.exists}")
            verdicts.append(json.dumps(verdict.to_dict(), sort_keys=True))
        return fingerprint(*verdicts)

    return run


def _asymptotic_case():
    def run() -> bytes:
        rows = rd.asymptotic_experiment(1.0, 1.0, 1, [4, 16, 64], samples=400_000, seed=42)
        for row in rows:
            exact = ((row.n - 1) * TWO_LEVEL_GAUSSIAN_DISTORTION + 1.0) / row.n
            require(abs(row.jd_exact - exact) <= 1e-9, f"n={row.n}: Jd_exact {row.jd_exact}")
            require(abs(row.jd_emp - row.jd_exact) <= 3.0 * row.jd_stderr,
                    f"n={row.n}: Jd_emp {row.jd_emp} not within 3 stderr of {row.jd_exact}")
        return fingerprint(*[r.csv_values() for r in rows])

    return run


def reveal_verify_cases(seed: int) -> list[Case]:
    # general 8-D bias: every component nonzero, no two magnitudes equal
    b8 = np.array([0.9, -0.8, 0.7, -0.6, 0.5, -0.4, 0.3, -0.2])
    g2, b2 = cheaptalk.iid_gaussian(2), np.array([1.0, 1.0])
    cases = [Case(f"reveal/gauss2d/k{k}", _reveal_case(g2, b2, k, 600 + k)) for k in (1, 2, 3, 4)]
    cases.append(Case("reveal/gauss8d/k3", _reveal_case(cheaptalk.iid_gaussian(8), b8, 3, 700)))
    cases.append(Case("reveal/planted-violation", _planted_case()))
    cases += [Case(f"linear/{f}/{b[0]:g},{b[1]:g}", _linear_case(f, b, e))
              for f, b, e in LINEAR_FIXTURES[:4]]
    cases.append(Case("linear/classify-table", _classify_table_case()))
    cases.append(Case("ratedist/asymptotic", _asymptotic_case()))
    random.Random(seed).shuffle(cases)
    return cases


# -- cli-cold ----------------------------------------------------------------------

def cli_payload(stdout: str) -> tuple[dict, str]:
    """(record, exact payload text) from the CLI's one-line JSON record."""
    line = stdout.strip().splitlines()[-1]
    record = json.loads(line)
    start = line.index('"payload":') + len('"payload":')
    end = line.rindex(',"status":')
    return record, line[start:end]


def _reject_constant(token: str):
    raise CheckFailed(f"payload contains {token}")


def cli_cold_cases(seed: int, run_cli: Callable) -> list[Case]:
    """One cold CLI process per config; ``run_cli(command, path)`` starts it
    and returns (exit code, stdout, stderr)."""
    with open(CLI_REFERENCE) as fh:
        reference = json.load(fh)
    names = sorted(reference)
    random.Random(seed).shuffle(names)
    return [Case(f"cli/{name}", _cli_case(name, reference[name], run_cli)) for name in names]


def _cli_case(name: str, ref: dict, run_cli: Callable):
    path = os.path.join(CLI_CONFIG_DIR, name)

    def run() -> bytes:
        code, stdout, stderr = run_cli(ref["command"], path)
        require(code == ref["exit"], f"exit code {code}, expected {ref['exit']}: {stderr.strip()}")
        record, payload = cli_payload(stdout)
        json.loads(payload, parse_constant=_reject_constant)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        require(digest == ref["payload_sha256"], f"payload hash {digest} differs from the reference")
        require(record["status"] == ref["exit"], "record status differs from the exit code")
        return fingerprint(payload)

    return run


# -- warm-up -----------------------------------------------------------------------


def warm_up() -> None:
    """Touch every entry point once on tiny inputs so lazy set-up is paid
    before the first timed case."""
    eq.solve_scalar_biased(cheaptalk.iid_gaussian(1), 0.1, 2)
    g2 = cheaptalk.iid_gaussian(2)
    res = eq.solve_fixed_point(g2, [1.0, 0.5], 2, eq.SolverConfig(samples=2_000, max_iterations=3))
    eq.verify_equilibrium(eq.QuantizerPolicy(res.actions, [1.0, 0.5]), g2, [1.0, 0.5], samples=2_000)
    policy = eq.construct_reveal_plus_quantize(g2, [1.0, 1.0], 2, grid_levels=16)
    eq.verify_equilibrium(policy, g2, [1.0, 1.0], samples=2_000)
    eq.verify_linear_equilibrium(g2, [1.0, 2.0], samples=20_000)
    rd.asymptotic_experiment(1.0, 1.0, 1, [4], samples=1_000)


IN_PROCESS = {
    "scalar-sweep": scalar_sweep_cases,
    "lloyd-certify": lloyd_certify_cases,
    "reveal-verify": reveal_verify_cases,
}
