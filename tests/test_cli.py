import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
EXAMPLES = sorted(path.name for path in (ROOT / "configs").glob("*.json"))


def run_process(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cheaptalk.cli", *args],
        capture_output=True, text=True, env=env,
    )


def run_cli(*args, env_extra=None):
    proc = run_process(*args, env_extra=env_extra)
    record = None
    if proc.stdout.strip():
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, record, proc.stderr


def write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


@pytest.fixture
def classify_config(tmp_path):
    return write_config(tmp_path, "classify.json", {
        "source": {"family": "iid-uniform", "dim": 2, "lo": 0.0, "hi": 1.0},
        "bias": [1.0, -1.0],
    })


@pytest.fixture
def planted_config(tmp_path):
    return write_config(tmp_path, "planted.json", {
        "source": {"family": "iid-gaussian", "dim": 2, "sigma_sq": 1.0},
        "bias": [1.0, 0.0],
        "policy": {"kind": "quantizer", "actions": [[0.0, 0.0], [1.0, 0.0]]},
        "solver": {"samples": 40000},
    })


class TestExitCodes:
    def test_classify_exists_is_zero(self, classify_config):
        code, record, err = run_cli("classify", "--config", classify_config)
        assert code == 0 and err == ""
        assert record["payload"]["exists"] == "yes"
        assert record["payload"]["theorem_case"] == "antisymmetric-bias"

    def test_classify_not_exists_is_one(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "source": {"family": "iid-exponential", "dim": 2, "rate": 1.0},
            "bias": [1.0, 1.0],
        })
        code, record, _ = run_cli("classify", "--config", cfg)
        assert code == 1
        assert record["payload"]["exists"] == "no"

    def test_classify_correlated_gaussian(self, tmp_path):
        cfg = write_config(tmp_path, "corr.json", {
            "source": {"family": "correlated-gaussian-2d",
                        "sigma1_sq": 1.0, "sigma2_sq": 2.0, "rho": 2.0 / 3.0},
            "bias": [1.0, 2.0],
        })
        code, record, _ = run_cli("classify", "--config", cfg)
        assert code == 0
        assert record["payload"]["exists"] == "yes"
        assert abs(record["payload"]["evidence"]["eq_residual"]) < 1e-12
        # a failing condition is sufficient-only: undetermined, still exit 0
        cfg2 = write_config(tmp_path, "corr2.json", {
            "source": {"family": "correlated-gaussian-2d",
                        "sigma1_sq": 1.0, "sigma2_sq": 2.0, "rho": 0.0},
            "bias": [1.0, 1.0],
        })
        code2, record2, _ = run_cli("classify", "--config", cfg2)
        assert code2 == 0
        assert record2["payload"]["exists"] == "undetermined"

    def test_verification_failure_is_one(self, planted_config):
        code, record, _ = run_cli("verify", "--config", planted_config)
        assert code == 1
        assert record["payload"]["min_pairwise_geo_slack"] < 0

    def test_verification_failure_says_which_checks_failed(self):
        # one line per failing check, with the statistic its verdict reads
        # and the threshold that statistic crossed
        config = str(ROOT / "configs" / "verify_planted_violation.json")
        code, record, err = run_cli("verify", "--config", config)
        assert code == 1
        payload = record["payload"]
        assert payload["pass_deviation"] is True
        assert err.splitlines() == [
            "verify failed the geometry check: min_pairwise_geo_slack "
            f"{payload['min_pairwise_geo_slack']:.6g}, needs >= -1e-06",
            "verify failed the centroid check: centroid_max_z "
            f"{payload['centroid_max_z']:.6g}, needs <= 3",
        ]
        assert "deviation" not in err

    @pytest.mark.parametrize("bias, want", [
        ("[1,1]", "theorem_case symmetry-required, source family iid-exponential (analytic), "
                  "symmetry_deviation 0.864664"),
        ("[1,2]", "theorem_case gaussian-required, source family iid-exponential (analytic)"),
    ])
    def test_classify_answering_no_says_why(self, bias, want):
        config = str(ROOT / "configs" / "classify_uniform_antisym.json")
        code, record, err = run_cli("classify", "--config", config,
                                    '--source={"family":"iid-exponential","dim":2}', f"--bias={bias}")
        assert code == 1 and record["payload"]["exists"] == "no"
        assert err.splitlines() == [f"classify answered no: {want}"]
        if "symmetry_deviation" in want:
            assert want.endswith(f"{record['payload']['evidence']['symmetry_deviation']:.6g}")

    def test_classify_at_the_largest_bias(self):
        # the bias case is decided without forming b1 + b2, which overflows here
        config = str(ROOT / "configs" / "classify_uniform_antisym.json")
        code, record, err = run_cli("classify", "--config", config, "--bias=-1e308")
        assert code == 0, err
        assert record["payload"]["theorem_case"] == "symmetry-required"
        assert "Traceback" not in err

    def test_malformed_source_is_two_without_output(self, tmp_path):
        out = tmp_path / "records.jsonl"
        cfg = write_config(tmp_path, "bad.json", {
            "source": {"family": "not-a-family"},
            "bias": [1.0, 1.0],
            "output": {"records": str(out)},
        })
        code, record, err = run_cli("classify", "--config", cfg)
        assert code == 2
        assert record is None
        assert "source" in err or "family" in err
        assert not out.exists()

    @pytest.mark.parametrize("samples", [0, 1])
    def test_verify_with_too_few_samples_is_two(self, tmp_path, samples):
        # one sample has no standard error; zero would fail inside the sampler
        out = tmp_path / "records.jsonl"
        cfg = write_config(tmp_path, "few.json", {
            "source": {"family": "iid-gaussian", "dim": 2, "sigma_sq": 1.0},
            "bias": [1.0, 1.0],
            "policy": {"kind": "reveal-quantize", "k_last": 2},
            "solver": {"samples": samples},
            "output": {"records": str(out)},
        })
        code, record, err = run_cli("verify", "--config", cfg)
        assert code == 2
        assert record is None
        assert "solver.samples" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("override, field", [
        ("--solver.tolerance=0", "tolerance"),
        ("--solver.tolerance=nan", "tolerance"),
        ("--solver.max_iterations=0", "max_iterations"),
        ("--solver.k=0", "k"),
        ("--solver.samples=0", "samples"),
        ("--solver.samples=-1", "samples"),
        ("--solver.k=2.7", "k"),
        ("--solver.k=2.5", "k"),
        ("--solver.k=true", "k"),
        ("--solver.samples=1000.9", "samples"),
        ("--solver.grid_levels=16.5", "grid_levels"),
        ("--solver.seed=3.9", "seed"),
        ("--solver.seed=-1", "seed"),
    ])
    def test_solve_with_bad_solver_value_is_two(self, override, field):
        config = str(ROOT / "configs" / "solve_uniform_k3.json")
        code, record, err = run_cli("solve", "--config", config, override)
        assert code == 2
        assert record is None
        assert f"solver.{field} " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("config, override, field", [
        ("tabulated", "--solver.seed=-1", "seed"),
        ("tabulated", "--solver.samples=1", "samples"),
        ("classify_uniform_antisym.json", "--solver.seed=-1", "seed"),  # an analytic verdict
        ("classify_uniform_antisym.json", "--solver.samples=1", "samples"),
    ])
    def test_classify_with_bad_solver_value_is_two(self, tmp_path, config, override, field):
        if config == "tabulated":
            # bias components nonzero and unequal: the verdict reads a sample
            csv_path = tmp_path / "table.csv"
            cells = [f"{(i + 0.5) / 10},{(j + 0.5) / 10},1.0" for i in range(10) for j in range(10)]
            csv_path.write_text("x1,x2,density\n" + "\n".join(cells) + "\n")
            config = write_config(tmp_path, "tab.json", {
                "source": {"family": "tabulated-density", "csv": str(csv_path)},
                "bias": [0.3, 0.1],
            })
            assert run_cli("classify", "--config", config)[0] == 0
        else:
            config = str(ROOT / "configs" / config)
        code, record, err = run_cli("classify", "--config", config, override)
        assert code == 2
        assert record is None
        assert f") {field} must be a whole number" in err
        assert "Traceback" not in err

    def test_classify_reads_every_sample_it_is_given(self, tmp_path):
        # a tabulated verdict reads solver.samples as the library does, past 400,000 too
        from cheaptalk.classify import classify_linear_existence
        from cheaptalk.cli import build_source

        w = [[1.0 + i * j / 50 for j in range(10)] for i in range(10)]
        total = sum(map(sum, w)) / 100
        csv_path = tmp_path / "table.csv"
        csv_path.write_text("x1,x2,density\n" + "".join(
            f"{(i + 0.5) / 10},{(j + 0.5) / 10},{w[i][j] / total!r}\n"
            for i in range(10) for j in range(10)))
        source = {"family": "tabulated-density", "csv": str(csv_path)}
        config = write_config(tmp_path, "tab.json", {"source": source, "bias": [0.3, 0.1]})
        code, record, _ = run_cli("classify", "--config", config, "--solver.samples=500000")
        verdict = classify_linear_existence(build_source(source), [0.3, 0.1], samples=500_000,
                                            seed=42)
        assert code == 0 and verdict.exists == "undetermined"
        assert record["payload"] == verdict.to_dict()

    @pytest.mark.parametrize("override, field", [
        ("--solver.seed=-1", "seed"),
        ("--solver.samples=1", "samples"),
    ])
    def test_classify_correlated_gaussian_with_bad_solver_value_is_two(self, override, field):
        # the correlated verdict is closed-form, yet the leaves are read as on every family
        config = str(ROOT / "configs" / "classify_uniform_antisym.json")
        source = '--source={"family":"correlated-gaussian-2d","sigma1_sq":1,"sigma2_sq":2,"rho":0.5}'
        assert run_cli("classify", "--config", config, source)[0] == 0
        code, record, err = run_cli("classify", "--config", config, source, override)
        assert code == 2
        assert record is None
        assert f") {field} must be a whole number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("source, bias", [
        ('--source={"family":"iid-gaussian","dim":3}', "--bias=[1,2,3]"),
        ('--source={"family":"iid-uniform","dim":1}', "--bias=[1]"),
    ])
    def test_classify_of_a_source_not_2d_blames_the_source(self, source, bias):
        config = str(ROOT / "configs" / "classify_uniform_antisym.json")
        code, record, err = run_cli("classify", "--config", config, source, bias)
        assert code == 2
        assert record is None
        assert "invalid source block: classification is defined for 2-D sources" in err
        assert "solver" not in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, config", [
        ("solve", "solve_uniform_k3.json"),
        ("verify", "verify_reveal_quantize.json"),
    ])
    def test_singular_correlated_gaussian_blames_rho(self, command, config):
        # rho^2 = sigma1_sq sigma2_sq has no density: the source block is at fault
        config = str(ROOT / "configs" / config)
        source = '--source={"family":"correlated-gaussian-2d","sigma1_sq":1,"sigma2_sq":1,"rho":1}'
        code, record, err = run_cli(command, "--config", config, source, "--bias=[0.5,0.2]")
        assert code == 2 and record is None
        assert err.startswith("config error: invalid source block: rho ")
        assert "solver" not in err and "Traceback" not in err

    def test_solve_stopped_by_the_cap_says_why(self):
        config = str(ROOT / "configs" / "solve_uniform_k3.json")
        code, record, err = run_cli("solve", "--config", config, "--solver.max_iterations=2")
        assert code == 3
        payload = record["payload"]
        assert payload["converged"] is False and payload["iterations"] == 2
        assert "stop_reason" not in payload
        assert err.splitlines() == [
            f"solve did not converge: stop reason 'cap' after 2 sweeps, "
            f"last movement {payload['final_movement']:.6g}"
        ]
        code, record, err = run_cli("solve", "--config", config)
        assert code == 0 and err == ""

    def test_solve_with_replaced_solver_block(self):
        # an override may replace the whole block: one that is not an object
        # is a config error, a partial one takes the defaults it leaves out
        config = str(ROOT / "configs" / "solve_uniform_k3.json")
        code, record, err = run_cli("solve", "--config", config, "--solver=5")
        assert code == 2 and record is None and "solver must be an object" in err
        assert "Traceback" not in err
        code, record, err = run_cli("solve", "--config", config, '--solver={"k":2}',
                                    "--solver.samples=1000")
        assert code == 0 and record["payload"]["k"] == 2, err

    @pytest.mark.parametrize("args, leaf", [
        (["--solver.scan_points=3"], "solver.scan_points"),
        (["--solver.init=random", "--solver.samples=2000"], "solver.init"),
        (['--solver={"k":2,"scan_points":3}'], "solver.scan_points"),
        # removed settings: every sweep is the plain best response, and the
        # reveal-quantize bin count is policy.k_last alone
        (["--solver.damping=1.0"], "solver.damping"),
        (["--solver.k_last=2"], "solver.k_last"),
    ])
    def test_solve_with_unknown_solver_key_is_two(self, args, leaf):
        config = str(ROOT / "configs" / "solve_uniform_k3.json")
        code, record, err = run_cli("solve", "--config", config, *args)
        assert code == 2 and record is None
        assert leaf in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, config, override, leaf", [
        ("verify", "verify_reveal_quantize.json", "--source.sigma=3", "source.sigma"),
        ("solve", "solve_uniform_k3.json", "--source.rate=2", "source.rate"),
        ("rd", "rd_asymptotic.json", "--rd.sampels=5", "rd.sampels"),
        ("transform", "transform_helmert.json", "--transform.nn=4", "transform.nn"),
        ("verify", "verify_reveal_quantize.json", "--policy.k_lst=5", "policy.k_lst"),
        ("verify", "verify_reveal_quantize.json", "--solver.k_last=2", "solver.k_last"),
        ("sweep", "sweep_bin_counts.json", "--sweep.valeus=[1]", "sweep.valeus"),
        ("classify", "classify_uniform_antisym.json", "--output.recrods=x", "output.recrods"),
    ])
    def test_unknown_key_in_any_block_is_two(self, command, config, override, leaf):
        config = str(ROOT / "configs" / config)
        code, record, err = run_cli(command, "--config", config, override)
        assert code == 2 and record is None
        assert f"no setting named {leaf}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, config, override, key", [
        ("classify", "classify_uniform_antisym.json", "--polcy.k_last=5", "polcy"),
        ("sweep", "sweep_bin_counts.json", "--sweep.path=solvr.k", "solvr"),
    ])
    def test_unknown_top_level_key_is_two(self, command, config, override, key):
        config = str(ROOT / "configs" / config)
        code, record, err = run_cli(command, "--config", config, override)
        assert code == 2 and record is None
        assert err.strip().endswith(f"invalid config: no setting named {key}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, config, override, leaf", [
        ("verify", "verify_planted_violation.json", "--policy.actions=[[NaN,0],[1,0]]",
         "policy.actions"),
        ("verify", "verify_planted_violation.json", '--policy.actions="abc"', "policy.actions"),
        ("verify", "verify_planted_violation.json", "--policy.actions=[]", "policy.actions"),
        ("verify", "verify_planted_violation.json", "--policy.actions=[[0,0,0],[1,0,0]]",
         "invalid policy block"),
        ("verify", "verify_planted_violation.json", '--bias=[1,"a"]', "bias[1]"),
        ("solve", "solve_uniform_k3.json", '--solver.tolerance="x"', "solver.tolerance"),
        ("solve", "solve_uniform_k3.json", "--solver.tolerance=true", "solver.tolerance"),
        ("classify", "classify_uniform_antisym.json", "--output=5", "output"),
        ("classify", "classify_uniform_antisym.json",
         '--source={"family":"tabulated-density","csv":"/nonexistent/table.csv"}', "table.csv"),
        ("verify", "verify_reveal_quantize.json", "--solver.grid_levels=0", "solver.grid_levels "),
        ("verify", "verify_reveal_quantize.json", "--policy.k_last=0", "policy.k_last "),
        # classify says yes to this bias, but its norm is past the float range
        ("verify", "verify_reveal_quantize.json", "--bias=[1.7e308,1e308]",
         "invalid policy block: the bias norm 1.0971329055460066 * 2**1024 is not representable"),
    ])
    def test_malformed_leaf_is_two(self, command, config, override, leaf):
        config = str(ROOT / "configs" / config)
        code, record, err = run_cli(command, "--config", config, override)
        assert code == 2 and record is None
        assert leaf in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, config, override, leaves", [
        ("transform", "transform_helmert.json", '--transform={"kind":"pair2d"}', "transform.bias"),
        ("transform", "transform_helmert.json", '--transform={"kind":"bias-aligning"}',
         "transform.bias"),
        ("transform", "transform_helmert.json", '--transform={"kind":"helmert"}', "transform.n"),
        ("classify", "classify_uniform_antisym.json", '--source={"family":"tabulated-density"}',
         "source.csv"),
        ("classify", "classify_uniform_antisym.json",
         '--source={"family":"correlated-gaussian-2d","rho":0.1}',
         "source.sigma1_sq, source.sigma2_sq"),
        ("rd", "rd_asymptotic.json", '--rd={"d_team":0.25}', "rd.sigma_sq"),
        ("verify", "verify_planted_violation.json", '--policy={"kind":"quantizer"}',
         "policy.actions"),
        ("sweep", "sweep_bin_counts.json", '--sweep={"command":"solve","values":[1]}',
         "sweep.path"),
    ])
    def test_missing_required_leaf_is_two(self, command, config, override, leaves):
        # the message names the dotted leaves, not the library function that needs them
        config = str(ROOT / "configs" / config)
        code, record, err = run_cli(command, "--config", config, override)
        assert code == 2 and record is None
        assert err.strip().endswith(f"block: missing {leaves}")
        assert "()" not in err and "Traceback" not in err

    def test_readme_lists_every_config_leaf(self):
        from cheaptalk.cli import _BLOCKS, _CHOSEN

        readme = (ROOT / "README.md").read_text()
        section = readme.split("### Config schema")[1].split("\n## ")[0]
        names = ["`bias`"]
        for name, (_, kinds) in _BLOCKS.items():
            names += [f"`{name}.{key}`" for key in kinds]
        for name, (key, choices) in _CHOSEN.items():
            names.append(f"`{name}.{key}`")
            for choice, (_, kinds) in choices.items():
                names += [f"`{choice}`"] + [f"`{name}.{k}`" for k in kinds]
        assert [n for n in names if n not in section] == []

    @pytest.mark.parametrize("override, name", [
        ("--source.sigma_sq=nan", "sigma_sq"),
        ("--source.mean=Infinity", "mean"),
    ])
    def test_non_finite_source_parameter_is_two(self, override, name):
        config = str(ROOT / "configs" / "verify_reveal_quantize.json")
        code, record, err = run_cli("verify", "--config", config, override)
        assert code == 2 and record is None
        assert f"{name} must be finite" in err
        assert "Traceback" not in err

    def test_unknown_solver_key_in_config_file_is_two(self, tmp_path):
        cfg = write_config(tmp_path, "typo.json", {
            "source": {"family": "iid-uniform", "dim": 1, "lo": 0.0, "hi": 1.0},
            "bias": [0.05],
            "solver": {"k": 2, "sample": 1000},
        })
        code, record, err = run_cli("solve", "--config", cfg)
        assert code == 2 and record is None
        assert "solver.sample" in err and "Traceback" not in err

    def test_solver_block_not_an_object_in_config_file_is_two(self, tmp_path):
        cfg = write_config(tmp_path, "solver5.json", {
            "source": {"family": "iid-uniform", "dim": 1}, "bias": [0.05], "solver": 5,
        })
        code, record, err = run_cli("solve", "--config", cfg)
        assert code == 2 and record is None
        assert "solver must be an object" in err and "Traceback" not in err

    @pytest.mark.parametrize("override", [
        "--rd.sigma_sq=0",
        "--rd.sigma_sq=-1",
        "--rd.sigma_sq=Infinity",
        "--rd.sigma_sq=NaN",
        "--rd.b=NaN",
        "--rd.d_team=0",
        "--rd.de=0",
        "--rd.dd=NaN",
        "--rd.n_list=[1,4]",
        "--rd.n_list=4",
        "--rd.samples=1",
        "--rd.rate_bits=-1",
        "--solver.seed=-1",
        "--rd.n_list=[4.7]",
        "--rd.rate_bits=1.5",
        "--rd.samples=1000.9",
    ])
    def test_rd_with_bad_value_is_two(self, override):
        config = str(ROOT / "configs" / "rd_asymptotic.json")
        code, record, err = run_cli("rd", "--config", config, override)
        assert code == 2
        assert record is None
        assert "invalid rd block" in err
        assert "Traceback" not in err

    def test_missing_config_is_two(self):
        code, _, _ = run_cli("classify", "--config", "/nonexistent/x.json")
        assert code == 2

    def test_numerical_failure_is_three(self, tmp_path):
        cfg = write_config(tmp_path, "k4.json", {
            "source": {"family": "iid-uniform", "dim": 1, "lo": 0.0, "hi": 1.0},
            "bias": [0.05],
            "solver": {"k": 4, "samples": 100000, "max_iterations": 300},
        })
        code, _, err = run_cli("solve", "--config", cfg)
        assert code == 3
        assert "bin" in err.lower() or "numerical" in err.lower()

    def test_bin_count_far_past_the_maximum_is_three(self):
        # a bin count far past the maximum is a numerical failure that names it, not a traceback
        config = str(ROOT / "configs" / "verify_reveal_quantize.json")
        code, record, err = run_cli("verify", "--config", config, "--policy.k_last=1000")
        assert code == 3 and record is None
        assert err.splitlines() == [
            "numerical failure: no 1000-bin equilibrium exists (maximum feasible: 12)"]


class TestDeterminism:
    @pytest.mark.parametrize("command,config", [
        ("classify", {
            "source": {"family": "iid-gaussian", "dim": 2, "sigma_sq": 1.0},
            "bias": [1.0, 2.0],
        }),
        ("rd", {
            "rd": {"sigma_sq": 1.0, "b": 1.0, "d_team": 0.25,
                    "n_list": [4], "rate_bits": 1, "samples": 50000},
        }),
        ("transform", {"transform": {"kind": "bias-aligning", "bias": [3.0, 4.0, 0.0]}}),
    ])
    def test_payloads_byte_identical(self, tmp_path, command, config):
        cfg = write_config(tmp_path, "cfg.json", config)
        _, first, _ = run_cli(command, "--config", cfg)
        _, second, _ = run_cli(command, "--config", cfg)
        assert json.dumps(first["payload"], sort_keys=True) == json.dumps(
            second["payload"], sort_keys=True
        )
        assert first["config_hash"] == second["config_hash"]

    def test_verify_payload_byte_identical(self, planted_config):
        _, first, _ = run_cli("verify", "--config", planted_config)
        _, second, _ = run_cli("verify", "--config", planted_config)
        assert json.dumps(first["payload"], sort_keys=True) == json.dumps(
            second["payload"], sort_keys=True
        )


class TestSeedHandling:
    def test_env_seed_overrides_config(self, planted_config):
        _, record, _ = run_cli("verify", "--config", planted_config,
                               env_extra={"CHEAPTALK_SEED": "7"})
        assert record["payload"]["seed"] == 7

    def test_flag_overrides_env(self, planted_config):
        _, record, _ = run_cli("verify", "--config", planted_config, "--seed", "9",
                               env_extra={"CHEAPTALK_SEED": "7"})
        assert record["payload"]["seed"] == 9

    def test_dotted_override(self, planted_config):
        _, record, _ = run_cli("verify", "--config", planted_config,
                               "--solver.samples=20000")
        assert record["payload"]["samples"] == 20000

    def test_bad_env_seed_rejected(self, planted_config):
        code, _, _ = run_cli("verify", "--config", planted_config,
                             env_extra={"CHEAPTALK_SEED": "not-a-number"})
        assert code == 2


class TestOutputs:
    def test_solve_uniform(self, tmp_path):
        cfg = write_config(tmp_path, "solve.json", {
            "source": {"family": "iid-uniform", "dim": 1, "lo": 0.0, "hi": 1.0},
            "bias": [0.05],
            "solver": {"k": 3, "samples": 200000},
        })
        code, record, _ = run_cli("solve", "--config", cfg)
        assert code == 0
        actions = sorted(a[0] for a in record["payload"]["actions"])
        assert actions == pytest.approx([4 / 15, 0.7, 14 / 15], abs=5e-4)

    def test_record_file_written(self, tmp_path, classify_config):
        out = tmp_path / "records.jsonl"
        cfg = json.loads(Path(classify_config).read_text())
        cfg["output"] = {"records": str(out)}
        path = write_config(tmp_path, "c2.json", cfg)
        run_cli("classify", "--config", path)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["command"] == "classify"

    def test_rd_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path, "rd.json", {
            "rd": {"sigma_sq": 1.0, "b": 1.0, "n_list": [4], "rate_bits": 1,
                    "samples": 50000},
        })
        csv_path = tmp_path / "table.csv"
        code, _, _ = run_cli("rd", "--config", cfg, "--csv", str(csv_path))
        assert code == 0
        header = csv_path.read_text().splitlines()[0]
        assert header == "n,R,Jd_emp,Jd_stderr,Je_emp,Je_stderr,Jd_exact"

    def test_transform_csv_matrix(self, tmp_path):
        cfg = write_config(tmp_path, "t.json", {
            "transform": {"kind": "pair2d", "bias": [1.0, 1.0]},
        })
        csv_path = tmp_path / "matrix.csv"
        run_cli("transform", "--config", cfg, "--csv", str(csv_path))
        rows = [line.split(",") for line in csv_path.read_text().strip().splitlines()]
        assert [[float(v) for v in row] for row in rows] == [[-1.0, 1.0], [1.0, 1.0]]

    def test_sweep_over_bin_counts(self, tmp_path):
        cfg = write_config(tmp_path, "sweep.json", {
            "source": {"family": "iid-uniform", "dim": 1, "lo": 0.0, "hi": 1.0},
            "bias": [0.05],
            "solver": {"k": 1, "samples": 50000},
            "sweep": {"command": "solve", "path": "solver.k", "values": [1, 2, 3]},
        })
        code, record, _ = run_cli("sweep", "--config", cfg)
        assert code == 0
        points = record["payload"]["points"]
        assert [p["value"] for p in points] == [1, 2, 3]
        assert all(p["payload"]["converged"] for p in points)

    def test_reveal_quantize_verify_passes(self, tmp_path):
        cfg = write_config(tmp_path, "rq.json", {
            "source": {"family": "iid-gaussian", "dim": 2, "sigma_sq": 1.0},
            "bias": [1.0, 1.0],
            "policy": {"kind": "reveal-quantize", "k_last": 2},
            "solver": {"samples": 150000},
        })
        code, record, err = run_cli("verify", "--config", cfg)
        assert code == 0 and err == ""
        assert record["payload"]["passed"] is True
        assert record["payload"]["policy_kind"] == "linear-plus-quantizer"

    def test_reveal_quantize_of_an_equal_bias_3d_uniform_source_is_two(self):
        # revealing the contrasts and sending one action for the mean is no
        # equilibrium here: the mean's conditional mean moves with the contrasts
        config = str(ROOT / "configs" / "verify_reveal_quantize.json")
        code, record, err = run_cli(
            "verify", "--config", config,
            '--source={"family":"iid-uniform","dim":3,"lo":-1,"hi":1}', "--bias=0.3",
            "--policy.k_last=1")
        assert code == 2
        assert record is None
        assert "invalid policy block: no supported construction" in err
        assert "Traceback" not in err


class TestExampleConfigs:
    """The example configs are the benchmark's CLI configs, and each still
    exits and prints the payload recorded in ``perfbench/cli_reference.json``."""

    def test_examples_are_the_benchmark_configs(self):
        bench = ROOT / "perfbench" / "cli_configs"
        assert EXAMPLES == sorted(path.name for path in bench.glob("*.json"))
        for name in EXAMPLES:
            assert (ROOT / "configs" / name).read_bytes() == (bench / name).read_bytes(), name
        reference = json.loads((ROOT / "perfbench" / "cli_reference.json").read_text())
        assert sorted(reference) == EXAMPLES

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_exit_code_and_payload_hash(self, name):
        reference = json.loads((ROOT / "perfbench" / "cli_reference.json").read_text())[name]
        proc = run_process(reference["command"], "--config", str(ROOT / "configs" / name))
        assert proc.returncode == reference["exit"], proc.stderr
        assert "Traceback" not in proc.stderr
        # the payload exactly as printed, between its key and the status field
        line = proc.stdout.strip().splitlines()[-1]
        payload = line[line.index('"payload":') + len('"payload":'):line.rindex(',"status":')]
        assert hashlib.sha256(payload.encode()).hexdigest() == reference["payload_sha256"]

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_cold_run_loads_no_scipy(self, name):
        """A cold process of each example config imports no scipy module at all."""
        command = json.loads((ROOT / "perfbench" / "cli_reference.json").read_text())[name]["command"]
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "cheaptalk.cli", command,
             "--config", str(ROOT / "configs" / name)],
            capture_output=True, text=True, env=env,
        )
        imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "cheaptalk.sources" in imported
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []
