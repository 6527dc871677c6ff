"""End-to-end tests of the command-line interface (subprocess level)."""

import json
import math
import os
import subprocess
import sys

import pytest

BASIS3 = "[[1,0],[0,0],[0,0]]"


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("PHASESPACE_SEED", None)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "phasespace", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestWignerCommand:
    def test_basis_state_json(self):
        proc = run_cli("wigner", "--d", "3", "--state", BASIS3)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["d"] == 3
        assert doc["kind"] == "wigner"
        for p in range(3):
            assert abs(doc["values"][p][0] - 1 / 3) < 1e-12
            assert abs(doc["values"][p][1]) < 1e-12

    def test_uniform_state_json(self):
        amp = repr([[1 / math.sqrt(3), 0]] * 3)
        proc = run_cli("wigner", "--d", "3", "--state", amp)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        for q in range(3):
            assert abs(doc["values"][0][q] - 1 / 3) < 1e-12
            assert abs(doc["values"][1][q]) < 1e-12

    def test_csv_format(self):
        proc = run_cli("wigner", "--d", "3", "--state", BASIS3, "--format", "csv")
        assert proc.returncode == 0
        rows = proc.stdout.strip().split("\n")
        assert rows[0] == "p,q,value"
        assert len(rows) == 10
        assert abs(float(rows[1].split(",")[2]) - 1 / 3) < 1e-12

    def test_output_file(self, tmp_path):
        out = tmp_path / "grid.json"
        proc = run_cli("wigner", "--d", "3", "--state", BASIS3, "--output", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        doc = json.loads(out.read_text())
        assert doc["d"] == 3

    @pytest.mark.parametrize("bad_d", ["4", "9", "2", "1"])
    def test_rejects_bad_dimension(self, bad_d):
        proc = run_cli("wigner", "--d", bad_d, "--state", BASIS3)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error:" in proc.stderr
        assert "odd prime" in proc.stderr

    def test_rejects_malformed_state(self):
        proc = run_cli("wigner", "--d", "3", "--state", "not json")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_rejects_wrong_length(self):
        proc = run_cli("wigner", "--d", "3", "--state", "[[1,0],[0,0]]")
        assert proc.returncode == 2

    def test_rejects_non_numeric_pair(self):
        proc = run_cli("wigner", "--d", "3", "--state", '[[1,0],[0,"x"],[0,0]]')
        assert proc.returncode == 2

    def test_rejects_zero_vector(self):
        proc = run_cli("wigner", "--d", "3", "--state", "[[0,0],[0,0],[0,0]]")
        assert proc.returncode == 2
        assert "zero" in proc.stderr

    @pytest.mark.parametrize(
        "state,extra,message",
        [
            ("[[NaN,0],[0,0],[0,0]]", (), "entry 0 is not finite"),
            ("[[1,0],[0,NaN],[0,0]]", ("--normalize",), "entry 1 is not finite"),
            ("[[Infinity,0],[0,0],[0,0]]", ("--normalize",), "entry 0 is not finite"),
            ("[[1,0],[-Infinity,0],[0,0]]", (), "entry 1 is not finite"),
            ("[[1e308,1e308],[1e308,0],[0,0]]", ("--normalize",), "norm overflows; scale the amplitudes down"),
        ],
    )
    def test_rejects_non_finite_state(self, state, extra, message):
        proc = run_cli("wigner", "--d", "3", "--state", state, *extra)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: --state {message}\n"

    def test_norm_policy(self):
        off = "[[0.8,0],[0.7,0],[0,0]]"
        proc = run_cli("wigner", "--d", "3", "--state", off)
        assert proc.returncode == 2
        assert "--normalize" in proc.stderr
        proc = run_cli("wigner", "--d", "3", "--state", off, "--normalize")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert abs(sum(sum(row) for row in doc["values"]) - 1.0) < 1e-9

    def test_tiny_norm_error_accepted(self):
        amp = f"[[{1 + 1e-8},0],[0,0],[0,0]]"
        proc = run_cli("wigner", "--d", "3", "--state", amp)
        assert proc.returncode == 0


class TestStabilizersCommand:
    def test_json_listing(self):
        proc = run_cli("stabilizers", "--d", "3")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["d"] == 3
        assert doc["count"] == 12
        kinds = [rec["kind"] for rec in doc["states"]]
        assert kinds[:3] == ["basis"] * 3
        assert kinds[3:] == ["quadratic"] * 9
        assert "amplitudes" not in doc["states"][0]

    def test_amplitudes_flag(self):
        proc = run_cli("stabilizers", "--d", "3", "--amplitudes")
        doc = json.loads(proc.stdout)
        assert doc["states"][0]["amplitudes"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        quad = doc["states"][3]
        assert quad["theta"] == 0 and quad["x"] == 0
        assert all(
            abs(math.hypot(re, im) - 1 / math.sqrt(3)) < 1e-12
            for re, im in quad["amplitudes"]
        )

    def test_csv_listing(self):
        proc = run_cli("stabilizers", "--d", "5", "--format", "csv")
        rows = proc.stdout.strip().split("\n")
        assert rows[0] == "index,kind,k,theta,x"
        assert len(rows) == 31
        assert rows[1] == "0,basis,0,,"
        assert rows[6] == "5,quadratic,,0,0"


class TestMetaplecticCommand:
    def test_identity(self):
        proc = run_cli("metaplectic", "--d", "3", "--matrix", "1,0,0,1")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["conjugation_check_passed"] is True
        assert doc["conjugation_max_error"] <= 1e-10
        assert doc["matrix"] == [[1, 0], [0, 1]]
        for i in range(3):
            for j in range(3):
                expected = [1.0, 0.0] if i == j else [0.0, 0.0]
                assert doc["unitary"][i][j] == expected

    def test_fourier_is_flat(self):
        proc = run_cli("metaplectic", "--d", "3", "--matrix", "0,-1,1,0")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        for row in doc["unitary"]:
            for re, im in row:
                assert abs(math.hypot(re, im) - 1 / math.sqrt(3)) < 1e-12

    def test_csv_format(self):
        proc = run_cli("metaplectic", "--d", "3", "--matrix", "0,-1,1,0", "--format", "csv")
        rows = proc.stdout.strip().split("\n")
        assert rows[0] == "row,col,re,im"
        assert len(rows) == 10

    def test_rejects_non_unit_determinant(self):
        proc = run_cli("metaplectic", "--d", "3", "--matrix", "1,1,1,1")
        assert proc.returncode == 2
        assert "determinant" in proc.stderr

    def test_rejects_malformed_matrix(self):
        assert run_cli("metaplectic", "--d", "3", "--matrix", "1,2,3").returncode == 2
        assert run_cli("metaplectic", "--d", "3", "--matrix", "a,b,c,e").returncode == 2


class TestVerifyCommand:
    def test_passing_run(self):
        proc = run_cli(
            "verify", "--d", "3", "--samples", "40", "--seed", "7", "--two-point", "20"
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["overall_passed"] is True
        assert doc["passed"] is True
        assert doc["failures"] == [] and doc["failures_total"] == 0
        assert doc["point_mass_infeasible"] is True
        assert doc["stabilizer_count"] == 12
        assert doc["seed"] == 7
        assert doc["random_samples"] == 40
        assert doc["two_point_samples"] == 20
        assert isinstance(doc["duration_seconds"], float)
        assert isinstance(doc["version"], str)

    def test_deterministic_modulo_duration(self):
        args = ("verify", "--d", "3", "--samples", "30", "--seed", "5", "--two-point", "10")
        a = json.loads(run_cli(*args).stdout)
        b = json.loads(run_cli(*args).stdout)
        a.pop("duration_seconds")
        b.pop("duration_seconds")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_csv_format(self):
        proc = run_cli(
            "verify", "--d", "3", "--samples", "5", "--seed", "3", "--two-point", "5",
            "--format", "csv",
        )
        assert proc.returncode == 0
        rows = proc.stdout.strip().split("\n")
        assert rows[0] == "key,value"
        table = dict(row.split(",", 1) for row in rows[1:])
        assert table["overall_passed"] == "true"
        assert table["dim"] == "3"

    def test_failing_run_exits_one(self):
        proc = run_cli(
            "verify", "--d", "3", "--samples", "5", "--seed", "3", "--two-point", "5",
            "--tol", "0.5",
        )
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["overall_passed"] is False
        assert len(doc["failures"]) > 0
        assert doc["failures_total"] == 10  # every random and two-point sample

    def test_rejects_negative_samples(self):
        proc = run_cli("verify", "--d", "3", "--samples", "-1")
        assert proc.returncode == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_rejects_nonfinite_or_negative_tol(self, tol):
        proc = run_cli(
            "verify", "--d", "3", "--samples", "5", "--two-point", "5", "--tol", tol
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--tol" in proc.stderr

    def test_rejects_negative_seed(self):
        proc = run_cli("verify", "--d", "3", "--samples", "2", "--seed", "-3")
        assert proc.returncode == 2


class TestSeedResolution:
    def test_default_seed(self):
        doc = json.loads(
            run_cli("verify", "--d", "3", "--samples", "2", "--two-point", "2").stdout
        )
        assert doc["seed"] == 42

    def test_environment_seed(self):
        doc = json.loads(
            run_cli(
                "verify", "--d", "3", "--samples", "2", "--two-point", "2",
                env_extra={"PHASESPACE_SEED": "99"},
            ).stdout
        )
        assert doc["seed"] == 99

    def test_flag_overrides_environment(self):
        doc = json.loads(
            run_cli(
                "verify", "--d", "3", "--samples", "2", "--two-point", "2", "--seed", "11",
                env_extra={"PHASESPACE_SEED": "99"},
            ).stdout
        )
        assert doc["seed"] == 11

    def test_invalid_environment_seed(self):
        proc = run_cli(
            "verify", "--d", "3", "--samples", "2",
            env_extra={"PHASESPACE_SEED": "abc"},
        )
        assert proc.returncode == 2
        assert "PHASESPACE_SEED" in proc.stderr


class TestUsage:
    def test_help_exits_zero(self):
        assert run_cli("--help").returncode == 0

    def test_missing_subcommand(self):
        assert run_cli().returncode == 2

    def test_unknown_subcommand(self):
        assert run_cli("spectrum", "--d", "3").returncode == 2

    def test_missing_required_flag(self):
        assert run_cli("wigner", "--d", "3").returncode == 2
