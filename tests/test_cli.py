"""End-to-end tests of the command-line interface (subprocess level, or in
process where a test substitutes a function or checks a limit)."""

import csv
import importlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasespace import DenseOperator, SymplecticMatrix, cli, hudson, metaplectic, stabilizer_rows
from phasespace import PrimeDim, sl2_enumerate, weyl

from oracles import act, all_points, compose

BASIS3 = "[[1,0],[0,0],[0,0]]"


def strict_loads(text):
    """json.loads that rejects NaN, Infinity and -Infinity, as a strict JSON parser does."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


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

    def test_rejects_int_past_the_digit_limit(self):
        proc = run_cli("wigner", "--d", "3", "--state", f"[[1{'0' * 5000},0],[0,0],[0,0]]")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: --state")

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
            pytest.param(f"[[1{'0' * 400},0],[0,0],[0,0]]", (), "entry 0 is not finite", id="400-digit int"),
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

    def test_listing_builds_no_states(self, monkeypatch, capsys):
        # without --amplitudes only the descriptors are read
        def no_rows(d, indices):
            raise AssertionError("stabilizer amplitudes built for a descriptor listing")

        monkeypatch.setattr(cli, "stabilizer_rows", no_rows)
        assert cli.main(["stabilizers", "--d", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 30

    def test_amplitudes_follow_the_enumeration(self, capsys):
        assert cli.main(["stabilizers", "--d", "5", "--amplitudes"]) == 0
        doc = json.loads(capsys.readouterr().out)
        want = [[[z.real, z.imag] for z in amp] for amp in stabilizer_rows(5, range(30))]
        assert [rec["amplitudes"] for rec in doc["states"]] == want

    def test_csv_listing(self):
        proc = run_cli("stabilizers", "--d", "5", "--format", "csv")
        rows = proc.stdout.strip().split("\n")
        assert rows[0] == "index,kind,k,theta,x"
        assert len(rows) == 31
        assert rows[1] == "0,basis,0,,"
        assert rows[6] == "5,quadratic,,0,0"

    def test_amplitudes_need_json(self, tmp_path):
        out = tmp_path / "stabilizers.csv"
        for extra in ((), ("--output", str(out))):
            proc = run_cli("stabilizers", "--d", "3", "--format", "csv", "--amplitudes", *extra)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert "error: --amplitudes needs --format json" in proc.stderr
        assert not out.exists()


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

    @pytest.mark.parametrize("wrong", ["other element", "scaled", "column phase"])
    def test_self_check_catches_a_wrong_unitary(self, wrong, monkeypatch, capsys):
        # mu(T) for T != S breaks mu w(v) = w(S v) mu; 2 mu(S) satisfies it and
        # is caught only by the unitarity term, the v = 0 point of the identity;
        # mu(S) diag(-1, 1, ..., 1) is unitary and commutes with z(1) as mu(S)
        # does, so only the v = (0, 1) term catches it
        def bad_metaplectic(S):
            if wrong == "scaled":
                return DenseOperator(S.dim, 2 * metaplectic(S).mat)
            if wrong == "column phase":
                return DenseOperator(S.dim, metaplectic(S).mat * np.r_[-1, np.ones(S.dim.d - 1)])
            return metaplectic(compose(SymplecticMatrix(S.dim, 1, 0, 1, 1), S))

        monkeypatch.setattr(cli, "metaplectic", bad_metaplectic)
        assert cli.main(["metaplectic", "--d", "5", "--matrix", "2,1,1,1"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["conjugation_check_passed"] is False
        assert doc["conjugation_max_error"] > 0.5

    def test_generator_images_are_the_columns_of_s(self):
        # the self-check reads S(1, 0) and S(0, 1) off the columns of S; the
        # same two terms through the action on (p, q) pairs give the same floats
        dim = PrimeDim(5)
        for S in sl2_enumerate(dim):
            mu = metaplectic(S).mat
            err = np.abs(mu @ mu.conj().T - np.eye(5)).max()
            for v in ((1, 0), (0, 1)):
                err = max(err, np.abs(mu @ weyl(dim, *v).mat - weyl(dim, *act(S, v)).mat @ mu).max())
            assert cli._conjugation_error(mu, S) == float(err)

    def test_generator_check_agrees_with_every_point(self):
        # at every S in SL(2, Z_5), the check at the two generators passes
        # exactly when mu w(v) mu^dagger = w(S v) holds at all d^2 points
        dim = PrimeDim(5)
        for S in sl2_enumerate(dim):
            right = metaplectic(S).mat
            wrong = [metaplectic(compose(SymplecticMatrix(dim, 1, 0, 1, 1), S)).mat, right * np.r_[-1, np.ones(4)]]
            for mu, expected in zip([right, *wrong], [True, False, False]):
                every_point = max(
                    np.abs(mu @ weyl(dim, *v).mat @ mu.conj().T - weyl(dim, *act(S, v)).mat).max()
                    for v in all_points(dim)
                )
                assert (cli._conjugation_error(mu, S) <= 1e-10) == (every_point <= 1e-10) == expected


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
        # the lemma5_support_sizes row, and the failures row of the failing
        # --tol 0.5 run, hold commas and quotes: each row still parses as two fields
        for tol, code in (("1e-9", 0), ("0.5", 1)):
            args = ("verify", "--d", "3", "--samples", "5", "--seed", "3", "--two-point", "5", "--tol", tol)
            proc = run_cli(*args, "--format", "csv")
            assert proc.returncode == code
            rows = list(csv.reader(proc.stdout.splitlines()))
            assert rows[0] == ["key", "value"]
            assert all(len(row) == 2 for row in rows)
            table = {key: json.loads(value) for key, value in rows[1:]}
            doc = json.loads(run_cli(*args).stdout)
            for report in (table, doc):
                report.pop("duration_seconds")
            assert table == doc
            assert table["overall_passed"] is (code == 0)
            assert table["dim"] == 3
            assert table["lemma5_support_sizes"] == {"1": 3, "3": 9}
            assert len(table["failures"]) == (0 if code == 0 else 10)

    def test_point_mass_step_runs_once(self, monkeypatch, capsys):
        calls = []
        step = hudson.single_point_infeasibility

        def counted(dim):
            calls.append(dim.d)
            return step(dim)

        monkeypatch.setattr(hudson, "single_point_infeasibility", counted)
        assert cli.main(["verify", "--d", "5", "--samples", "3", "--two-point", "3"]) == 0
        assert calls == [5]
        assert json.loads(capsys.readouterr().out)["point_mass_infeasible"] is True

    def test_point_mass_failure_fails_the_run(self, monkeypatch, capsys):
        monkeypatch.setattr(hudson, "single_point_infeasibility", lambda dim: False)
        assert cli.main(["verify", "--d", "3", "--samples", "5", "--two-point", "5"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["point_mass_infeasible"] is False
        assert doc["passed"] is False and doc["overall_passed"] is False

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
        counts = (("-1", "nonnegative"), ("100001", "at most 100000"))
        for flag, (count, bound) in itertools.product(("--samples", "--two-point"), counts):
            proc = run_cli("verify", "--d", "3", flag, count)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr == f"error: sample counts must be {bound}\n"

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

    @pytest.mark.parametrize("d", [5, 61])
    @pytest.mark.parametrize("stream", ["haar", "two_point"])
    def test_all_nan_stream_writes_strict_artifacts(self, monkeypatch, capsys, d, stream):
        # every row of one stream gets a NaN first amplitude after
        # normalize_rows: at d = 61 its second chunk goes through the float32
        # bound too. The run fails and names each row; the stream's
        # max-minimum (-inf in the report) is null in both artifacts.
        poisoned_stream, label, count, key, other = {
            "haar": (hudson._HAAR_STREAM, "random sample", 30, "random", "two_point"),
            "two_point": (hudson._TWO_POINT_STREAM, "two-point sample", 20, "two_point", "random"),
        }[stream]
        draw = hudson._sample_rows

        def poisoned(d, kind, words):
            rows, fast = draw(d, kind, words)
            if kind == poisoned_stream:
                rows[:, 0] = np.nan
            return rows, fast

        monkeypatch.setattr(hudson, "_sample_rows", poisoned)
        args = ["verify", "--d", str(d), "--samples", "30", "--two-point", "20", "--seed", "7"]
        assert cli.main(args) == 1
        doc = strict_loads(capsys.readouterr().out)
        assert cli.main([*args, "--format", "csv"]) == 1
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        table = {key: strict_loads(value) for key, value in rows[1:]}
        for report in (table, doc):
            report.pop("duration_seconds")
        assert table == doc
        assert doc["passed"] is False and doc["failures_total"] == count
        named = [f"{label} {i} has no finite Wigner minimum" for i in range(count)]
        assert doc["failures"] == named[:hudson.MAX_FAILURE_MESSAGES]
        assert doc[f"{key}_max_min_wigner"] is None and doc[f"{other}_max_min_wigner"] < 0


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

    @pytest.mark.parametrize(
        "args",
        [
            ("wigner", "--d", "3", "--state", BASIS3),
            ("stabilizers", "--d", "3"),
            ("metaplectic", "--d", "3", "--matrix", "0,-1,1,0"),
        ],
    )
    def test_commands_without_a_seed_ignore_the_environment(self, args):
        proc = run_cli(*args, env_extra={"PHASESPACE_SEED": "abc"})
        assert proc.returncode == 0
        assert proc.stderr == ""


class TestDimensionLimits:
    @pytest.mark.parametrize(
        "command,d,extra",
        [
            ("wigner", 2011, ["--state", BASIS3]),
            ("stabilizers", 103, []),
            ("metaplectic", 1013, ["--matrix", "1,0,0,1"]),
            ("verify", 409, []),
        ],
    )
    def test_first_prime_above_the_limit_exits_two(self, command, d, extra, capsys):
        assert cli.MAX_D[command] < d
        assert cli.main([command, "--d", str(d), *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --d must be at most {cli.MAX_D[command]} for {command}\n"

    @pytest.mark.parametrize(
        "args,error",
        [
            (["metaplectic", "--d", "4", "--matrix", "1,2,3"], "d must be an odd prime >= 3, got 4"),
            (["stabilizers", "--d", "103", "--amplitudes", "--format", "csv"], "--d must be at most 101 for stabilizers"),
            (["verify", "--d", "409", "--samples", "-1", "--tol", "nan"], "--d must be at most 401 for verify"),
            (["verify", "--d", "9", "--seed", "-1"], "d must be an odd prime >= 3, got 9"),
        ],
    )
    def test_dimension_is_checked_before_the_other_options(self, args, error, capsys):
        assert cli.main(args) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


class TestUsage:
    def test_one_process_runs_calls_in_sequence(self, tmp_path, monkeypatch, capsys):
        # cli.main reuses one parser; each call must match a fresh process
        monkeypatch.setenv("PHASESPACE_SEED", "13")
        verify = ["verify", "--d", "5", "--samples", "20", "--two-point", "10"]
        calls = [verify, ["verify", "--d", "5", "--samples"], ["wigner", "--d", "3", "--state", BASIS3], verify]
        for k, args in enumerate(calls):
            out = tmp_path / f"in-process-{k}"
            code = cli.main([*args, "--output", str(out)])
            capsys.readouterr()
            fresh = tmp_path / f"fresh-{k}"
            proc = run_cli(*args, "--output", str(fresh), env_extra={"PHASESPACE_SEED": "13"})
            assert code == proc.returncode == (2 if k == 1 else 0)
            if code == 0:
                docs = [json.loads(path.read_text()) for path in (out, fresh)]
                for doc in docs:
                    doc.pop("duration_seconds", None)
                assert docs[0] == docs[1]
        assert json.loads(out.read_text())["seed"] == 13
        assert cli.build_parser() is cli.build_parser()

    def test_help_exits_zero(self):
        assert run_cli("--help").returncode == 0

    def test_missing_subcommand(self):
        assert run_cli().returncode == 2

    def test_unknown_subcommand(self):
        assert run_cli("spectrum", "--d", "3").returncode == 2

    def test_missing_required_flag(self):
        assert run_cli("wigner", "--d", "3").returncode == 2

    @pytest.mark.parametrize("command,extra", [
        ("wigner", ["--state", BASIS3]), ("stabilizers", []), ("metaplectic", ["--matrix", "1,0,0,1"]), ("verify", []),
    ])
    def test_each_subcommand_names_its_handler(self, command, extra):
        args = cli.build_parser().parse_args([command, "--d", "3", *extra])
        assert args.run is getattr(cli, f"run_{command}")

    def test_console_script_is_main(self):
        # [project.scripts] in pyproject.toml, read with a regex (no tomllib on 3.10)
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
        module, name = re.fullmatch(r'phasespace = "([\w.]+):(\w+)"', section.strip()).groups()
        assert getattr(importlib.import_module(module), name) is cli.main
