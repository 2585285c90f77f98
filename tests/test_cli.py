"""Tests for the command-line interface: dispatch, exit codes, determinism."""

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from robustcert.cli import main
from robustcert.problem_io import fixture_path

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

SQ2_4 = float(np.sqrt(2) / 4)

HARD_PROBLEM = {
    "decision_dim": 2,
    "uncertainty_dim": 1,
    "objectives": ["abs(z1)*abs(z2)", "z1 + z2"],
    "constraints": ["z1 + 0*u1"],
    "uncertainty": {"type": "box", "lower": [-1], "upper": [1]},
    "cone": {"type": "orthant"},
    "box": {"lower": [-2, -2], "upper": [2, 2]},
    "label": "hard",
}

LINE_PROBLEM = {
    "decision_dim": 1,
    "uncertainty_dim": 1,
    "objectives": ["z1"],
    "constraints": ["z1 - u1"],
    "uncertainty": {"type": "box", "lower": [0], "upper": [1]},
    "cone": {"type": "orthant"},
    "box": {"lower": [-1], "upper": [1]},
}

# no uncertain parameter: U is one point with no coordinates
NO_U_PROBLEM = {
    "decision_dim": 2,
    "uncertainty_dim": 0,
    "objectives": ["z1", "abs(z2) - z1"],
    "constraints": ["abs(z1) + z2 - 1", "max(z1, -z2)"],
    "uncertainty": {"type": "finite", "points": [[]]},
    "cone": {"type": "orthant"},
    "box": {"lower": [-2, -2], "upper": [2, 2]},
}


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


# ---------------------------------------------------------------------------
# command dispatch
# ---------------------------------------------------------------------------


class TestCommands:
    def test_check_infeasible_point(self, capsys):
        code = main(["check", "--problem", "ex3_2", "--point", "0.5,0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible: false" in out
        assert "psi: [1.0, -3.5]" in out

    def test_check_feasible_json(self, capsys):
        rep = run_json(capsys, ["check", "--problem", "ex3_2",
                                "--point", "0,1"])
        assert rep["schema"] == 1
        assert rep["feasibility"]["feasible"] is True
        assert rep["feasibility"]["psi"] == pytest.approx([0.0, -1.0],
                                                          abs=1e-9)

    def test_cq_command(self, capsys):
        rep = run_json(capsys, ["cq", "--problem", "ex3_2", "--point", "0,1"])
        assert rep["cq"]["satisfied"] is True
        assert rep["cq"]["distance"] == pytest.approx(1.0, abs=1e-9)
        assert rep["cq"]["active_indices"] == [0]

    def test_kkt_command(self, capsys):
        rep = run_json(capsys, ["kkt", "--problem", "ex3_2",
                                "--point", "0,1"])
        cert = rep["kkt"]["certificate"]
        assert rep["kkt"]["found"] is True
        assert cert["y_star"] == pytest.approx([SQ2_4, 0.0, SQ2_4], abs=1e-9)
        assert cert["mu"] == pytest.approx([0.5, 0.0], abs=1e-9)
        assert rep["kkt"]["verification"]["ok"] is True

    def test_kkt_not_found_reported_with_exit_zero(self, capsys):
        code = main(["kkt", "--problem", "ex3_2", "--point=-1,0",
                     "--ygrid", "73", "--json"])
        out = capsys.readouterr().out
        assert code == 0  # the check ran; the verdict is negative
        rep = json.loads(out)
        assert rep["kkt"]["found"] is False
        assert rep["kkt"]["best_residual"] > 0
        assert "73" in rep["kkt"]["message"]

    def test_efficiency_command(self, capsys):
        rep = run_json(capsys, ["efficiency", "--problem", "ex3_2",
                                "--point", "0,1"])
        for concept in ("weak", "efficient", "proper"):
            assert rep["efficiency"][concept]["certified"] is True

    def test_convexity_command(self, capsys):
        rep = run_json(capsys, ["convexity", "--problem", "ex2_3",
                                "--point", "0,-2", "--samples", "60"])
        assert rep["convexity"]["samples"] == 60
        assert rep["convexity"]["type_i"]["status"] == "not-refuted"
        assert rep["convexity"]["type_ii"]["status"] == "not-refuted"

    def test_dual_command_searches_certificate(self, capsys):
        rep = run_json(capsys, ["dual", "--problem", "ex3_2",
                                "--point", "0,1"])
        assert rep["kkt"]["found"] is True
        dual = rep["duality"]
        assert dual["mode"] == "default"
        assert dual["feasibility"]["feasible"] is True
        assert dual["weak_typeI"]["holds"] is True
        assert dual["weak_typeII"]["holds"] is True
        assert dual["converse"]["consistent"] is True

    def test_dual_command_strict_mode(self, capsys):
        rep = run_json(capsys, ["dual", "--problem", "ex3_2",
                                "--point", "0,1", "--strict-dual"])
        feas = rep["duality"]["feasibility"]
        assert rep["duality"]["mode"] == "strict"
        assert feas["feasible"] is False
        assert feas["sign_values"] == pytest.approx([-1.0, 0.0], abs=1e-9)

    def test_dual_command_triple_from_file(self, capsys, tmp_path):
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(
            {"y": [0, 1], "y_star": [SQ2_4, 0, SQ2_4], "mu": [0.5, 0]}
        ))
        rep = run_json(capsys, ["dual", "--problem", "ex3_2",
                                "--triple", f"@{path}"])
        assert "kkt" not in rep  # no search needed
        assert rep["config"]["point"] == "0,1"
        assert rep["duality"]["feasibility"]["feasible"] is True

    def test_dual_command_triple_inline(self, capsys):
        inline = json.dumps({"y": [0, 1], "y_star": [SQ2_4, 0, SQ2_4],
                             "mu": [0.5, 0]})
        rep = run_json(capsys, ["dual", "--problem", "ex3_2",
                                "--triple", inline])
        assert rep["duality"]["feasibility"]["feasible"] is True

    @pytest.mark.parametrize("command", ["kkt", "dual", "report"])
    def test_certificate_without_uncertain_parameter(self, capsys, tmp_path,
                                                     command):
        # each witness of the certificate is a point with no coordinates,
        # which lies in U
        path = tmp_path / "no-u.json"
        path.write_text(json.dumps(NO_U_PROBLEM))
        out = run_json(capsys, [command, "--problem", str(path),
                                "--point", "0,0"])
        assert out["kkt"]["found"]
        assert out["kkt"]["verification"]["ok"]
        assert out["kkt"]["certificate"]["witnesses"] == [[], [[]]]

    def test_report_command_has_all_sections(self, capsys):
        rep = run_json(capsys, ["report", "--problem", "ex3_2",
                                "--point", "0,1", "--samples", "60"])
        for section in ("feasibility", "subdifferentials", "cq", "kkt",
                        "convexity", "efficiency", "duality"):
            assert section in rep, section
        assert rep["subdifferentials"]["worst_case_constraints"][0]["pieces"]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


class TestExitCodes:
    def test_dimension_mismatch_is_usage_error(self, capsys):
        assert main(["check", "--problem", "ex3_2", "--point", "0,1,5"]) == 1
        assert "expects 2" in capsys.readouterr().err

    def test_missing_problem_file_is_usage_error(self, capsys):
        assert main(["check", "--problem", "/no/such.json",
                     "--point", "0,1"]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["bogus", "--problem", "ex3_2", "--point", "0,1"]) == 1

    def test_missing_point_is_usage_error(self, capsys):
        assert main(["check", "--problem", "ex3_2"]) == 1
        assert "--point is required" in capsys.readouterr().err

    def test_bad_tolerance_is_usage_error(self, capsys):
        assert main(["check", "--problem", "ex3_2", "--point", "0,1",
                     "--tol", "-1"]) == 1

    def test_malformed_triple_is_usage_error(self, capsys):
        assert main(["dual", "--problem", "ex3_2",
                     "--triple", "{not json"]) == 1

    @pytest.mark.parametrize("argv,name", [
        (["check", "--point", "nan,0"], "--point"),
        (["kkt", "--point", "nan,1"], "--point"),
        (["efficiency", "--point", "0,inf"], "--point"),
        (["dual", "--triple",
          '{"y": [0, 1], "y_star": [NaN, 0, 0.5], "mu": [0.5, 0]}'],
         "--triple"),
        (["dual", "--triple",
          '{"y": [NaN, 1], "y_star": [0.5, 0, 0.5], "mu": [0.5, 0]}'],
         "--triple"),
        (["convexity", "--point", "0,1", "--samples", "10", "--seed", "-1"],
         "--seed"),
        (["check", "--point", "0.5,0", "--tol", "inf"], "--tol"),
        # a nested list, and a boolean that numpy would read as 1.0
        (["dual", "--triple",
          '{"y": [[0], [1]], "y_star": [0.35, 0, 0.35], "mu": [0.5, 0]}'],
         "--triple"),
        (["dual", "--triple",
          '{"y": [0, true], "y_star": [0.35, 0, 0.35], "mu": [0.5, 0]}'],
         "--triple"),
        (["check", "--point", "0,x"], "could not parse point '0,x'"),
        (["efficiency", "--point", "0,1", "--grid", "1"], "--grid"),
        (["convexity", "--point", "0,1", "--samples", "0"], "--samples"),
        # a triple of one objective and one constraint too few
        (["dual", "--triple", '{"y": [0, 1], "y_star": [0.5, 0.5], "mu": [1]}'],
         "--triple dimensions do not match"),
        (["dual", "--triple", "@no/such/triple.json"],
         "could not read triple file"),
        (["check", "--point", "0,1", "--out", "no/such/report.txt"],
         "No such file or directory"),
    ])
    def test_bad_number_is_usage_error(self, capsys, argv, name):
        assert main(argv[:1] + ["--problem", "ex3_2"] + argv[1:]) == 1
        assert name in capsys.readouterr().err

    # each lattice would have about 10^10 rows or more, so a missing check
    # fails at once on the allocation instead of filling memory slowly
    @pytest.mark.parametrize("argv,name", [
        (["efficiency", "--grid", "100000"], "--grid"),
        (["kkt", "--ygrid", "200000"], "--ygrid"),
        (["check", "--ugrid", "10000000000"], "--ugrid"),
    ])
    def test_oversized_lattice_is_usage_error(self, capsys, argv, name):
        assert main(argv[:1] + ["--problem", "ex3_2", "--point", "0,1"]
                    + argv[1:]) == 1
        err = capsys.readouterr().err
        assert name in err and "limit" in err

    # with four objectives the default --ygrid gives a 62,727,721-row weight
    # lattice, which only the certificate search builds: dual with a given
    # triple runs none
    @pytest.mark.parametrize("command,code", [
        ("check", 0), ("cq", 0), ("kkt", 1),
        pytest.param("dual --triple "
                     '{"y":[0.5],"y_star":[0.25,0.25,0.25,0.25],"mu":[0]}',
                     0, id="dual-triple-0"),
    ])
    def test_only_built_lattices_are_checked(self, capsys, tmp_path,
                                             command, code):
        path = tmp_path / "four.json"
        path.write_text(json.dumps(dict(
            LINE_PROBLEM, objectives=["z1", "-z1", "z1^2", "abs(z1)"])))
        assert main(command.split() + ["--problem", str(path),
                                       "--point", "0.5"]) == code
        err = capsys.readouterr().err
        assert ("--ygrid 721" in err) == (code == 1)

    # ten objectives give lattices of 38,567,100 rows that no flag sizes:
    # convexity's dual weight grid and the certificate search's coarse
    # residual lattice
    @pytest.mark.parametrize("argv", [["convexity"], ["kkt", "--ygrid", "2"]],
                             ids=["convexity", "kkt-coarse"])
    def test_unflagged_oversized_lattice_is_usage_error(self, capsys,
                                                        tmp_path, argv):
        path = tmp_path / "ten.json"
        path.write_text(json.dumps(dict(
            LINE_PROBLEM, uncertainty_dim=0, objectives=["z1"] * 10,
            constraints=["z1 - 1"],
            uncertainty={"type": "finite", "points": [[]]})))
        assert main(argv[:1] + ["--problem", str(path), "--point", "0"]
                    + argv[1:]) == 1
        err = capsys.readouterr().err
        assert err == ("robustcert: error: a lattice of 38,567,100 rows "
                       "exceeds the limit of 10,000,000\n")

    # dual rays are enumerated for generator cones of up to three
    # objectives; the checks that read them refuse a fourth with the
    # library's message, and the others run
    @pytest.mark.parametrize("command,code", [
        ("check", 0), ("cq", 0), ("kkt --ygrid 3", 0),
        ("efficiency", 1), ("convexity", 1), ("report --ygrid 3", 1),
        pytest.param("dual --triple "
                     '{"y":[-0.5],"y_star":[0.25,0.25,0.25,0.25],"mu":[0]}',
                     1, id="dual-triple-1"),
    ])
    def test_four_objective_generator_cone(self, capsys, tmp_path, command,
                                           code):
        path = tmp_path / "four-rays.json"
        path.write_text(json.dumps(dict(
            LINE_PROBLEM, objectives=["z1", "-z1", "z1^2", "abs(z1)"],
            cone={"type": "generators", "rays": np.eye(4).tolist()})))
        # a robust feasible point, so the certifiers reach the cone
        assert main(command.split() + ["--problem", str(path),
                                       "--point", "-0.5"]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else
                       "robustcert: error: dual rays for generator cones are "
                       "provided up to dimension 3\n")

    def test_non_finite_problem_number_is_usage_error(self, capsys,
                                                      tmp_path):
        # an infinite box bound gives an empty grid, over which every
        # certifier holds vacuously
        data = json.loads(fixture_path("ex3_2").read_text())
        data["box"]["upper"][1] = float("inf")
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(data))
        assert main(["efficiency", "--problem", str(path),
                     "--point", "0,1"]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        {"uncertainty": {"type": "box", "lower": [[0, 1]],
                         "upper": [[1, 2]]}},
        {"uncertainty": {"type": "finite", "points": [[[0]], [[1]]]}},
        {"decision_dim": True},
        # numpy reads true and false as 1.0 and 0.0
        {"uncertainty": {"type": "box", "lower": [False], "upper": [1]}},
        {"uncertainty": {"type": "box", "lower": [0], "upper": [True]}},
        {"uncertainty": {"type": "finite", "points": [[0], [True]]}},
        {"box": {"lower": [False], "upper": [1]}},
        {"box": {"lower": [-1], "upper": [True]}},
        {"cone": {"type": "generators", "rays": [[True]]}},
        {"objectives": ["z1 + u1"]},
        # deeper than the parser can recurse, and deeper than MAX_DEPTH
        {"objectives": ["(" * 300 + "z1" + ")" * 300]},
        {"objectives": ["-" * 2000 + "z1"]},
        {"objectives": [" + ".join(["z1"] * 3000)]},
    ], ids=["box-bounds-not-flat", "finite-points-not-2d", "bool-dimension",
            "bool-uncertainty-lower", "bool-uncertainty-upper",
            "bool-finite-point", "bool-box-lower", "bool-box-upper",
            "bool-cone-ray", "objective-references-u", "nested-parentheses",
            "nested-minus-signs", "long-sum"])
    def test_malformed_problem_is_usage_error(self, capsys, tmp_path, change):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(dict(LINE_PROBLEM, **change)))
        assert main(["check", "--problem", str(path), "--point", "0.5"]) == 1
        assert ("robustcert: error: could not load problem"
                in capsys.readouterr().err)

    def test_unsupported_composition_is_internal_failure(self, capsys,
                                                         tmp_path):
        path = tmp_path / "hard.json"
        path.write_text(json.dumps(HARD_PROBLEM))
        assert main(["kkt", "--problem", str(path), "--point", "0,0"]) == 2
        assert "UnsupportedComposition" in capsys.readouterr().err
        # feasibility alone needs no subdifferentials, so `check` still runs
        assert main(["check", "--problem", str(path), "--point", "0,0"]) == 0


# ---------------------------------------------------------------------------
# output handling and determinism
# ---------------------------------------------------------------------------


def _without_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if "generated_at" not in line
    )


class TestOutput:
    def test_out_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["check", "--problem", "ex3_2", "--point", "0,1",
                     "--json", "--out", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(path.read_text())["feasibility"]["feasible"] is True

    def test_report_byte_identical_modulo_timestamp(self, tmp_path):
        argv = ["report", "--problem", "ex3_2", "--point", "0,1",
                "--samples", "60", "--json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        text_a, text_b = a.read_text(), b.read_text()
        assert text_a != text_b  # timestamps differ
        assert _without_timestamp(text_a) == _without_timestamp(text_b)

    def test_text_and_json_verdicts_agree(self, capsys):
        main(["kkt", "--problem", "ex3_2", "--point", "0,1"])
        text = capsys.readouterr().out
        rep = run_json(capsys, ["kkt", "--problem", "ex3_2",
                                "--point", "0,1"])
        assert ("found: true" in text) == rep["kkt"]["found"]
        assert ("verification.ok: true" in text) \
            == rep["kkt"]["verification"]["ok"]

    def test_config_echo_round_trips(self, capsys):
        rep = run_json(capsys, ["check", "--problem", "ex3_2",
                                "--point", "0,1", "--seed", "7",
                                "--grid", "31"])
        cfg = rep["config"]
        assert cfg["seed"] == 7
        assert cfg["grid"] == 31
        assert cfg["problem"] == "ex3_2"


# ---------------------------------------------------------------------------
# process-level wiring
# ---------------------------------------------------------------------------


def _declared_console_script(name):
    """Return the ``(module, attr)`` target that pyproject.toml declares for
    console script ``name`` under ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"no '{name}' entry in [project.scripts]"
    module, _, attr = scripts[name].partition(":")
    return module.strip(), attr.strip()


class TestProcess:
    def test_console_script_entry_point(self):
        # The executable that pip writes onto PATH is generated at install
        # time and is not part of the source tree; run the declared entry
        # point the way that wrapper does, against this checkout's code.
        module, attr = _declared_console_script("robustcert")
        assert callable(getattr(importlib.import_module(module), attr))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.argv[0] = 'robustcert'; sys.exit({attr}())")
        proc = subprocess.run(
            [sys.executable, "-c", wrapper,
             "check", "--problem", "ex3_2", "--point", "0,1", "--json"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["feasibility"]["feasible"] is True
