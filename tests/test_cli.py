import json
import math

import pytest
from click.testing import CliRunner

from utmqp import cli
from utmqp.cli import main
from utmqp.solvers import _FAMILIES
from utmqp.verification import VerificationReport

HEAT_PROBLEM = {
    "pde": "heat",
    "u0": {"name": "exp_decay", "a": 1.0},
    "g0": {"name": "exp_of_t", "a": -1.0},
    "f": {"name": "zero"},
}

HEAT_FORCED = {
    "pde": "heat",
    "u0": {"name": "exp_decay", "a": 1.0},
    "g0": {"name": "exp_of_t", "a": -1.0},
    "f": {"name": "separable", "x": {"name": "exp_decay", "a": 1.0},
          "t": {"name": "constant", "c": 1.0}},
}

KDV_STEP = {
    "pde": "kdv",
    "u0": {"name": "zero"},
    "g0": {"name": "constant", "c": 1.0},
    "f": {"name": "zero"},
}


@pytest.fixture()
def runner():
    return CliRunner()


def write_problem(tmp_path, payload, name="p.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestSolveCommand:
    def test_grid_csv(self, runner, tmp_path):
        problem = write_problem(tmp_path, HEAT_PROBLEM)
        out = tmp_path / "field.csv"
        result = runner.invoke(
            main,
            ["solve", "--problem", problem, "--grid", "0.1:3:10,0.1:2:8",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,t,U,err,term1,term2,term3,term4,term5"
        assert len(lines) == 81  # header + 80 samples
        first = lines[1].split(",")
        assert len(first) == 9
        assert float(first[2]) > 0  # the field is positive for this datum

    def test_grid_must_be_interior(self, runner, tmp_path):
        problem = write_problem(tmp_path, HEAT_PROBLEM)
        result = runner.invoke(
            main,
            ["solve", "--problem", problem, "--grid", "0:3:4,0.1:2:3",
             "--out", str(tmp_path / "f.csv")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("grid", ["nan:1:2,0.1:1:2", "0.1:inf:2,0.1:1:2"])
    def test_grid_must_be_finite(self, runner, tmp_path, grid):
        problem = write_problem(tmp_path, HEAT_PROBLEM)
        result = runner.invoke(
            main,
            ["solve", "--problem", problem, "--grid", grid,
             "--out", str(tmp_path / "f.csv")],
        )
        assert result.exit_code == 2
        assert "finite" in result.output

    def test_malformed_json_reports_location(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"pde": "heat", \n "u0": }')
        result = runner.invoke(
            main,
            ["solve", "--problem", str(path), "--grid", "0.5:1:2,0.5:1:2",
             "--out", str(tmp_path / "f.csv")],
        )
        assert result.exit_code == 2
        assert "line 2" in result.output

    def test_time_only_space_factor_is_a_bad_spec(self, runner, tmp_path):
        forced = dict(HEAT_FORCED, f={"name": "separable",
                                      "x": {"name": "exp_of_t", "a": -1.0},
                                      "t": {"name": "constant", "c": 1.0}})
        problem = write_problem(tmp_path, forced)
        result = runner.invoke(
            main,
            ["solve", "--problem", problem, "--grid", "0.5:1:2,0.5:1:2",
             "--out", str(tmp_path / "f.csv")],
        )
        assert result.exit_code == 2
        assert "bad problem spec" in result.output
        assert "exp_of_t" in result.output

    def test_determinism(self, runner, tmp_path):
        problem = write_problem(tmp_path, HEAT_PROBLEM)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["solve", "--problem", problem, "--grid", "0.5:2:3,0.3:1:2",
                 "--out", str(out), "--threads", "3"],
            )
            assert result.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestVerifyCommand:
    def test_compatible_problem_passes(self, runner, tmp_path):
        problem = write_problem(tmp_path, HEAT_PROBLEM)
        report = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["verify", "--problem", problem, "--checks", "residual,recovery",
             "--out", str(report)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(report.read_text())
        assert payload["all_passed"]
        names = [c["name"] for c in payload["checks"]]
        assert names == ["residual", "boundary_recovery"]
        for check in payload["checks"]:
            assert check["passed"]
            assert "measured" in check and "thresholds" in check

    @pytest.mark.parametrize(
        "payload,checks",
        [
            (HEAT_PROBLEM, "decay,oracle"),
            (HEAT_PROBLEM, "energy"),
            (KDV_STEP, "decay,oracle"),
            (HEAT_FORCED, "residual"),
            (KDV_STEP, "energy"),
        ],
    )
    def test_checks_pass(self, runner, tmp_path, payload, checks):
        problem = write_problem(tmp_path, payload)
        result = runner.invoke(
            main, ["verify", "--problem", problem, "--checks", checks]
        )
        assert result.exit_code == 0, result.output
        names = checks.split(",")
        assert result.output.splitlines() == [f"{n}: PASS" for n in names]

    def test_unknown_check_is_usage_error(self, runner, tmp_path):
        problem = write_problem(tmp_path, HEAT_PROBLEM)
        result = runner.invoke(
            main, ["verify", "--problem", problem, "--checks", "vibes"]
        )
        assert result.exit_code == 2


class TestCounterexampleCommand:
    def test_heat_family_report(self, runner, tmp_path):
        out = tmp_path / "ce.csv"
        report = tmp_path / "violations.json"
        result = runner.invoke(
            main,
            ["counterexample", "--pde", "heat", "--n", "1",
             "--out", str(out), "--report", str(report)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(report.read_text())
        assert payload["violated"]
        assert abs(payload["energy_exponent"] + 1.5) <= 0.05
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,t,u"
        assert len(lines) > 1

    def test_kdv_family_report(self, runner, tmp_path):
        # u1 = z Ai(z) / t with z = x (3t)^{-1/3} gives E ~ t^{-5/3}
        report = tmp_path / "violations.json"
        result = runner.invoke(
            main, ["counterexample", "--pde", "kdv", "--n", "1",
                   "--report", str(report)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(report.read_text())
        assert payload["violated"]
        assert abs(payload["energy_exponent"] + 5.0 / 3.0) <= 0.05

    def test_bad_order(self, runner):
        result = runner.invoke(main, ["counterexample", "--pde", "heat", "--n", "0"])
        assert result.exit_code == 2


class TestReduceCommand:
    def test_robin_pass(self, runner, tmp_path):
        report = tmp_path / "r.json"
        result = runner.invoke(
            main,
            ["reduce", "--mode", "robin", "--A", "1", "--B", "2",
             "--report", str(report)],
        )
        assert result.exit_code == 0
        payload = json.loads(report.read_text())
        assert payload["passed"] and payload["branch"] == "regular"

    def test_oblique_pass(self, runner):
        result = runner.invoke(
            main, ["reduce", "--mode", "oblique", "--A", "1", "--B", "1", "--C", "1"]
        )
        assert result.exit_code == 0

    def test_oblique_invalid_parameters(self, runner):
        result = runner.invoke(
            main, ["reduce", "--mode", "oblique", "--A", "1", "--B", "0", "--C", "1"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args,name",
        [
            (["--mode", "oblique", "--A", "1", "--B", "1", "--C", "nan"], "C"),
            (["--mode", "robin", "--A", "nan", "--B", "1"], "A"),
            (["--mode", "oblique", "--A", "1", "--B", "1e-200", "--C", "1"], "B"),
        ],
    )
    def test_unusable_parameters_are_usage_errors(self, runner, args, name):
        result = runner.invoke(main, ["reduce", *args])
        assert result.exit_code == 2, result.output
        assert f"Error: {name}" in result.output


class TestSweepCommand:
    def test_orders_csv(self, runner, tmp_path):
        problem = write_problem(tmp_path, HEAT_PROBLEM)
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            ["sweep", "--problem", problem, "--grid", "0.5:1.5:2,0.5:1:2",
             "--orders", "0,0;1,0;0,1", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,t,d00,d10,d01"
        assert len(lines) == 5


class TestDumpCommands:
    def test_dump_contour(self, runner, monkeypatch):
        result = runner.invoke(main, ["dump-contour", "--name", "heat"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert [s["kind"] for s in payload["segments"]] == ["ray", "ray"]
        # rays anchored off the origin serialise their start: the tilted
        # tails of the kdv line split
        tails = lambda: _FAMILIES["kdv"].line_split.tilted(0.1)
        monkeypatch.setattr(cli, "heat_contour", tails)
        result = runner.invoke(main, ["dump-contour", "--name", "heat"])
        assert result.exit_code == 0
        segments = json.loads(result.output)["segments"]
        assert [s["start"] for s in segments] == [[-1.0, 0.0], [1.0, 0.0]]
        assert [s["angle"] for s in segments] == [math.pi - 0.1, 0.1]

    def test_dump_transform(self, runner, tmp_path):
        problem = write_problem(tmp_path, HEAT_PROBLEM)
        out = tmp_path / "t.csv"
        result = runner.invoke(
            main,
            ["dump-transform", "--problem", problem, "--lam-grid", "-5:5:11",
             "--out", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re_lambda,im_lambda,re_uhat,im_uhat"
        assert len(lines) == 12
        # uhat(0) = 1 for the unit-rate decaying datum
        mid = lines[6].split(",")
        assert float(mid[0]) == 0.0
        assert float(mid[2]) == pytest.approx(1.0, abs=1e-9)


class TestEnvironmentAndExitCodes:
    def test_verify_failure_exits_one(self, runner, tmp_path, monkeypatch):
        import utmqp.cli as cli_mod

        problem = write_problem(tmp_path, HEAT_PROBLEM)
        monkeypatch.setitem(
            cli_mod._CHECKS,
            "residual",
            lambda p, cfg: VerificationReport("residual", "", {}, {}, False),
        )
        result = runner.invoke(
            main, ["verify", "--problem", problem, "--checks", "residual"]
        )
        assert result.exit_code == 1
        assert "FAIL" in result.output


class TestSweepColumns:
    def test_derivative_columns_match_direct_evaluation(self, runner, tmp_path):
        from utmqp.profiles import problem_from_dict
        from utmqp.solvers import solve_derivative

        problem = write_problem(tmp_path, HEAT_PROBLEM)
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            ["sweep", "--problem", problem, "--grid", "0.8:0.8:1,0.6:0.6:1",
             "--orders", "0,0;1,0", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        row = out.read_text().strip().splitlines()[1].split(",")
        p = problem_from_dict(HEAT_PROBLEM)
        assert float(row[2]) == pytest.approx(
            solve_derivative(p, 0, 0, 0.8, 0.6).value, abs=1e-12
        )
        assert float(row[3]) == pytest.approx(
            solve_derivative(p, 1, 0, 0.8, 0.6).value, abs=1e-12
        )
