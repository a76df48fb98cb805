"""Command-line surface: output schemas, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from ric_bounds import SphBranch, cli, i_uric_inner
from ric_bounds.bounds_lifted import signed_value
from ric_bounds.bounds_simple import BOUND_KINDS
from ric_bounds.cli import CSV_HEADER, main

from conftest import child_env

FAST = ["--outer-tol", "1e-3", "--inner-tol", "1e-8", "--max-evals", "4000"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_lower_simple_text(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--kind", "lower-simple", "--alpha", "0.7", "--rho", "0.3"], capsys
        )
        assert code == 0
        fields = dict(line.split(": ") for line in out.strip().splitlines())
        assert abs(float(fields["value"]) - 0.0247) <= 5e-4
        assert fields["converged"] == "true"
        assert "c3" not in fields

    def test_upper_simple_endpoint(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--kind", "upper-simple", "--alpha", "1.0", "--rho", "0.999999"], capsys
        )
        assert code == 0
        fields = dict(line.split(": ") for line in out.strip().splitlines())
        assert abs(float(fields["value"]) - 2.0) <= 1e-5

    def test_upper_lifted_reports_params(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--kind", "upper-lifted", "--alpha", "0.3", "--rho", "0.3"], capsys
        )
        assert code == 0
        fields = dict(line.split(": ") for line in out.strip().splitlines())
        assert abs(float(fields["value"]) - 2.1409) <= 5e-3
        assert {"c3", "gamma", "nu"} <= fields.keys()

    def test_accepts_beta_instead_of_rho(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--kind", "upper-simple", "--alpha", "0.5", "--beta", "0.05"], capsys
        )
        assert code == 0
        assert "value: 1.74713" in out

    def test_invalid_shape_exits_2(self, capsys):
        code, out, err = run_cli(
            ["bound", "--kind", "upper-simple", "--alpha", "0.5", "--rho", "1.0"], capsys
        )
        assert code == 2
        assert "error" in err

    def test_beta_and_rho_together_exit_2(self, capsys):
        code, _, err = run_cli(
            ["bound", "--kind", "upper-simple", "--alpha", "0.5", "--beta", "0.1", "--rho", "0.2"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("shape", [["--alpha", "0.5", "--beta", "1e-7"],
                                       ["--alpha", "1", "--rho", "0.9999995"]],
                             ids=["beta-below", "beta-above"])
    @pytest.mark.parametrize("kind", BOUND_KINDS)
    def test_beta_outside_domain_exits_2(self, kind, shape, capsys):
        """A beta outside [BETA_MIN, BETA_MAX] is a usage error for every
        kind: one error line, nothing on stdout, exit 2."""
        code, out, err = run_cli(["bound", "--kind", kind, *shape], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: beta must lie in ") and err.count("\n") == 1


class TestSweep:
    def test_upper_simple_grid_matches_references(self, capsys):
        code, out, _ = run_cli(["sweep", "--kinds", "upper-simple"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 30  # 5 alphas x 6 rhos
        with_reference = [r for r in rows if r[8] != ""]
        assert len(with_reference) == 25
        for r in with_reference:
            assert abs(float(r[9])) <= 5e-4  # delta column

    def test_empty_kinds_header_only(self, capsys):
        code, out, _ = run_cli(["sweep", "--kinds"], capsys)
        assert code == 0
        assert out == CSV_HEADER + "\n"

    def test_row_order_alpha_major_rho_minor_kind_last(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--alphas", "0.3", "0.1", "--rhos", "0.3", "0.1",
             "--kinds", "lower-simple", "upper-simple"],
            capsys,
        )
        assert code == 0
        keys = [tuple(line.split(",")[:3]) for line in out.strip().splitlines()[1:]]
        assert keys == [
            ("0.3", "0.3", "upper-simple"), ("0.3", "0.3", "lower-simple"),
            ("0.3", "0.1", "upper-simple"), ("0.3", "0.1", "lower-simple"),
            ("0.1", "0.3", "upper-simple"), ("0.1", "0.3", "lower-simple"),
            ("0.1", "0.1", "upper-simple"), ("0.1", "0.1", "lower-simple"),
        ]

    def test_failed_row_annotated_and_exit_3(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--alphas", "0.5", "--rhos", "1.0", "--kinds", "upper-simple"], capsys
        )
        assert code == 3
        row = out.strip().splitlines()[1].split(",")
        assert row[3] == ""  # no value
        assert row[7] == "false"
        assert "error" in err

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--alphas", "0.1", "--rhos", "0.1", "--kinds", "upper-simple",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["version"]
        assert payload["meta"]["config"]["kinds"] == ["upper-simple"]
        (row,) = payload["rows"]
        assert row["kind"] == "upper-simple"
        assert abs(row["value"] - 1.9192) <= 5e-4
        assert row["c3"] is None

    def test_lifted_sweep_row(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--alphas", "0.5", "--rhos", "0.1", "--kinds", "lower-lifted"] + FAST,
            capsys,
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert abs(float(row[3]) - 0.3618) <= 5e-3
        assert row[4] != "" and row[5] != "" and row[6] != ""

    def test_deterministic_bytes(self, capsys):
        argv = ["sweep", "--alphas", "0.3", "--rhos", "0.1", "0.3"] + FAST
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_lifted_rows_match_single_bounds(self, capsys):
        """Each swept row, reference and delta included, is the row of a
        single bound at its shape, for a simple kind and both lifted ones."""
        kinds = ["upper-simple", "upper-lifted", "lower-lifted"]
        _, out, _ = run_cli(
            ["sweep", "--alphas", "0.3", "--rhos", "0.1", "0.3", "--kinds", *kinds] + FAST,
            capsys,
        )
        swept = [line.split(",") for line in out.strip().splitlines()[1:]]
        single = []
        for rho in ("0.1", "0.3"):
            for kind in kinds:
                _, row, _ = run_cli(["bound", "--kind", kind, "--alpha", "0.3", "--rho", rho,
                                     "--format", "csv"] + FAST, capsys)
                single.append(row.strip().splitlines()[1].split(","))
        assert all(len(row) == 10 for row in swept) and any(row[8] for row in swept)
        assert swept == single

    def test_json_and_csv_rows_share_one_field_list(self, capsys):
        """Over simple, lifted and failed cells, each JSON row holds
        CSV_HEADER's fields, inner_delta and, on a failed cell only, error;
        each CSV field is its JSON value at %.6g, as true/false, or empty."""
        argv = ["sweep", "--alphas", "0.5", "--rhos", "0.1", "1.0"]
        json_code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        rows = json.loads(out)["rows"]
        csv_code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
        lines = out.splitlines()
        assert json_code == csv_code == 3 and lines[0] == CSV_HEADER
        assert len(lines) == len(rows) + 1 == 9

        def render(value):
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, str):
                return value
            return "%.6g" % (0.0 if value == 0.0 else value)

        fields = CSV_HEADER.split(",")
        for row, line in zip(rows, lines[1:]):
            failed = row["value"] is None
            assert set(row) == {*fields, "inner_delta", *(["error"] if failed else [])}
            assert line.split(",") == [render(row[field]) for field in fields]
        kinds = {(row["kind"], row["value"] is None) for row in rows}
        assert kinds == {(kind, failed) for kind in BOUND_KINDS for failed in (False, True)}
        assert any(row["c3"] is not None for row in rows) and any(row["delta"] for row in rows)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--alphas", "--rhos"])
    def test_non_finite_grid_value_exits_2(self, flag, value, capsys):
        """NaN is not JSON and names no cell: a usage error, nothing on stdout."""
        argv = ["sweep", "--alphas", "0.5", "--rhos", "0.3", f"{flag}={value}", "--format", "json"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} must be finite") and err.count("\n") == 1

    def test_optimizer_flags_are_checked_before_the_grid(self, capsys):
        code, out, err = run_cli(["sweep", "--alphas", "nan", "--max-evals", "0"], capsys)
        assert (code, out) == (2, "")
        assert "--alphas" not in err and "budget" in err


class TestEmpirical:
    ARGS = ["empirical", "--m", "5", "--n", "8", "--k", "2", "--trials", "5", "--seed", "1",
            "--support-budget", "100"] + FAST
    # 10 of the C(8, 2) = 28 supports per trial.
    SAMPLED = ["empirical", "--m", "5", "--n", "8", "--k", "2", "--trials", "5", "--seed", "1",
               "--support-budget", "10"] + FAST

    def test_smoke_and_verdict(self, capsys):
        code, out, _ = run_cli(self.ARGS, capsys)
        assert code == 0
        assert "mode: exhaustive" in out
        assert "supports-per-trial: 28" in out
        assert out.strip().endswith("verdict: PASS")

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(self.ARGS, capsys)
        _, second, _ = run_cli(self.ARGS, capsys)
        assert first == second

    def test_infeasible_dimensions_exit_2(self, capsys):
        code, _, err = run_cli(
            ["empirical", "--m", "8", "--n", "8", "--k", "2", "--trials", "1"], capsys
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("flag", ["--trials", "--support-budget"])
    def test_nonpositive_count_exits_2(self, flag, capsys, monkeypatch):
        """A count below 1 is a usage error caught before the oracle runs:
        one error line naming the flag, nothing on stdout, exit 2."""
        monkeypatch.setattr(cli, "empirical_ric", None)  # must not be reached
        code, out, err = run_cli(self.ARGS + [flag, "0"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize("slack", ["nan", "inf", "-inf"])
    def test_non_finite_slack_exits_2(self, slack, capsys, monkeypatch):
        """A NaN slack fails both sides and would print a conclusive FAIL;
        an infinite one decides the verdict alone.  Either is a usage error:
        one error line naming the flag, nothing on stdout, exit 2."""
        monkeypatch.setattr(cli, "empirical_ric", None)  # must not be reached
        argv = ["empirical", "--m", "5", "--n", "8", "--k", "2", "--trials", "2"]
        code, out, err = run_cli(argv + [f"--slack={slack}"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--slack" in err and err.count("\n") == 1

    def test_beta_outside_domain_exits_2_before_the_oracle(self, capsys, monkeypatch):
        """k/n = 5e-7 is below BETA_MIN while 0 < k < m < n holds: the
        shape check rejects it before the oracle runs, as ``bound`` does."""
        def oracle(*args, **kwargs):
            pytest.fail("the empirical oracle ran on an out-of-domain shape")
        monkeypatch.setattr(cli, "empirical_ric", oracle)
        code, out, err = run_cli(["empirical", "--m", "2", "--n", "2000000", "--k", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: beta must lie in ") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_non_converged_lifted_bound_exits_3(self, fmt, capsys):
        """At (10, 40, 9) the lower family's optimum lies past the searched
        c3 range, as ``bound --kind lower-lifted --alpha 0.25 --beta 0.225``
        reports.  Every value and the verdict are still printed, and one
        error line names the non-converged kind."""
        argv = ["empirical", "--m", "10", "--n", "40", "--k", "9", "--trials", "2",
                "--support-budget", "1000", "--format", fmt]
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert err == "error: lower-lifted at alpha=0.25 beta=0.225: optimizer did not converge\n"
        if fmt == "json":
            payload = json.loads(out)
            assert len(payload["bounds"]) == 4 and "verdict" in payload["sandwich"]
        else:
            assert "lower-lifted: -0.00293111" in out
            assert out.strip().endswith("verdict: no violation found (sampled)")

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(self.ARGS + ["--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"meta", "empirical", "bounds", "sandwich"}
        assert payload["empirical"]["uric"]["mode"] == "exhaustive"
        assert payload["sandwich"]["verdict"] is True
        assert payload["sandwich"]["conclusive"] is True

    def test_sampled_pass_is_inconclusive(self, capsys):
        """Sampled extremes sit inside the exhaustive ones, so the sandwich
        holding on them is no evidence."""
        code, out, _ = run_cli(self.SAMPLED, capsys)
        assert code == 0
        assert "mode: sampled" in out
        assert out.strip().endswith("verdict: no violation found (sampled)")
        assert "verdict: PASS" not in out
        _, out, _ = run_cli(self.SAMPLED + ["--format", "json"], capsys)
        sandwich = json.loads(out)["sandwich"]
        assert sandwich["verdict"] is True and sandwich["conclusive"] is False

    def test_sampled_fail_is_conclusive(self, capsys):
        """A negative slack the sampled uric mean cannot meet: sampling only
        understates uric, so the exhaustive run would fail too."""
        failing = self.SAMPLED + ["--slack", "-5"]
        _, out, _ = run_cli(failing, capsys)
        assert out.strip().endswith("verdict: FAIL")
        _, out, _ = run_cli(failing + ["--format", "json"], capsys)
        sandwich = json.loads(out)["sandwich"]
        assert sandwich["verdict"] is False and sandwich["conclusive"] is True


class TestInvalidConfig:
    """An optimizer flag that OptimizerConfig rejects is a usage error in
    every subcommand: one error line, nothing on stdout, exit 2."""

    COMMANDS = {
        "bound": ["bound", "--kind", "upper-lifted", "--alpha", "0.5", "--rho", "0.3"],
        "sweep": ["sweep", "--alphas", "0.5", "--rhos", "0.3"],
        "empirical": ["empirical", "--m", "5", "--n", "8", "--k", "2", "--trials", "1"],
    }

    @pytest.mark.parametrize("flag", ["--max-evals", "--inner-tol", "--c3-min"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exits_2_with_error_line(self, command, flag, capsys):
        code, out, err = run_cli(self.COMMANDS[command] + [flag, "0"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_multistart_is_an_unknown_flag(self, command, capsys):
        """--multistart was removed: argparse rejects it with exit 2."""
        with pytest.raises(SystemExit) as exc:
            main(self.COMMANDS[command] + ["--multistart", "2"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --multistart 2" in captured.err

    @pytest.mark.parametrize("argv", [
        ["bound", "--kind", "lower-lifted", "--alpha", "0.5", "--rho", "0.2"],
        COMMANDS["sweep"],
    ], ids=["bound", "sweep"])
    def test_infinite_c3_max_exits_2(self, argv, capsys):
        """An infinite bracket end is rejected up front, not left to a
        solve at c3 = inf."""
        code, out, err = run_cli(argv + ["--c3-max", "inf"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["bound", "--kind", "lower-lifted", "--alpha", "0.5", "--rho", "0.2"],
        COMMANDS["sweep"],
    ], ids=["bound", "sweep"])
    def test_c3_max_above_the_ceiling_exits_2(self, argv, capsys):
        """At c3 = 1e160 the spherical term's c3^2 overflows, so the
        bracket is rejected up front, not left to crash in a solve."""
        code, out, err = run_cli(argv + ["--c3-max", "1e160"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


    @pytest.mark.parametrize("c3_min", ["1e-300", "1e-150"])
    def test_c3_min_below_the_floor_exits_2(self, c3_min, capsys):
        """Below its floor the bracket is rejected: at 1e-300, c3^2
        underflows, and at 1e-150 the slope of the objective is rounding
        noise, so the search would report the c3 -> 0 limit as converged."""
        argv = ["bound", "--kind", "lower-lifted", "--alpha", "0.5", "--rho", "0.2"]
        code, out, err = run_cli(argv + ["--c3-min", c3_min], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestLargeC3:
    @pytest.mark.parametrize("kind", ["upper-lifted", "lower-lifted"])
    def test_huge_c3_max_finds_the_default_optimum(self, kind, capsys):
        """With c3 up to 1e30 the search evaluates the objective near
        c3 = 4e30, where c3/(2 ghat) rounds to 1 and gamma to c3/2; it
        still finds the optimum of the default bracket, converged."""
        argv = ["bound", "--kind", kind, "--alpha", "0.5", "--rho", "0.2"]
        code, default, _ = run_cli(argv, capsys)
        assert code == 0
        code, wide, err = run_cli(argv + ["--c3-max", "1e30"], capsys)
        assert code == 0, err
        values = [dict(line.split(": ") for line in out.strip().splitlines())
                  for out in (default, wide)]
        assert values[1]["value"] == values[0]["value"]
        assert values[1]["converged"] == "true"


class TestCallContract:
    """The subcommands reach every solver through the cli module's globals,
    looked up at call time.  perfbench/workloads.py::_cli_boundary and the
    cli entries of tracer.HOOKS in perfbench/tracer.py replace exactly these
    names to record and time each call; a call that bypasses them (a local
    import of empirical_ric, say) leaves the benchmark with nothing to check
    and the run counted as failed."""

    NAMES = ("empirical_ric", "optimize_upper", "optimize_lower", "simple_upper", "simple_lower")

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in self.NAMES:
            def recorder(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, recorder)
        return calls

    def test_empirical_calls_each_once_through_module_globals(self, calls, capsys):
        code, out, _ = run_cli(TestEmpirical.ARGS, capsys)
        assert code == 0
        assert out.strip().endswith("verdict: PASS")
        assert sorted(calls) == sorted(self.NAMES)

    def test_sweep_calls_each_bound_once_through_module_globals(self, calls, capsys):
        code, _, _ = run_cli(["sweep", "--alphas", "0.5", "--rhos", "0.3"], capsys)
        assert code == 0
        assert sorted(calls) == sorted(set(self.NAMES) - {"empirical_ric"})


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ric_bounds.cli", "bound", "--kind", "upper-simple",
             "--alpha", "0.5", "--rho", "0.1"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "value: 1.74713" in proc.stdout

    def test_usage_error_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ric_bounds.cli", "bound", "--kind", "sideways"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 2


class TestJsonInnerDelta:
    """``--format json`` rows carry the exact inner delta = gamma - c3/2 as
    ``inner_delta`` (``delta`` is value - reference); CSV and text do not."""

    @staticmethod
    def _reproduced(row, beta):
        branch = SphBranch.PLUS if row["kind"] == "upper-lifted" else SphBranch.MINUS
        k = i_uric_inner(row["c3"], beta, None, row["nu"], delta=row["inner_delta"])
        value = signed_value(row["c3"], row["alpha"], k, branch)
        return value if branch is SphBranch.PLUS else -value

    def test_bound_point_reproduces_the_value_past_gamma_resolution(self, capsys):
        """At c3 = 4e7 the printed gamma is c3/2 and the binary gamma is
        one ulp (3.7e-9) above it, so neither carries delta ~ 3.4e-9: only
        inner_delta locates the reported point."""
        argv = ["bound", "--kind", "lower-lifted", "--alpha", "0.3", "--rho", "0.9",
                "--c3-max", "1e7"]
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 3
        (row,) = json.loads(out)["rows"]
        assert row["c3"] == 4e7 and row["gamma"] - 2e7 != row["inner_delta"] > 0.0
        assert self._reproduced(row, 0.9 * 0.3) == row["value"]
        _, text, _ = run_cli(argv, capsys)
        assert "gamma: 2e+07\n" in text and "delta" not in text
        _, csv, _ = run_cli(argv + ["--format", "csv"], capsys)
        assert csv.splitlines()[0] == CSV_HEADER and len(csv.splitlines()[1].split(",")) == 10

    def test_sweep_rows_reproduce_their_values(self, capsys):
        code, out, _ = run_cli(["sweep", "--alphas", "0.5", "0.9", "--rhos", "0.1", "0.9",
                                "--format", "json"], capsys)
        assert code == 3
        rows = json.loads(out)["rows"]
        assert len(rows) == 16
        for row in rows:
            if row["kind"].endswith("simple"):
                assert row["inner_delta"] is None
            else:
                beta = row["rho"] * row["alpha"]
                assert self._reproduced(row, beta) == row["value"], row


class TestBoundCsvFormat:
    def test_csv_row_schema(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--kind", "upper-simple", "--alpha", "0.5", "--rho", "0.1",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == CSV_HEADER
        fields = row.split(",")
        assert fields[2] == "upper-simple"
        assert abs(float(fields[3]) - 1.7471) <= 5e-4


class TestBoundNonConvergence:
    def test_exit_3_with_value_still_printed(self, capsys):
        """Past the tabulated regime the lower family's optimum lies at or
        past the upper end of the searched c3 range; the bound must still
        print."""
        code, out, _ = run_cli(
            ["bound", "--kind", "lower-lifted", "--alpha", "0.1", "--rho", "0.7"] + FAST,
            capsys,
        )
        assert code == 3
        fields = dict(line.split(": ") for line in out.strip().splitlines())
        assert fields["converged"] == "false"
        assert float(fields["value"]) <= 0.1  # tiny bound, still reported
