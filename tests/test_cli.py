"""Command-line surface: output schemas, exit codes, determinism."""

import json
import subprocess
import sys

from ric_bounds.cli import CSV_HEADER, main

FAST = ["--multistart", "2", "--outer-tol", "1e-3", "--inner-tol", "1e-8", "--max-evals", "4000"]


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
        """The lifted kinds of one shape share inner solves, and the map is
        cleared between shapes; neither may change a printed field."""
        kinds = ["upper-lifted", "lower-lifted"]
        _, out, _ = run_cli(
            ["sweep", "--alphas", "0.3", "--rhos", "0.1", "0.3", "--kinds", *kinds] + FAST,
            capsys,
        )
        swept = [line.split(",")[3:8] for line in out.strip().splitlines()[1:]]
        single = []
        for rho in ("0.1", "0.3"):
            for kind in kinds:
                _, row, _ = run_cli(["bound", "--kind", kind, "--alpha", "0.3", "--rho", rho,
                                     "--format", "csv"] + FAST, capsys)
                single.append(row.strip().splitlines()[1].split(",")[3:8])
        assert swept == single


class TestEmpirical:
    ARGS = ["empirical", "--m", "5", "--n", "8", "--k", "2", "--trials", "5", "--seed", "1",
            "--support-budget", "100"] + FAST

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

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(self.ARGS + ["--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"meta", "empirical", "bounds", "sandwich"}
        assert payload["empirical"]["uric"]["mode"] == "exhaustive"
        assert payload["sandwich"]["verdict"] is True


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ric_bounds.cli", "bound", "--kind", "upper-simple",
             "--alpha", "0.5", "--rho", "0.1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "value: 1.74713" in proc.stdout

    def test_usage_error_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ric_bounds.cli", "bound", "--kind", "sideways"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


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
        """Past the tabulated regime the lower family does not converge
        within the widened bracket; the bound must still print."""
        code, out, _ = run_cli(
            ["bound", "--kind", "lower-lifted", "--alpha", "0.1", "--rho", "0.7"] + FAST,
            capsys,
        )
        assert code == 3
        fields = dict(line.split(": ") for line in out.strip().splitlines())
        assert fields["converged"] == "false"
        assert float(fields["value"]) <= 0.1  # tiny bound, still reported
