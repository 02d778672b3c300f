"""Smoke test of tools/system_lines.py: the tracer on one CLI command."""
import sys
from pathlib import Path

from click.testing import CliRunner

from paqft import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import system_lines  # noqa: E402


def test_system_lines_reports_what_paqft_graphs_leaves_out(tmp_path):
    def graphs():
        res = CliRunner().invoke(cli.main, ["graphs", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output

    report = system_lines.not_run(graphs)["graphs"]
    missed, count = report["graph_expand_Tn"]
    assert len(missed) == count > 0  # no statement of it ran
    missed, count = report.get("enumerate_graphs", ([], None))
    assert count is None or len(missed) < count  # it ran
    assert "symmetry_factor" not in report  # every statement ran
