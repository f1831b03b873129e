"""Report generator + its CLI command."""

import pytest

from repro.cli import main
from repro.report import ReportRow, generate_report


def test_report_row_markdown():
    row = ReportRow("Fig 1", "latency", "212", "210", True)
    text = row.markdown()
    assert text.startswith("| Fig 1 |")
    assert "ok" in text
    assert "DEVIATES" in ReportRow("x", "y", "1", "9", False).markdown()


def test_generate_report_fast():
    report = generate_report(include_mesh=False)
    assert report.startswith("# Reproduction report")
    assert "Fig 9b" in report and "Fig 12" in report
    assert "DEVIATES" not in report        # all fast checks pass
    assert "checks within tolerance" in report


def test_report_cli(capsys):
    assert main(["report", "--no-mesh"]) == 0
    out = capsys.readouterr().out
    assert "| experiment |" in out


@pytest.mark.parametrize("seed", [0, 5])
def test_report_text_identical_across_device_engines(seed):
    """The device default may switch engines without moving a byte."""
    scalar = generate_report(seed=seed, include_mesh=False, engine="scalar")
    fast = generate_report(seed=seed, include_mesh=False,
                           engine="vectorized")
    assert scalar == fast
