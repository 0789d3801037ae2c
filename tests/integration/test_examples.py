"""The example scripts must run end to end (they are part of the public API surface)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, argv: list[str] | None = None) -> None:
    path = EXAMPLES_DIR / name
    old_argv = sys.argv
    sys.argv = [str(path)] + (argv or [])
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exit_info:  # CLI-style examples call sys.exit(main())
        assert exit_info.code in (0, None)
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        output = capsys.readouterr().out
        assert "Exact MC-SV values" in output
        assert "Relative l2 error" in output

    def test_hospital_collaboration(self, capsys):
        run_example("hospital_collaboration.py")
        output = capsys.readouterr().out
        assert "Shapley share" in output
        assert "Payment split" in output

    def test_scheme_comparison(self, capsys):
        run_example("scheme_comparison.py")
        output = capsys.readouterr().out
        assert "MC-SV contribution variance" in output

    @pytest.mark.slow
    def test_noisy_client_detection(self, capsys):
        run_example("noisy_client_detection.py")
        output = capsys.readouterr().out
        assert "free rider" in output

    def test_reproduce_paper_cli_tiny_figure4(self, capsys):
        run_example("reproduce_paper.py", ["figure4", "--scale", "tiny"])
        output = capsys.readouterr().out
        assert "Fig. 4" in output

    def test_reproduce_paper_cli_tiny_figure1b(self, capsys):
        """Fig. 1(b) runs the whole line-up as a plan through run_plan."""
        run_example("reproduce_paper.py", ["figure1b", "--scale", "tiny"])
        output = capsys.readouterr().out
        assert "Fig. 1(b)" in output
        for algorithm in ("IPSS", "Extended-TMC", "DIG-FL"):
            assert algorithm in output
        assert "MC-Shapley" not in output  # the reference is not a point
