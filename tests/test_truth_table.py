"""Statuses held against truth, not against an earlier version of the
code.

Each entry is a small input, the status one check must report on it,
and the argument that gives that status.  An entry the code does not
meet yet is a strict ``xfail`` that names the ROADMAP item that mends
it, so the change that mends the input flips the entry, and nothing else
does.
"""

import io
import re
from pathlib import Path

import pytest

from robinheat.cli import run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _shipped(name, divisions, checks):
    """A shipped scenario at other ``divisions``, running ``checks``."""
    text = (SCENARIO_DIR / f"{name}.ini").read_text()
    text, edits = re.subn(r"(?m)^divisions = .*$", f"divisions = {divisions}",
                          text)
    text, runs = re.subn(r"(?m)^checks = .*$", f"checks = {checks}", text)
    assert edits == runs == 1
    return text


TRUTH = [
    # At 2 divisions the mesh resolves only t >= h^2 = 0.25, while the
    # spectral gap puts the plateau from 1/(lambda2 - lambda1) = 0.068 on:
    # no grid time shows the short-time rate.  Today the fit takes the
    # window 0.25-0.71 on the plateau, reads slope -0.963 and reports
    # ``failed``.
    pytest.param(_shipped("cube_robin", 2, "ultracontractivity"),
                 "ultracontractivity", "discretization-limited",
                 marks=pytest.mark.xfail(
                     strict=True, raises=AssertionError,
                     reason="ROADMAP item 17: the fit window is not "
                     "bounded by the resolved scale and the gap"),
                 id="cube_robin-2-divisions"),
]


@pytest.mark.parametrize("text, check, expected", TRUTH)
def test_status_matches_truth(tmp_path, text, check, expected):
    path = tmp_path / "case.ini"
    path.write_text(text)
    run_scenario(path, output_dir=tmp_path / "out", stream=io.StringIO())
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert f"\n{check}.status: {expected}\n" in manifest
