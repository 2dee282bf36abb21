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


def _shipped(name, divisions, checks, count=24):
    """A shipped scenario at other ``divisions``, running ``checks`` on a
    grid of ``count`` times."""
    text = (SCENARIO_DIR / f"{name}.ini").read_text()
    text, edits = re.subn(r"(?m)^divisions = .*$", f"divisions = {divisions}",
                          text)
    text, runs = re.subn(r"(?m)^checks = .*$", f"checks = {checks}", text)
    text, counts = re.subn(r"(?m)^count = .*$", f"count = {count}", text)
    assert edits == runs == counts == 1
    return text


# The 3-D L-shape (117 vertices) with a sheared field and B = 0.
SHEARED_LSHAPE = """
[domain]
shape = lshape
dim = 3
divisions = 4
[coefficient]
kind = matrix
entries = 2.0, 0.5, 0.0, -0.5, 2.0, 0.0, 0.0, 0.0, 2.0
[boundary_operator]
kind = zero
[run]
checks = contractivity
"""

# The unit interval with its two endpoints coupled by +-0.05: admissible
# (margin +0.784), with boundary margin -0.05.
ENDPOINT_COUPLING = """
[domain]
extents = 1.0
divisions = {divisions}
[coefficient]
kind = isotropic
value = 2.0
[boundary_operator]
kind = dense
entries = 0, 0.05, -0.05, 0
[run]
checks = contractivity
"""

# Item 18's criterion (Ouhabaz 2005, ch. 2): the shifted semigroup is
# sup-contractive if and only if the boundary margin
# min_i (T_ii - sum_{j != i} |T_ij|) of the boundary application matrix T
# is nonnegative.  The margin does not depend on the mesh, and no shift
# alpha repairs a negative one: the continuum semigroup leaves the sup
# ball near the boundary at short times.  Then the sup bound is no theorem
# for this B, and the status item 18 recommends is ``hypothesis unmet``,
# whatever the mesh reports.
NOT_SUP_CONTRACTIVE = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 18: sup-contraction is not decided from the "
    "boundary margin")

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
    # The continuum Neumann semigroup of a real elliptic A is
    # sub-Markovian (Ouhabaz 2005, ch. 4), so no continuum sup excess
    # exists to find.  P1 stiffness with the off-diagonal A has positive
    # off-diagonal entries, and the discrete semigroup leaves the sup
    # ball: a property of the mesh, not of the operator.  Today the run
    # reports ``failed`` (max_sup_excess +0.0163) and exits 1.
    pytest.param(SHEARED_LSHAPE, "contractivity", "discretization-limited",
                 marks=pytest.mark.xfail(
                     strict=True, raises=AssertionError,
                     reason="ROADMAP item 11: a property the P1 sign "
                     "pattern cannot carry is not told apart from a "
                     "failure"),
                 id="sheared-lshape-zero-B"),
    # The shipped cosine kernel's boundary margin is -0.0281 at every mesh
    # size, so by item 18's criterion its continuum semigroup is not
    # sup-contractive, although the kernel is admissible.  At 10
    # divisions (1 331 unknowns) mu_inf(-P) = +0.248 > 0 shows it on the
    # mesh too (+2.46e-8 at t = 1e-7, one expm), but the grid starts far
    # above that time, and today the run reports ``passed`` and exits 0.
    pytest.param(_shipped("cube_kernel", 10, "contractivity", count=4),
                 "contractivity", "hypothesis unmet",
                 marks=NOT_SUP_CONTRACTIVE, id="cube_kernel-10-divisions"),
    # Margin -0.05.  The continuum leaves the sup ball by +1.99e-4 near
    # t = 1e-4, below the grid.  Today the run reports ``passed`` at 8
    # divisions (max_sup_excess -4.3e-4) and ``failed`` at 64 (+3.3e-5)
    # and exits 1: the status follows the mesh, not B.
    pytest.param(ENDPOINT_COUPLING.format(divisions=8), "contractivity",
                 "hypothesis unmet", marks=NOT_SUP_CONTRACTIVE,
                 id="endpoint-coupling-8-divisions"),
    pytest.param(ENDPOINT_COUPLING.format(divisions=64), "contractivity",
                 "hypothesis unmet", marks=NOT_SUP_CONTRACTIVE,
                 id="endpoint-coupling-64-divisions"),
    # Margin -0.05, the beta of the multiplication.  The continuum leaves
    # the sup ball by +1.15e-3 at t = 4.9e-4 at a cube corner.  Today the
    # run reports ``failed`` (max_sup_excess +1.54e-4) and exits 1; at
    # the shipped 6 divisions it reports ``passed``.
    pytest.param(_shipped("cube_robin", 8, "contractivity"), "contractivity",
                 "hypothesis unmet", marks=NOT_SUP_CONTRACTIVE,
                 id="cube_robin-8-divisions"),
]


@pytest.mark.parametrize("text, check, expected", TRUTH)
def test_status_matches_truth(tmp_path, text, check, expected):
    path = tmp_path / "case.ini"
    path.write_text(text)
    run_scenario(path, output_dir=tmp_path / "out", stream=io.StringIO())
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert f"\n{check}.status: {expected}\n" in manifest
