"""Scenario parsing, the runner's outputs, and manifest comparison.

Runner tests use a 4-cell interval so each invocation stays in the
millisecond range; the determinism test asserts byte identity of the
rewritten CSV and manifest, which is the contract the compare command
relies on.
"""

import contextlib
import dataclasses
import gc
import inspect
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import robinheat
from robinheat import semigroup, verify
from robinheat.cli import (
    _SCHEMA,
    ScenarioError,
    compare_manifests,
    main,
    parse_scenario,
    run_scenario,
)

INTERVAL_SCENARIO = """\
# absorbing endpoints on the unit interval
[domain]
shape = box
extents = 1.0
divisions = 4

[coefficient]
kind = isotropic
value = 2.0

[boundary_operator]
kind = multiplication
beta = -0.1

[time_grid]
t_max = 1.0
ratio = 0.5
count = 10

[run]
checks = accretivity,continuity,contractivity,positivity,domination
samples = 40
seed = 2024
"""


def write_scenario(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- parsing -------------------------------------------------------------

def test_parse_complete_scenario():
    scenario = parse_scenario(INTERVAL_SCENARIO)
    assert scenario.domain["shape"] == "box"
    assert scenario.domain["extents"] == [1.0]
    assert scenario.domain["divisions"] == 4
    assert scenario.coefficient == {"kind": "isotropic", "value": 2.0}
    assert scenario.boundary_operator == {"kind": "multiplication",
                                          "beta": -0.1, "profile": "constant",
                                          "scale": 1.0}
    assert scenario.time_grid == {"t_max": 1.0, "ratio": 0.5, "count": 10}
    assert scenario.checks == ["accretivity", "continuity", "contractivity",
                               "positivity", "domination"]
    assert scenario.samples == 40
    assert scenario.seed == 2024


EVERY_KEY = """\
[domain]
shape = lshape
extents = 2.0, 3.0
divisions = 4
dim = 3
[coefficient]
kind = matrix
value = 2.5
values = 1.0, 2.0
entries = 2.0, 0.5 / -0.5, 2.0
[boundary_operator]
kind = kernel
beta = -0.25
profile = gaussian
scale = 0.5
width = 0.2
entries = 1, 2 / 3, 4
[time_grid]
t_max = 2.0
ratio = 0.5
count = 7
[run]
checks = nash, positivity
samples = 9
seed = 0
output_dir = runs/here
"""


def test_parse_reads_back_every_schema_key():
    """Every key of the schema, set once, is read back parsed: the
    builder sections as their dicts, and [run] as Scenario attributes."""
    expected = {
        "domain": {"shape": "lshape", "extents": [2.0, 3.0],
                   "divisions": 4, "dim": 3},
        "coefficient": {"kind": "matrix", "value": 2.5, "values": [1.0, 2.0],
                        "entries": [2.0, 0.5, -0.5, 2.0]},
        "boundary_operator": {"kind": "kernel", "beta": -0.25,
                              "profile": "gaussian", "scale": 0.5,
                              "width": 0.2, "entries": [1.0, 2.0, 3.0, 4.0]},
        "time_grid": {"t_max": 2.0, "ratio": 0.5, "count": 7},
        "run": {"checks": ["nash", "positivity"], "samples": 9, "seed": 0,
                "output_dir": "runs/here"},
    }
    assert ({section: set(keys) for section, keys in expected.items()}
            == {section: set(keys) for section, keys in _SCHEMA.items()})
    scenario = parse_scenario(EVERY_KEY)
    for section, values in expected.items():
        if section == "run":
            assert {key: getattr(scenario, key) for key in values} == values
        else:
            assert getattr(scenario, section) == values
    assert scenario.headers == {"domain": 1, "coefficient": 6,
                                "boundary_operator": 11, "time_grid": 18,
                                "run": 22}


def test_readme_key_table_matches_the_schema():
    """The README's key table lists every key of ``_SCHEMA`` with its
    default as a scenario file writes it, the cell's first code span (a
    dash: none), the keyword defaults of the time grid are the schema's,
    and an L-shape without ``dim`` takes the builder's default, 2."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| section | key | type | default |") + 2
    table, section = {}, None
    for row in itertools.takewhile(lambda line: line.startswith("|"),
                                   lines[start:]):
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        section = cells[0].strip("`[]") or section
        default = (None if cells[3].startswith("-")
                   else re.match(r"`(.*?)`", cells[3])[1])
        table.setdefault(section, {})[cells[1].strip("`")] = default
    assert table == {section: {key: default for key, (_, default)
                               in keys.items()}
                     for section, keys in _SCHEMA.items()}

    def parsed(section, key):
        parse, default = _SCHEMA[section][key]
        return parse(default)

    grid = inspect.signature(semigroup.geometric_times).parameters
    assert {key: p.default for key, p in grid.items()} == {
        key: parsed("time_grid", key) for key in _SCHEMA["time_grid"]}
    lshape = inspect.signature(robinheat.build_lshape_mesh).parameters
    scenario = parse_scenario("[domain]\nshape = lshape\ndivisions = 2\n"
                              "[run]\nchecks = nash\n")
    assert scenario.build_mesh().dim == lshape["dim"].default == 2


def test_parse_error_carries_line_number():
    bad = "[domain]\nshape = box\n[orbit]\n"
    with pytest.raises(ScenarioError, match=r"line 3: unknown section"):
        parse_scenario(bad)


def test_parse_rejects_unknown_key():
    bad = "[domain]\nshape = box\ncolour = blue\n[run]\nchecks = accretivity\n"
    with pytest.raises(ScenarioError, match=r"line 3: unknown key 'colour'"):
        parse_scenario(bad)


def test_parse_rejects_unknown_check():
    bad = "[run]\nchecks = accretivity,telepathy\n"
    with pytest.raises(ScenarioError,
                       match=r"^line 2: unknown check 'telepathy' \(known: "):
        parse_scenario(bad)


@pytest.mark.parametrize("setting, message", [
    ("samples = 0", "line 3: samples must be positive"),
    ("seed = -1", "line 3: seed must be nonnegative"),
], ids=["samples", "seed"])
def test_parse_refused_value_names_itself(setting, message):
    """A value that parses but is refused keeps its own message, with no
    key prefix, at its line."""
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(f"[run]\nchecks = nash\n{setting}\n")
    assert str(caught.value).startswith(message)


def test_parse_rejects_key_outside_section():
    with pytest.raises(ScenarioError, match=r"line 1: key outside"):
        parse_scenario("shape = box\n")


def test_parse_rejects_bare_line():
    with pytest.raises(ScenarioError, match=r"line 2: expected key"):
        parse_scenario("[domain]\nnot a pair\n")


def test_parse_requires_checks():
    with pytest.raises(ScenarioError, match="no checks requested"):
        parse_scenario("[domain]\nshape = box\n")


def test_parse_bad_number_reports_key():
    bad = "[time_grid]\nt_max = soon\n[run]\nchecks = accretivity\n"
    with pytest.raises(ScenarioError, match=r"line 2: t_max"):
        parse_scenario(bad)


def test_parse_matrix_entries_with_row_separator():
    text = ("[domain]\nshape = box\nextents = 1.0,1.0\ndivisions = 2\n"
            "[coefficient]\nkind = matrix\nentries = 2.0,0.5 / -0.5,2.0\n"
            "[run]\nchecks = accretivity\n")
    scenario = parse_scenario(text)
    assert scenario.coefficient["entries"] == [2.0, 0.5, -0.5, 2.0]


# -- running -------------------------------------------------------------

def test_run_green_scenario(tmp_path):
    path = write_scenario(tmp_path, INTERVAL_SCENARIO)
    out = tmp_path / "out"
    stream = io.StringIO()
    code = run_scenario(path, output_dir=out, stream=stream)
    assert code == 0
    printed = stream.getvalue()
    for check in ("accretivity", "continuity", "contractivity", "positivity",
                  "domination"):
        assert f"{check}: passed" in printed
    for name in ("norms.csv", "summary.txt", "manifest.txt",
                 "accretivity.txt", "domination.txt"):
        assert (out / name).is_file()
    manifest = (out / "manifest.txt").read_text()
    assert manifest.startswith(
        "checks: accretivity,continuity,contractivity,positivity,domination\n"
        "seed: 2024\n")
    assert "domination.status: passed" in manifest


def test_run_is_deterministic(tmp_path):
    path = write_scenario(tmp_path, INTERVAL_SCENARIO)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_scenario(path, output_dir=out_a, stream=io.StringIO())
    run_scenario(path, output_dir=out_b, stream=io.StringIO())
    assert (out_a / "norms.csv").read_bytes() \
        == (out_b / "norms.csv").read_bytes()
    assert (out_a / "manifest.txt").read_bytes() \
        == (out_b / "manifest.txt").read_bytes()


def test_run_seed_override_lands_in_manifest(tmp_path):
    path = write_scenario(tmp_path, INTERVAL_SCENARIO)
    out = tmp_path / "seeded"
    run_scenario(path, output_dir=out, seed=7, stream=io.StringIO())
    assert "seed: 7\n" in (out / "manifest.txt").read_text()


def test_scenario_alpha_is_an_unknown_key(tmp_path, capsys):
    """The shift is the field's certified ellipticity constant, so a
    scenario that sets ``alpha`` is refused at its line."""
    text = INTERVAL_SCENARIO.replace("value = 2.0", "value = 2.0\nalpha = 9.0")
    line = text.splitlines().index("alpha = 9.0") + 1
    path = write_scenario(tmp_path, text)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: unknown key 'alpha' "
                          "in [coefficient]")


def test_run_gates_inadmissible_scenario(tmp_path):
    # beta = -2 breaks the coupling condition; gated checks must report
    # unmet hypotheses and the overall run must still exit 0
    text = INTERVAL_SCENARIO.replace("beta = -0.1", "beta = -2.0")
    path = write_scenario(tmp_path, text)
    stream = io.StringIO()
    code = run_scenario(path, output_dir=tmp_path / "o", stream=stream)
    assert code == 0
    printed = stream.getvalue()
    assert "contractivity: hypothesis unmet" in printed
    assert "domination: hypothesis unmet" in printed
    assert "admissible: false" in printed


def test_run_reports_discrete_sup_violation(tmp_path):
    """At 64 cells the endpoint mass is h/2 = 1/128, so absorption 0.1
    injects growth at rate 2 * 0.1 / h = 12.8, far above the shift 2; the
    coupling condition still holds, the discrete sup bound genuinely
    fails, and the runner must say failed and exit 1.

    The violation lives at times comparable to h^2, so this variant also
    refines the grid enough to reach that scale."""
    text = (INTERVAL_SCENARIO
            .replace("divisions = 4", "divisions = 64")
            .replace("ratio = 0.5", "ratio = 0.70710678118654752")
            .replace("count = 10", "count = 24"))
    path = write_scenario(tmp_path, text)
    stream = io.StringIO()
    code = run_scenario(path, output_dir=tmp_path / "o", stream=stream)
    assert code == 1
    assert "contractivity: failed" in stream.getvalue()


def test_fit_refusal_is_discretization_limited(tmp_path, capsys):
    text = (INTERVAL_SCENARIO.replace("count = 10", "count = 3")
            .replace("checks = accretivity,continuity,contractivity,"
                     "positivity,domination", "checks = ultracontractivity"))
    path = write_scenario(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    manifest = (out / "manifest.txt").read_text()
    assert "ultracontractivity.status: discretization-limited\n" in manifest
    assert "usable grid points" in (out / "ultracontractivity.txt").read_text()
    assert not (out / "ultracontractivity.csv").exists()


def test_one_point_grid_fit_is_discretization_limited(tmp_path):
    """A single grid time has no local slope, so it is no usable fit
    point."""
    text = (INTERVAL_SCENARIO.replace("count = 10", "count = 1")
            .replace("checks = accretivity,continuity,contractivity,"
                     "positivity,domination", "checks = ultracontractivity"))
    out = tmp_path / "out"
    assert main(["run", str(write_scenario(tmp_path, text)),
                 "--output-dir", str(out)]) == 0
    assert ("ultracontractivity.status: discretization-limited\n"
            in (out / "manifest.txt").read_text())


UNRESOLVED_SCENARIO = """\
[domain]
extents = 3, 3, 3
divisions = 2
[boundary_operator]
kind = zero
[run]
checks = accretivity, nash
"""


def test_unresolved_grid_is_discretization_limited(tmp_path, capsys):
    """Edges of 1.5 resolve t >= 2.25, past t_max = 1, so the energy and
    decay checks have no time to sample: neither reports passed."""
    path = write_scenario(tmp_path, UNRESOLVED_SCENARIO)
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    manifest = (out / "manifest.txt").read_text()
    for line in ("accretivity.status: discretization-limited",
                 "accretivity.energy_max_excess: nan",
                 "nash.status: discretization-limited",
                 "nash.decay_max_ratio: nan"):
        assert line + "\n" in manifest
    for check in ("accretivity", "nash"):
        document = (out / f"{check}.txt").read_text()
        assert "status: discretization-limited\n" in document
        assert "no grid time reaches the resolved scale 2.25" in document


def test_run_missing_file_raises(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        run_scenario(tmp_path / "absent.ini", stream=io.StringIO())


# -- comparing -----------------------------------------------------------

def run_twice(tmp_path, second_text=None):
    path_a = write_scenario(tmp_path, INTERVAL_SCENARIO, "a.ini")
    out_a = tmp_path / "out_a"
    run_scenario(path_a, output_dir=out_a, stream=io.StringIO())
    path_b = write_scenario(tmp_path, second_text or INTERVAL_SCENARIO,
                            "b.ini")
    out_b = tmp_path / "out_b"
    run_scenario(path_b, output_dir=out_b, stream=io.StringIO())
    return out_a / "manifest.txt", out_b / "manifest.txt"


def test_compare_identical_runs(tmp_path):
    man_a, man_b = run_twice(tmp_path)
    stream = io.StringIO()
    assert compare_manifests(man_a, man_b, stream=stream) == 0
    assert stream.getvalue().strip() == "no differences"


def test_compare_lists_numeric_drift(tmp_path):
    changed = INTERVAL_SCENARIO.replace("value = 2.0", "value = 2.5")
    man_a, man_b = run_twice(tmp_path, changed)
    stream = io.StringIO()
    assert compare_manifests(man_a, man_b, stream=stream) == 1
    printed = stream.getvalue()
    assert "no differences" not in printed
    assert "admissibility.alpha" in printed
    assert "rel" in printed
    # a value that turns nan or infinite is drift too; equal ones are not
    header = "checks: eventual_positivity\nseed: 2024\n"
    man_a.write_text(header + "eventual_positivity.delta: nan\n"
                     "eventual_positivity.t0: inf\nratio: nan\nbound: inf\n")
    man_b.write_text(header + "eventual_positivity.delta: 0.25\n"
                     "eventual_positivity.t0: 1.5\nratio: nan\nbound: inf\n")
    stream = io.StringIO()
    assert compare_manifests(man_a, man_b, stream=stream) == 1
    rows = [line.split()[:3] for line in stream.getvalue().splitlines()]
    assert rows == [["eventual_positivity.delta", "nan", "0.25"],
                    ["eventual_positivity.t0", "inf", "1.5"]]


def test_compare_rejects_mismatched_checks(tmp_path):
    reduced = INTERVAL_SCENARIO.replace(
        "checks = accretivity,continuity,contractivity,positivity,domination",
        "checks = accretivity")
    man_a, man_b = run_twice(tmp_path, reduced)
    with pytest.raises(ScenarioError, match="schema mismatch"):
        compare_manifests(man_a, man_b, stream=io.StringIO())


# -- entry point ---------------------------------------------------------

def test_main_run_and_compare(tmp_path, capsys):
    path = write_scenario(tmp_path, INTERVAL_SCENARIO)
    out = tmp_path / "cli_out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["compare", str(out / "manifest.txt"),
                 str(out / "manifest.txt")]) == 0
    assert "no differences" in capsys.readouterr().out
    drifted = tmp_path / "drifted.txt"
    drifted.write_text((out / "manifest.txt").read_text()
                       .replace("\nseed: 2024\n", "\nseed: 7\n"))
    assert main(["compare", str(out / "manifest.txt"), str(drifted)]) == 1
    assert capsys.readouterr().out.split() == ["seed", "2024", "7",
                                               "(rel", "0.997)"]


def test_main_parse_error_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path, "[orbit]\n")
    assert main(["run", str(path)]) == 2
    assert "error: line 1" in capsys.readouterr().err


@pytest.mark.parametrize("edits, section, message", [
    ([("extents = 1.0\n", "extents = 1.0, 1.0\n"),
      ("kind = isotropic\nvalue = 2.0",
       "kind = matrix\nentries = 1.0, 0.0 / 0.0, -1.0")],
     "coefficient", "not elliptic"),
    ([("kind = multiplication\nbeta = -0.1",
       "kind = kernel\nprofile = cosine")],
     "boundary_operator", "cosine kernel needs dim >= 2"),
    ([("beta = -0.1\n", "")], "boundary_operator", "missing key 'beta'"),
    ([("kind = multiplication\nbeta = -0.1",
       "kind = kernel\nprofile = gaussian\nwidth = 0")],
     "boundary_operator", "kernel width 0.0 is not positive"),
    ([("shape = box\nextents = 1.0\ndivisions = 4",
       "shape = lshape\ndivisions = 2, 2")], "domain", "one number only"),
    ([("ratio = 0.5", "ratio = 1.5")], "time_grid", "ratio must lie in"),
    ([("extents = 1.0\ndivisions = 4",
       "extents = 1.0, 1.0, 1.0\ndivisions = 20")],
     "domain", "above the dense limit 6000"),
    ([("kind = multiplication\nbeta = -0.1",
       "kind = dense\nentries = -0.1, 0.0, 0.0")],
     "boundary_operator", "a dense operator needs 4 entries (2 x 2, "
     "row-major), got 3"),
    ([("extents = 1.0\n", "extents = 1.0, 1.0\n"),
      ("kind = isotropic\nvalue = 2.0",
       "kind = matrix\nentries = 2.0, 0.0, 2.0")],
     "coefficient", "a matrix coefficient needs 4 entries (2 x 2, "
     "row-major), got 3"),
    ([("extents = 1.0\n", "extents = 1.0, 1.0\ndim = 3\n")], "domain",
     "dim 3 disagrees with the 2 extents of the box"),
], ids=["non-elliptic", "cosine-in-1d", "missing-beta", "zero-width",
        "lshape-divisions", "ratio-above-1", "assembly", "dense-count",
        "matrix-count", "box-dim"])
def test_main_builder_error_exits_2(tmp_path, capsys, edits, section,
                                    message):
    """A builder's refusal names the header line of the section that
    builder reads; the assembly's refusals are the mesh's."""
    text = INTERVAL_SCENARIO
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    line = text.splitlines().index(f"[{section}]") + 1
    path = write_scenario(tmp_path, text)
    assert main(["run", str(path), "--output-dir",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ")
    assert message in err
    assert "Traceback" not in err


def test_a_ratio_whose_grid_times_repeat_exits_2(tmp_path, capsys):
    """With t_max = 3 and ratio = 1 - 2^-53, only 18 of the 24 grid
    times are distinct, and all lie within 1e-14 of 3.  Such a grid is
    refused at its [time_grid] line before any evaluator is built: no
    fit reads it, and numpy warns of nothing."""
    text = ("[domain]\nextents = 1.0, 1.0, 1.0\ndivisions = 2\n"
            "[coefficient]\nkind = isotropic\nvalue = 2.5\n"
            "[boundary_operator]\nkind = multiplication\nbeta = -0.05\n"
            "[time_grid]\nt_max = 3.0\nratio = 0.9999999999999999\n"
            "[run]\nchecks = ultracontractivity\n")
    path = write_scenario(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--output-dir",
                     str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: line 10: the grid times are not increasing: ratio is too "
        "close to 1\n")


def test_oversized_mesh_is_refused_before_any_builder(tmp_path, monkeypatch,
                                                     capsys):
    """The cosine-kernel cube at 18 divisions (6 859 unknowns) exits 2 on
    its predicted vertex count, at the [domain] line, before the mesh, the
    field or the boundary operator is built: the kernel alone would take
    nb^2 samples and two SVDs first."""
    from robinheat import cli

    def refuse(*args, **kwargs):
        raise AssertionError("a builder ran above the dense limit")

    for name in ("build_box_mesh", "coefficient_field_from_config",
                 "build_boundary_operator"):
        monkeypatch.setattr(cli, name, refuse)
    text = (Path(__file__).resolve().parent.parent / "scenarios"
            / "cube_kernel.ini").read_text()
    assert "divisions = 6\n" in text
    text = text.replace("divisions = 6\n", "divisions = 18\n")
    line = text.splitlines().index("[domain]") + 1
    path = write_scenario(tmp_path, text)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: line {line}: mesh has 6859 unknowns, above the dense limit "
        f"6000\n")


HUGE = 10 ** 15         # elements: past a 47-bit address space in doubles


@pytest.mark.parametrize("section, grid, checks, samples", [
    ("time_grid", f"count = {HUGE}", "contractivity", 200),
    ("run", "count = 24", "nash", HUGE),
    ("run", "count = 24", "contractivity", HUGE),
    ("run", "count = 24", "continuity", HUGE),
], ids=["count", "nash-samples", "contractivity-samples",
        "continuity-samples"])
def test_oversized_grid_or_samples_is_refused_before_any_draw(
        tmp_path, monkeypatch, capsys, section, grid, checks, samples):
    """A grid ``count``, or ``samples`` times the vertex count, above
    DENSE_LIMIT^2 (the elements of the largest dense array admitted)
    exits 2 at its section's header line before the grid is built or a
    sample drawn, where numpy would fail to allocate, or continuity loop
    over about 6e13 blocks."""
    from robinheat import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(cli, "geometric_times", refuse)
    text = (f"[domain]\nextents = 1.0, 1.0, 1.0\ndivisions = 2\n"
            f"[time_grid]\n{grid}\n"
            f"[run]\nchecks = {checks}\nsamples = {samples}\n")
    line = text.splitlines().index(f"[{section}]") + 1
    path = write_scenario(tmp_path, text)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ")
    assert "elements, above 6000^2" in err
    assert "Traceback" not in err


def test_lshape_is_judged_by_its_own_vertex_count():
    """The 2-D L-shape at 88 divisions has 5 985 vertices, below the dense
    limit, although the 89 x 89 grid it is cut from has 7 921; the box of
    that grid is refused."""
    lshape = parse_scenario("[domain]\nshape = lshape\ndivisions = 88\n"
                            "[run]\nchecks = nash\n")
    assert lshape.build_mesh().n_vertices == 5985
    box = parse_scenario("[domain]\nextents = 1.0, 1.0\ndivisions = 88\n"
                         "[run]\nchecks = nash\n")
    with pytest.raises(RuntimeError, match="mesh has 7921 unknowns, above "
                       "the dense limit 6000"):
        box.build_mesh()


def test_dense_diagonal_operator_gives_the_multiplication_bytes(tmp_path):
    """``kind = dense`` with the entries of diag(beta) is the operator of
    ``kind = multiplication, beta = beta``, to the byte."""
    path = Path(__file__).resolve().parent.parent / "scenarios" / (
        "interval_robin.ini")
    text = path.read_text()
    assert "beta = -0.01\n" in text
    dense = write_scenario(tmp_path, text.replace(
        "kind = multiplication\nbeta = -0.01",
        "kind = dense\nentries = -0.01, 0.0 / 0.0, -0.01"))
    outputs = []
    for scenario in (path, dense):
        out = tmp_path / scenario.stem
        assert run_scenario(scenario, output_dir=out, stream=io.StringIO()) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("manifest.txt", "norms.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("old, new", [
    ("count = 10", "count = 0"),
    ("ratio = 0.5", "ratio = 1.5"),
    ("seed = 2024", "seed = -1"),
    ("samples = 40", "samples = -3"),
    ("samples = 40", "samples = 0"),
    ("value = 2.0", "value = inf"),
    ("t_max = 1.0", "t_max = nan"),
    ("ratio = 0.5", "ratio = 1e-120"),
], ids=["no-grid-points", "ratio-above-1", "negative-seed",
        "negative-samples", "no-samples", "infinite-coefficient", "nan-time",
        "underflowing-grid"])
def test_main_unusable_value_exits_2(tmp_path, capsys, old, new):
    assert old in INTERVAL_SCENARIO
    path = write_scenario(tmp_path, INTERVAL_SCENARIO.replace(old, new))
    assert main(["run", str(path), "--output-dir",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_main_negative_seed_override_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path, INTERVAL_SCENARIO)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out"),
                 "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative\n"


# -- the check table -----------------------------------------------------

CUBE_SCENARIO = """\
[domain]
shape = box
extents = 1.0, 1.0, 1.0
divisions = 4

[coefficient]
kind = isotropic
value = 1.0

[boundary_operator]
kind = zero

[run]
checks = ultracontractivity, nash
samples = 200
seed = 2024
"""


def nash_lines(tmp_path, checks):
    name = checks.replace(", ", "-")
    path = write_scenario(tmp_path, CUBE_SCENARIO.replace(
        "checks = ultracontractivity, nash", f"checks = {checks}"),
        f"{name}.ini")
    out = tmp_path / name
    run_scenario(path, output_dir=out, stream=io.StringIO())
    return [line for line in (out / "manifest.txt").read_text().splitlines()
            if line.startswith("nash.")]


def test_nash_does_not_depend_on_the_check_order(tmp_path):
    """nash samples its decay on the ultracontractivity fit window
    whenever that check is requested and fits, whichever comes first."""
    first = nash_lines(tmp_path, "ultracontractivity, nash")
    assert "nash.status: passed" in first
    assert nash_lines(tmp_path, "nash, ultracontractivity") == first
    # alone, nash takes the resolved grid times, which gives other values
    assert nash_lines(tmp_path, "nash") != first


def test_comparison_systems_are_derived_not_assembled(tmp_path, monkeypatch):
    from robinheat import cli

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return robinheat.assemble_system(*args, **kwargs)

    monkeypatch.setattr(cli, "assemble_system", counted)
    text = (CUBE_SCENARIO.replace("value = 1.0", "value = 2.5")
            .replace("kind = zero", "kind = multiplication\nbeta = -0.05")
            .replace("checks = ultracontractivity, nash",
                     "checks = positivity, domination"))
    path = write_scenario(tmp_path, text)
    stream = io.StringIO()
    assert run_scenario(path, output_dir=tmp_path / "o", stream=stream) == 0
    assert len(calls) == 1
    assert "positivity: passed" in stream.getvalue()
    assert "domination: passed" in stream.getvalue()


CUBE2_SCENARIO = CUBE_SCENARIO.replace("divisions = 4", "divisions = 2")


@pytest.mark.parametrize("checks, grid", [
    ("ultracontractivity", "\n[time_grid]\ncount = 3\n"),
    ("positivity, domination", ""),
], ids=["refused-fit", "comparisons"])
def test_evaluators_die_with_their_run(tmp_path, monkeypatch, checks, grid):
    """No evaluator outlives run_scenario, even with the cycle collector
    off: a refused fit keeps no traceback holding the run."""
    from robinheat import cli

    alive = []

    def recorded(*args, **kwargs):
        evaluator = robinheat.build_evaluator(*args, **kwargs)
        alive.append(weakref.ref(evaluator))
        return evaluator

    monkeypatch.setattr(cli, "build_evaluator", recorded)
    text = CUBE2_SCENARIO.replace("checks = ultracontractivity, nash",
                                  f"checks = {checks}") + grid
    path = write_scenario(tmp_path, text)
    gc.disable()
    try:
        run_scenario(path, output_dir=tmp_path / "o", stream=io.StringIO())
        assert alive
        assert all(ref() is None for ref in alive)
    finally:
        gc.enable()


def test_one_evaluator_makes_every_exponential(tmp_path, monkeypatch):
    """On a self-adjoint form whose comparison systems coincide with it,
    the positivity and domination evaluators are the primal one, and the
    energy check exponentiates the primal's generator as the adjoint's,
    so every exponential is of one generator."""
    generators = []
    real = semigroup.dense_exponential

    def recorded(generator, t):
        generators.append(generator)
        return real(generator, t)

    monkeypatch.setattr(semigroup, "dense_exponential", recorded)
    monkeypatch.setattr(verify, "dense_exponential", recorded)
    text = CUBE2_SCENARIO.replace(
        "checks = ultracontractivity, nash",
        "checks = accretivity, positivity, domination, ultracontractivity")
    path = write_scenario(tmp_path, text)
    run_scenario(path, output_dir=tmp_path / "o", stream=io.StringIO())
    assert len(generators) > 20
    assert all(generator is generators[0] for generator in generators)


def test_a_reused_comparison_sweeps_the_primal_once(tmp_path, monkeypatch):
    """The cube_robin operator dominates itself, so the domination
    comparison is the primal evaluator: the run's one sweep is handed the
    primal once, ``write_norms_csv`` sweeps it once more, with nothing
    registered, and no sweep is handed the comparison."""
    from robinheat import cli

    built, swept = [], []
    sweep = semigroup.sweep

    def recorded_build(*args, **kwargs):
        evaluator = robinheat.build_evaluator(*args, **kwargs)
        built.append(evaluator)
        return evaluator

    def recorded_sweep(evaluators):
        evaluators = list(evaluators)
        swept.append([(e, len(e._steps)) for e in evaluators])
        return sweep(evaluators)

    monkeypatch.setattr(cli, "build_evaluator", recorded_build)
    monkeypatch.setattr(cli, "sweep", recorded_sweep)
    monkeypatch.setattr(semigroup, "sweep", recorded_sweep)
    text = (CUBE2_SCENARIO.replace("value = 1.0", "value = 2.5")
            .replace("kind = zero", "kind = multiplication\nbeta = -0.05")
            .replace("checks = ultracontractivity, nash",
                     "checks = domination"))
    path = write_scenario(tmp_path, text)
    stream = io.StringIO()
    assert run_scenario(path, output_dir=tmp_path / "o", stream=stream) == 0
    assert "domination: passed" in stream.getvalue()
    primal, comparison = built
    assert semigroup.reuse(primal, comparison) is primal
    run_sweep, norms_sweep = swept
    assert [e for e, _ in run_sweep] == [primal]
    assert run_sweep[0][1] > 0
    assert norms_sweep == [(primal, 0)]


@pytest.mark.parametrize("operator", [
    "kind = multiplication\nbeta = -0.05",
    "kind = kernel\nprofile = cosine\nscale = 0.005",
], ids=["self-adjoint", "cosine-kernel"])
def test_manifest_restates_the_adjoint_keys(tmp_path, operator):
    """The adjoint's 1 -> 2 norm and L1 norm are the primal's 2 -> sup and
    sup norms by duality, so the manifest writes the adjoint's fitted
    slope and L1 excess as the primal's, character for character."""
    text = (CUBE_SCENARIO.replace("value = 1.0", "value = 2.5")
            .replace("kind = zero", operator)
            .replace("checks = ultracontractivity, nash",
                     "checks = contractivity, ultracontractivity"))
    path = write_scenario(tmp_path, text)
    out = tmp_path / "o"
    assert run_scenario(path, output_dir=out, stream=io.StringIO()) == 0
    manifest = dict(line.split(": ", 1) for line in
                    (out / "manifest.txt").read_text().splitlines())
    assert manifest["ultracontractivity.status"] == "passed"
    assert manifest["ultracontractivity.adjoint_consistent"] == "true"
    assert (manifest["ultracontractivity.adjoint_fitted_slope"]
            == manifest["ultracontractivity.fitted_slope"])
    assert (manifest["contractivity.max_l1_excess"]
            == manifest["contractivity.max_sup_excess"])


@pytest.mark.parametrize("operator, expected", [
    ("kind = zero", 3),
    ("kind = kernel\nprofile = cosine\nscale = 0.005", 3),
], ids=["self-adjoint", "cosine-kernel"])
def test_ultracontractivity_takes_one_chain_per_evaluator(
        tmp_path, monkeypatch, operator, expected):
    """The default grid doubles every second time.  On this 27-unknown
    cube |t P|_inf is 0.045 at the first time, below the 2^-4 the chain
    squares from, so each evaluator exponentiates its three smallest times
    and squares the rest; the fit of the adjoint is the primal's by
    duality, so either form takes one chain."""
    import scipy.linalg

    calls = []
    expm = scipy.linalg.expm

    def counted(A):
        calls.append(A.shape)
        return expm(A)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    text = CUBE2_SCENARIO.replace("checks = ultracontractivity, nash",
                                  "checks = ultracontractivity")
    text = text.replace("value = 1.0", "value = 2.0")
    path = write_scenario(tmp_path, text.replace("kind = zero", operator))
    stream = io.StringIO()
    run_scenario(path, output_dir=tmp_path / "o", stream=stream)
    assert "ultracontractivity: hypothesis unmet" not in stream.getvalue()
    assert len(calls) == expected


def eventual_positivity_times(tmp_path, t_max):
    text = CUBE2_SCENARIO.replace("checks = ultracontractivity, nash",
                                  "checks = eventual_positivity")
    text += f"\n[time_grid]\nt_max = {t_max}\n"
    path = write_scenario(tmp_path, text, f"t{t_max}.ini")
    out = tmp_path / f"t{t_max}"
    run_scenario(path, output_dir=out, stream=io.StringIO())
    for line in (out / "eventual_positivity.txt").read_text().splitlines():
        key, _, value = line.partition(": ")
        if key == "times":
            return [float(x) for x in value.split(",")]
    raise AssertionError("no times in the eventual positivity report")


def test_eventual_positivity_scans_sorted_distinct_times(tmp_path):
    """The extra long times merge into the grid in order, once each,
    whatever t_max is."""
    times = eventual_positivity_times(tmp_path, 30)
    assert all(a < b for a, b in zip(times, times[1:]))
    assert times[-2:] == [30.0, 50.0]
    assert eventual_positivity_times(tmp_path, 10).count(10.0) == 1


# -- the exit-code contract ---------------------------------------------

CONTRACT_SCENARIO = CUBE2_SCENARIO.replace(
    "checks = ultracontractivity, nash",
    "checks = accretivity, positivity, eventual_positivity",
) + "\n[time_grid]\nt_max = 1.0\n"


@pytest.mark.parametrize("old, new, message", [
    ("t_max = 1.0", "t_max = 1000", "longest time 1000 exceeds 709.78"),
    ("value = 1.0", "value = 20", "alpha 20 times the longest time 50"),
    ("value = 1.0", "value = 1e300", "exp(alpha t) overflows"),
    ("extents = 1.0, 1.0, 1.0", "extents = 1e-120, 1e-120, 1e-120",
     "degenerate"),
    ("extents = 1.0, 1.0, 1.0", "extents = 1e300, 1, 1", "overflows"),
], ids=["long-time", "large-alpha-long-positivity-time", "huge-alpha",
        "degenerate-cells", "huge-extent"])
def test_unusable_scale_exits_2(tmp_path, capsys, old, new, message):
    """Inputs the builders accept but whose run cannot be evaluated in
    floating point are refused before the first check runs."""
    assert old in CONTRACT_SCENARIO
    path = write_scenario(tmp_path, CONTRACT_SCENARIO.replace(old, new))
    assert main(["run", str(path), "--output-dir",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


def test_large_alpha_runs_when_no_long_time_is_evaluated(tmp_path):
    text = CONTRACT_SCENARIO.replace("value = 1.0", "value = 20").replace(
        ", eventual_positivity", "")
    path = write_scenario(tmp_path, text)
    assert run_scenario(path, output_dir=tmp_path / "o",
                        stream=io.StringIO()) == 0


HUGE_INTERVAL_NASH = ("[domain]\nextents = 1e300\ndivisions = 8\n"
                      "[run]\nchecks = nash\n")


def test_huge_interval_nash_is_hypothesis_unmet(tmp_path):
    """On an interval of length 1e300 the Nash constant underflows to 0,
    and like every 1-D nash run it is reported as hypothesis unmet."""
    path = write_scenario(tmp_path, HUGE_INTERVAL_NASH)
    out = tmp_path / "o"
    assert run_scenario(path, output_dir=out, stream=io.StringIO()) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "nash.status: hypothesis unmet\n" in manifest
    assert "nash.implied_constant: 0\n" in manifest


@pytest.mark.parametrize("constant", [0.0, math.inf], ids=["zero", "inf"])
def test_nash_constant_outside_float_range_exits_2(tmp_path, capsys,
                                                   monkeypatch, constant):
    """The decay check divides by the Nash constant, so a 3-D run whose
    constant left the float range is refused, naming the mesh volume."""
    from robinheat import verify

    real = verify.check_nash
    monkeypatch.setattr(verify, "check_nash", lambda *args, **kwargs: (
        dataclasses.replace(real(*args, **kwargs),
                            implied_constant=constant)))
    path = write_scenario(tmp_path, CUBE2_SCENARIO.replace(
        "checks = ultracontractivity, nash", "checks = nash"))
    assert main(["run", str(path), "--output-dir",
                 str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "mesh of volume 1" in err


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
# Each shipped scenario shrunk to a mesh that runs in milliseconds.
SHRUNK = {
    path.stem: re.sub(r"divisions = \d+", "divisions = "
                      + ("8" if path.stem == "interval_robin" else "2"),
                      path.read_text())
    for path in sorted(SCENARIO_DIR.glob("*.ini"))
}


def test_each_comparison_system_and_form_norm_is_built_once(tmp_path,
                                                            monkeypatch):
    """One cube_kernel run (at 3 divisions, where every check passes)
    builds the |bar|_inf - bar system once, for both positivity and the
    truncation criterion, and takes ``form_norm`` at most once per system:
    accretivity and domination share the primal's."""
    from robinheat import assembly, coefficients

    spec_cls = coefficients.BoundaryOperatorSpec
    system_cls = assembly.AssembledSystem
    shifted, built, normed = {+1: [], -1: []}, [], []
    shifted_bar, with_boundary = spec_cls.shifted_bar, system_cls.with_boundary
    form_norm = assembly.form_norm

    def counted_shifted_bar(self, sign):
        spec = shifted_bar(self, sign)
        shifted[sign].append(spec)
        return spec

    def counted_with_boundary(self, spec):
        derived = with_boundary(self, spec)
        built.append(derived)
        return derived

    def counted_form_norm(F):
        normed.append(F)
        return form_norm(F)

    monkeypatch.setattr(spec_cls, "shifted_bar", counted_shifted_bar)
    monkeypatch.setattr(system_cls, "with_boundary", counted_with_boundary)
    monkeypatch.setattr(assembly, "form_norm", counted_form_norm)
    text = (SCENARIO_DIR / "cube_kernel.ini").read_text()
    path = write_scenario(tmp_path, text.replace("divisions = 6",
                                                 "divisions = 3"))
    stream = io.StringIO()
    assert run_scenario(path, output_dir=tmp_path / "o", stream=stream) == 0
    for check in ("accretivity", "contractivity", "positivity",
                  "domination"):
        assert f"{check}: passed" in stream.getvalue()
    assert len(shifted[-1]) == len(shifted[+1]) == 1
    # |bar|_inf +- bar and the dominating system, each built once
    specs = [system.spec for system in built]
    assert len(built) == 3
    assert specs.count(shifted[-1][0]) == specs.count(shifted[+1][0]) == 1
    # the primal's norm and those of |bar|_inf +- bar, once each; nothing
    # reads the dominating system's
    assert len({id(F) for F in normed}) == len(normed) == 3
    comparisons = shifted[-1] + shifted[+1]
    for system in built:
        taken = any(F is system.FormAtilde for F in normed)
        assert taken == any(spec is system.spec for spec in comparisons)


def with_checks(text, checks):
    return re.sub(r"checks = .*", f"checks = {checks}", text)


VERDICT_INPUTS = {
    **SHRUNK,
    "gated": INTERVAL_SCENARIO.replace("beta = -0.1", "beta = -2.0"),
    "refused-fit": with_checks(INTERVAL_SCENARIO.replace("count = 10",
                                                         "count = 3"),
                               "ultracontractivity"),
    "unresolved": UNRESOLVED_SCENARIO,
    "nash-2d": with_checks(SHRUNK["lshape_robin"], "nash"),
    "sup-violation": INTERVAL_SCENARIO.replace(
        "divisions = 4", "divisions = 64").replace(
        "ratio = 0.5", "ratio = 0.70710678118654752").replace(
        "count = 10", "count = 24"),
    "duplicate": with_checks(SHRUNK["interval_robin"],
                             "positivity, positivity"),
}
STATUSES = ("passed", "failed", "hypothesis unmet", "discretization-limited")


def counted_run(tmp_path, monkeypatch, text, name):
    """The run's exit code, manifest, output directory and count of
    ``expm`` calls."""
    import scipy.linalg

    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm",
                        lambda A: calls.append(A.shape) or expm(A))
    out = tmp_path / name
    code = run_scenario(write_scenario(tmp_path, text, f"{name}.ini"),
                        output_dir=out, stream=io.StringIO())
    manifest = dict(line.split(": ", 1) for line in
                    (out / "manifest.txt").read_text().splitlines())
    return code, manifest, out, len(calls)


@pytest.mark.parametrize("name", sorted(VERDICT_INPUTS))
def test_each_document_carries_the_manifest_status(tmp_path, monkeypatch,
                                                   name):
    """Each ``<check>.txt`` has one status line, the manifest's
    ``<check>.status``, one of four names; the run exits 1 exactly when
    one is failed.  A check named twice is listed once and runs once."""
    code, manifest, out, taken = counted_run(
        tmp_path, monkeypatch, VERDICT_INPUTS[name], "run")
    checks = manifest["checks"].split(",")
    assert len(set(checks)) == len(checks)
    statuses = [manifest[f"{check}.status"] for check in checks]
    for check, status in zip(checks, statuses):
        lines = (out / f"{check}.txt").read_text().splitlines()
        assert [line for line in lines if line.startswith("status:")] == [
            f"status: {status}"]
        assert status in STATUSES
    assert code == (1 if "failed" in statuses else 0)
    if name == "sup-violation":     # one input that must fail
        assert code == 1
    if name == "duplicate":
        single = counted_run(tmp_path, monkeypatch, with_checks(
            SHRUNK["interval_robin"], "positivity"), "single")
        assert checks == ["positivity"]
        assert (code, manifest, taken) == (single[0], single[1], single[3])


def test_a_failed_criterion_fails_the_contractivity_document(tmp_path,
                                                            monkeypatch):
    """``contractivity`` fails when the truncation criterion fails and the
    sup bound passes, in its document as in the manifest."""
    real = verify.check_ouhabaz_contractivity_criterion
    monkeypatch.setattr(verify, "check_ouhabaz_contractivity_criterion",
                        lambda *args, **kwargs: dataclasses.replace(
                            real(*args, **kwargs), status="failed"))
    code, manifest, out, _ = counted_run(tmp_path, monkeypatch, with_checks(
        SHRUNK["interval_robin"], "contractivity"), "run")
    assert code == 1
    assert manifest["contractivity.status"] == "failed"
    assert manifest["contractivity.max_sup_excess"].startswith("-")
    assert "status: failed\n" in (out / "contractivity.txt").read_text()


TOKENS = ("0", "-1", "2", "0.5", "nan", "inf", "abc", "", "1e-120", "1e300",
          "1000")
# divisions and count stay small so that no example allocates much
SMALL_TOKENS = tuple(token for token in TOKENS if token != "1000")


@st.composite
def mutated_scenarios(draw):
    """A shrunk shipped scenario with one value replaced by a token, one
    line dropped, or an unknown key added."""
    lines = SHRUNK[draw(st.sampled_from(sorted(SHRUNK)))].splitlines()
    filled = [k for k, line in enumerate(lines)
              if line.strip() and not line.startswith("#")]
    k = draw(st.sampled_from(filled))
    action = draw(st.sampled_from(("value", "drop", "unknown")))
    key = lines[k].partition("=")[0].strip()
    if action == "value" and "=" in lines[k]:
        pool = SMALL_TOKENS if key in ("divisions", "count") else TOKENS
        lines[k] = f"{key} = {draw(st.sampled_from(pool))}"
    elif action == "drop":
        del lines[k]
    else:   # also where a value was drawn for a section header
        lines.insert(k + 1, "colour = blue")
    return "\n".join(lines) + "\n"


def _edited(name, old, new):
    assert old in SHRUNK[name]
    return SHRUNK[name].replace(old, new)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_scenarios())
@example(_edited("cube_robin", "t_max = 1.0", "t_max = 1000"))
@example(_edited("cube_kernel", "value = 2.0", "value = 20"))
@example(_edited("cube_robin", "value = 2.5", "value = 1e300"))
@example(_edited("cube_neumann", "extents = 1.0, 1.0, 1.0",
                 "extents = 1e-120, 1e-120, 1e-120"))
@example(_edited("cube_neumann", "extents = 1.0, 1.0, 1.0",
                 "extents = 1e300, 1, 1"))
@example(_edited("lshape_robin", "divisions = 2", "divisions = "))
@example(_edited("lshape_robin", "divisions = 2", "divisions = 2, 2"))
@example(_edited("cube_neumann", "extents = 1.0, 1.0, 1.0",
                 "extents = 1e300"))
@example(_edited("cube_kernel", "profile = cosine",
                 "profile = gaussian\nwidth = 1e300"))
def test_every_input_exits_0_1_or_2(text):
    """main never raises: it exits 0, 1 or 2, and on 2 stderr starts with
    an error line."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "fuzz.ini"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--output-dir",
                         str(Path(scratch) / "out")])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")


@pytest.mark.parametrize("width", ["1e300", "1e-300"])
def test_extreme_gaussian_width_runs(tmp_path, width):
    """A width whose square leaves the float range still gives a kernel:
    the constant one, or the identity's, with no numpy warning."""
    text = SHRUNK["cube_kernel"].replace(
        "profile = cosine", f"profile = gaussian\nwidth = {width}")
    path = write_scenario(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_scenario(path, output_dir=tmp_path / "o",
                            stream=io.StringIO())
    assert code in (0, 1)


@pytest.mark.parametrize("text, code", [
    ("[domain]\nextents = 1.0\ndivisions = 4\n[boundary_operator]\n"
     "kind = kernel\nprofile = gaussian\nwidth = 0\n"
     "[run]\nchecks = accretivity\n", 2),
    ("[domain]\nextents = 1e300, 1, 1\ndivisions = 2\n"
     "[run]\nchecks = accretivity\n", 2),
    (HUGE_INTERVAL_NASH, 0),
], ids=["gaussian-zero", "huge-extent", "huge-nash"])
def test_extreme_inputs_draw_no_numpy_warning(tmp_path, capsys, text, code):
    """A zero width, a facet measure that overflows and an interval of
    length 1e300 are decided by name, with no numpy warning on the way: a
    refusal names its section's header line."""
    path = write_scenario(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--output-dir",
                     str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    if code == 2:
        section = "boundary_operator" if "kernel" in text else "domain"
        line = text.splitlines().index(f"[{section}]") + 1
        assert err.startswith(f"error: line {line}: ")
    else:
        assert err == ""


def test_long_grid_keeps_contractivity(tmp_path):
    """A 120-point grid starts at t = 1.2e-18.  Squaring up from there
    once reported a sup-norm excess of 2980 on this interval with B = 0;
    the chain now squares only from |t P|_inf >= 2^-4."""
    path = write_scenario(tmp_path, "[domain]\nextents = 1.0\n"
                          "divisions = 2\n[time_grid]\ncount = 120\n"
                          "[run]\nchecks = contractivity\n")
    out = tmp_path / "o"
    assert run_scenario(path, output_dir=out, stream=io.StringIO()) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "contractivity.status: passed\n" in manifest


def test_non_finite_semigroup_matrix_exits_2(tmp_path, capsys):
    """A cosine kernel of scale 1e300 overflows the squarings of the first
    exponential.  The run is refused with an error line, where it used to
    print numpy overflow warnings and report positivity: passed."""
    text = re.sub(r"checks = .*", "checks = positivity",
                  _edited("cube_kernel", "scale = 0.005", "scale = 1e300"))
    path = write_scenario(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # a numpy warning fails the test
        assert main(["run", str(path), "--output-dir",
                     str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the semigroup matrix at t = ")
    assert "has a non-finite entry" in captured.err
    assert "Traceback" not in captured.err
    assert "positivity: passed" not in captured.out


def clean_env(**variables):
    """os.environ without any thread variable, plus ``variables``, with
    this package first on PYTHONPATH."""
    env = {key: value for key, value in os.environ.items()
           if not key.endswith("_NUM_THREADS")
           and key != "ROBINHEAT_THREADS"}
    env.update(variables)
    src = str(Path(robinheat.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_the_module_exits_2_with_an_error_line(tmp_path):
    """``python -m robinheat.cli`` exits with main's status: 2 for a dense
    operator with three entries, whose refusal is stderr's first line,
    naming the section's header line, with no traceback."""
    path = write_scenario(tmp_path, "[domain]\nextents = 1.0\ndivisions = 4\n"
                          "[boundary_operator]\nkind = dense\n"
                          "entries = -0.1, 0.0, 0.0\n"
                          "[run]\nchecks = accretivity\n")
    result = subprocess.run([sys.executable, "-m", "robinheat.cli", "run",
                             str(path), "--output-dir", str(tmp_path / "o")],
                            env=clean_env(), capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 2
    assert result.stderr.startswith("error: line 4: a dense operator needs "
                                    "4 entries")
    assert "Traceback" not in result.stderr


def blas_variable_after_import(env):
    code = ("import os, robinheat; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120,
                            check=True)
    return result.stdout.strip()


@pytest.mark.parametrize("threads, expected", [("1", "1"), (None, "1")])
def test_thread_cap_is_set_before_numpy_loads(threads, expected):
    env = clean_env() if threads is None else clean_env(
        ROBINHEAT_THREADS=threads)
    assert blas_variable_after_import(env) == expected


def test_explicit_blas_variable_survives_the_import():
    env = clean_env(ROBINHEAT_THREADS="2", OPENBLAS_NUM_THREADS="3")
    assert blas_variable_after_import(env) == "3"


@pytest.mark.parametrize("scenario", ["interval_robin", "lshape_robin"])
def test_outputs_do_not_depend_on_the_thread_count(tmp_path, scenario):
    """The same bytes from one and from two BLAS threads.  The cube
    scenarios (343 unknowns) are left out: there the thread count moves
    the semigroup law defect (about 1e-13) by up to 11 % relative, the
    energy excess by up to 4e-7, and the last bits of every norms.csv and
    of many other manifest keys (README, "Environment")."""
    path = Path(__file__).resolve().parent.parent / "scenarios" / (
        scenario + ".ini")
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "robinheat.cli", "run",
                        str(path), "--output-dir", str(out)],
                       env=clean_env(ROBINHEAT_THREADS=threads),
                       capture_output=True, timeout=300, check=True)
        outputs[threads] = [(out / name).read_bytes()
                            for name in ("manifest.txt", "norms.csv")]
    assert outputs["1"] == outputs["2"]
