"""The sweep against the doubling chain with every grid matrix kept.

Each evaluator streams its chain through one ``sweep`` and hands every
grid matrix to the per-time steps registered before it.  Every grid
report a run computes that way must equal, bit for bit, the same report
computed from the matrices of ``oracles.chain_matrices``, the chain as it
was once cached whole, with the arithmetic of the checks that read one
cached matrix per time (past the grid, eventual positivity powers the
last grid matrix: ``oracles.beyond_image``); and each distinct evaluator
computes its chain once, however many checks read it.  The decay step
keeps one number per time, from the block its entry of the times draws:
its conclusion on a window that starts past the first time, holds a time
off the grid, or repeats a time has the same bits, a window is read in
any order, and a window time not among its times is refused.
The traced peak of a run through ``run_scenario`` is held below a bound
in n^2 doubles, which the per-time matrix cache exceeded.
"""

import io
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robinheat import (
    BoundaryOperatorSpec,
    CoefficientField,
    assemble_system,
    build_boundary_operator,
    build_box_mesh,
    build_evaluator,
    check_positivity,
    fit_ultracontractivity,
    geometric_times,
    reuse,
    verify,
    write_norms_csv,
)
from robinheat.cli import EXTRA_POSITIVITY_TIMES, run_scenario
from robinheat.semigroup import SYMMETRY_TOL
from oracles import (beyond_image, cached_decay_ratio,
                     cached_domination_violation, cached_eventual_positivity,
                     cached_matrices, cached_norms, cached_norms_rows,
                     cached_weighted_2_to_2)

SAMPLES = 5
SEED = 7
NASH_CONSTANT = 0.5


@st.composite
def sweep_systems(draw):
    """Interval, square and 2x2x2 cube meshes with an isotropic field and
    a zero, multiplication or random (non-symmetric) kernel operator."""
    mesh = draw(st.sampled_from((
        build_box_mesh((1.0,), (6,)),
        build_box_mesh((1.0, 1.0), (3, 3)),
        build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2)))))
    field = CoefficientField.isotropic(mesh, draw(st.floats(0.5, 3.0)))
    nb = len(mesh.boundary_vertices)
    kind = draw(st.sampled_from(("zero", "multiplication", "kernel")))
    if kind == "zero":
        spec = BoundaryOperatorSpec.zero(mesh)
    elif kind == "multiplication":
        spec = BoundaryOperatorSpec.multiplication(
            mesh, draw(st.sampled_from((-0.15, -0.05, 0.05, 0.15))))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        spec = BoundaryOperatorSpec.kernel(
            mesh, draw(st.floats(0.01, 0.2)) * rng.standard_normal((nb, nb)))
    return assemble_system(mesh, field, spec)


def counting_exponentials(ev, taken):
    exponential = ev.exponential

    def counted(t):
        taken.append(t)
        return exponential(t)

    ev.exponential = counted


def fit_or_refusal(evaluator):
    try:
        return fit_ultracontractivity(evaluator).as_dict()
    except ValueError as exc:
        return str(exc)


def same(a, b):
    """Equal, with nan equal to nan, arrays and report fields included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (np.ndarray, float)):
        return np.array_equal(a, b, equal_nan=True)
    return a == b


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sweep_systems(), st.sampled_from((2 ** -0.5, 2 ** -0.25, 0.6)),
       st.integers(4, 24), st.one_of(st.just(10.0), st.floats(0.1, 3.0)),
       st.booleans())
def test_grid_reports_from_the_sweep_match_the_cached_chain(
        system, ratio, count, t_max, primal_last):
    grid = geometric_times(t_max, ratio, count)
    times = np.union1d(grid, EXTRA_POSITIVITY_TIMES)
    window = grid[1::2]

    def comparison(spec):
        return build_evaluator(system.with_boundary(spec), grid=grid)

    ev = build_evaluator(system, grid=grid)
    bar = reuse(ev, comparison(system.spec.dominating()))
    positive = reuse(ev, comparison(system.spec.shifted_bar(-1)))
    distinct = list({id(e): e for e in (ev, bar, positive)}.values())
    taken, chained = [], []
    for e in distinct:
        counting_exponentials(e, taken)

    # every step registered, then one sweep each, the primal first or,
    # as the runner does, last
    ev.record(*verify.NORMS_CSV, "norm_2_to_2")
    positive.record("min_entry")
    domination = verify.domination_steps(ev, bar, SAMPLES, SEED)
    eventual = verify.eventual_positivity_steps(ev, times, SAMPLES, SEED)
    decay = verify.smoothing_decay_steps(ev, NASH_CONSTANT, grid, SAMPLES,
                                         SEED)
    for e in (distinct[::-1] if primal_last else distinct):
        e.sweep()
    positivity = check_positivity(positive)
    dominated = domination()
    eventually = eventual()
    decayed = decay(window)
    buffer = io.StringIO()
    write_norms_csv(ev, buffer)
    fit = fit_or_refusal(ev)
    l2 = max(ev.norm_2_to_2(t) for t in grid)

    oracles, exponential = {}, None
    for e in distinct:
        oracle = build_evaluator(e.system, grid=grid)
        counting_exponentials(oracle, chained)
        oracles[id(e)] = cached_matrices(oracle)
        if e is ev:
            exponential = oracle.exponential
    at, bar_at, positive_at = (oracles[id(e)] for e in (ev, bar, positive))
    t_max = grid[-1]

    def image(t, block):
        if t <= t_max:
            return at(t) @ block
        return beyond_image(at(t_max), t_max, t, block, exponential)

    if eventually.hypothesis_ok:
        ratios, t0, delta = cached_eventual_positivity(
            system, image, times, SAMPLES, SEED)
        assert np.array_equal(eventually.ratios, ratios)
        assert same(eventually.t0, t0) and same(eventually.delta, delta)

    # one chain per distinct evaluator, one expm per time of the eventual
    # positivity scan off the grid below t_max and one per remainder of a
    # time past it, which the oracle took too; none past t_max
    assert len(taken) == len(chained)
    assert max(taken) <= t_max
    assert np.array_equal(positivity.min_entries,
                          [float(positive_at(t).min()) for t in grid])
    assert dominated.max_violation == cached_domination_violation(
        at, bar_at, grid, system.n, SAMPLES, SEED)
    assert decayed.max_ratio == cached_decay_ratio(
        system, at, NASH_CONSTANT, grid, window, SAMPLES, SEED)
    assert buffer.getvalue().splitlines()[1:] == cached_norms_rows(ev, at)
    g = {float(t): cached_norms(system.mass, at(t))[0] for t in grid}
    stub = SimpleNamespace(grid=grid, system=system,
                           norm_2_to_inf=lambda t: g[float(t)],
                           record=lambda *names: None, sweep=lambda: None)
    assert same(fit, fit_or_refusal(stub))
    if ev.symmetry_residual > SYMMETRY_TOL:
        assert l2 == max(cached_weighted_2_to_2(ev, at, t) for t in grid)


@pytest.fixture(scope="module")
def cube_kernel_64():
    """The cosine-kernel operator on a 3-division cube: 64 unknowns."""
    mesh = build_box_mesh((1.0, 1.0, 1.0), (3, 3, 3))
    return assemble_system(
        mesh, CoefficientField.isotropic(mesh, 2.0),
        build_boundary_operator(mesh, {"kind": "kernel", "profile": "cosine",
                                       "scale": 0.005}))


def decay_run(system, times):
    """A default-grid evaluator of ``system`` swept with only the decay
    step on ``times`` registered, the conclusion, and the cached chain."""
    grid = geometric_times()
    ev = build_evaluator(system, grid=grid)
    conclude = verify.smoothing_decay_steps(ev, NASH_CONSTANT, times,
                                            SAMPLES, SEED)
    ev.sweep()
    return conclude, cached_matrices(build_evaluator(system, grid=grid))


@pytest.mark.parametrize("window", ["past-the-first", "one-off-grid",
                                    "repeated-time"])
def test_a_decay_window_keeps_the_bits_of_the_cached_chain(cube_kernel_64,
                                                           window):
    """The decay conclusion on a window that starts past the first time,
    on one that holds a time off the grid, and on times that hold one
    time twice (both its blocks drawn), has the bits of the same draws on
    the cached chain, and a second conclusion the same."""
    system = cube_kernel_64
    times = geometric_times()
    if window == "one-off-grid":
        times = np.sort(np.append(times, np.sqrt(times[10] * times[11])))
        chosen = times[7:15]
    elif window == "repeated-time":
        # the last time twice: its second block holds the largest ratio
        times = np.append(times[:17], times[16])
        chosen = times
    else:
        chosen = times[5::2]
    conclude, at = decay_run(system, times)
    expected = cached_decay_ratio(system, at, NASH_CONSTANT, times, chosen,
                                  SAMPLES, SEED)
    assert conclude(chosen).max_ratio == expected
    assert conclude(chosen).max_ratio == expected


def test_a_decay_window_time_not_among_the_times_is_refused(cube_kernel_64):
    grid = geometric_times()
    conclude, _ = decay_run(cube_kernel_64, grid[::2])
    with pytest.raises(ValueError, match="not among the times"):
        conclude(grid[2:6])


def test_a_decay_window_is_read_in_any_order(cube_kernel_64):
    grid = geometric_times()
    conclude, _ = decay_run(cube_kernel_64, grid)
    assert (conclude(grid[8:2:-1]).max_ratio
            == conclude(grid[3:9]).max_ratio)


def test_the_decay_step_keeps_no_matrix(cube_kernel_64):
    """After the sweep the decay step keeps only numbers: its traced
    memory is below one n x n array of doubles, where holding S(t) at
    the R grid times took R of them."""
    system = cube_kernel_64
    n = system.n
    grid = geometric_times()
    ev = build_evaluator(system, grid=grid)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        conclude = verify.smoothing_decay_steps(ev, NASH_CONSTANT, grid,
                                                SAMPLES, SEED)
        ev.sweep()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert conclude().status in ("passed", "failed")
    assert kept < n * n * 8, f"{kept / (n * n * 8):.2f} n^2 doubles"


# -- memory ---------------------------------------------------------------

CUBE5 = """
[domain]
extents = 1.0, 1.0, 1.0
divisions = 5
[coefficient]
kind = isotropic
value = {value}
[boundary_operator]
{operator}
[run]
checks = {checks}
"""
OPERATORS = {
    "cosine-kernel": (2.0, "kind = kernel\nprofile = cosine\nscale = 0.005"),
    "cube_robin": (2.5, "kind = multiplication\nbeta = -0.05"),
}
MATRIX_STEPS = "accretivity, domination, eventual_positivity"


@pytest.mark.parametrize("operator, checks, bound", [
    # the per-time cache peaked at 31.9 n^2 doubles, the sweep with the
    # generator's dense copy at 13.3, with none at 11.65, and the chains
    # swept one at a time at 10.65
    ("cosine-kernel", "ultracontractivity", 11),
    # a run that registers matrix steps: 60.4 with the cache, 22.0 with
    # the dense copy, 19.31 with none, 18.54 a chain at a time, 16.02
    # with both evaluators swept chain by chain
    ("cosine-kernel", MATRIX_STEPS, 17),
    # 14.9 with the dense copy, 10.19 with none, 9.70 a chain at a time
    ("cube_robin", MATRIX_STEPS, 10),
    # 9.70 with interleaved chains, 8.71 a chain at a time
    ("cube_robin", "ultracontractivity", 9),
    # 13.73 with the decay step holding S(t) at the resolved times, 8.73
    # with it keeping only its largest ratios
    ("cube_robin", "ultracontractivity, nash", 10),
    # 20.30 with each evaluator swept whole, 17.79 chain by chain
    ("cosine-kernel", "positivity, domination", 19),
], ids=["ultracontractivity", "matrix-steps", "cube_robin-matrix-steps",
        "cube_robin-ultracontractivity", "cube_robin-nash",
        "positivity-domination"])
def test_traced_peak_of_a_cosine_kernel_run(tmp_path, operator, checks, bound):
    """The 5-division cube (216 unknowns) with the cosine-kernel operator,
    and with cube_robin's beside it, through ``run_scenario``: its traced
    peak stays below ``bound`` n x n arrays of doubles."""
    n = 216
    value, lines = OPERATORS[operator]
    path = tmp_path / "cube5.ini"
    path.write_text(CUBE5.format(value=value, operator=lines, checks=checks))
    tracemalloc.start()
    try:
        status = run_scenario(path, output_dir=tmp_path / "out",
                              stream=io.StringIO())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak < bound * n * n * 8, f"{peak / (n * n * 8):.1f} n^2 doubles"
