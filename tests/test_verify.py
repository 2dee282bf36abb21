"""Inequality checks: status logic, frozen witnesses, and the fit rule.

The power-law fit is exercised on synthetic data with a known exponent
and a deliberate long-time plateau, so the windowing and the envelope
trim are tested against an arranged truth rather than against the solver.
The domination test keeps one measured counterexample: comparing against
the norm-shifted positive operator fails by four orders of magnitude more
than the tolerance, while the negated comparison operator dominates
exactly.
"""

import io
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from robinheat import (
    BoundaryOperatorSpec,
    CoefficientField,
    assemble_system,
    build_boundary_operator,
    build_box_mesh,
    build_evaluator,
    check_domination,
    check_energy_dissipation,
    check_eventual_positivity,
    check_nash,
    check_ouhabaz_contractivity_criterion,
    check_positivity,
    check_smoothing_decay,
    check_sup_contraction,
    dump_mesh,
    fit_ultracontractivity,
    geometric_times,
    semigroup_law_defect,
    write_document,
    write_norms_csv,
)
from robinheat.verify import MIN_FIT_POINTS
from oracles import adjoint_evaluator, check_duality


# -- Nash sampling -------------------------------------------------------

def test_nash_constant_attains_unit_ratio(cube2_neumann_system):
    report = check_nash(cube2_neumann_system, samples=200, seed=2024)
    assert report.status == "passed"
    # the constant function gives L2^2 = L1 = H1^2 = volume, ratio one,
    # and no sampled vector exceeds it
    assert_allclose(report.implied_constant, 1.0, rtol=0, atol=1e-12)
    assert report.samples == 200
    # dropping the gradient's mass term breaks the inequality on constants
    assert report.gradient_only_violation


def test_nash_low_dimension_gate(interval4_robin_system):
    report = check_nash(interval4_robin_system, samples=50, seed=2024)
    assert report.status == "hypothesis unmet"


# -- truncation criterion ------------------------------------------------

def test_ouhabaz_criterion_interval(interval4_robin_system):
    report = check_ouhabaz_contractivity_criterion(
        interval4_robin_system, samples=100, seed=2024)
    assert report.status == "passed"
    assert report.min_value_plus >= -1e-9 * report.scale
    assert report.min_value_minus >= -1e-9 * report.scale
    assert report.samples == 100


def test_ouhabaz_criterion_kernel(cube2):
    spec = build_boundary_operator(
        cube2, {"kind": "kernel", "profile": "cosine", "scale": 0.005})
    system = assemble_system(cube2, CoefficientField.isotropic(cube2, 2.0),
                             spec)
    report = check_ouhabaz_contractivity_criterion(system, samples=100,
                                                   seed=2024)
    assert report.status == "passed"


# -- sup norm bounds -----------------------------------------------------

def test_sup_contraction_interval(interval4_robin_system):
    """The adjoint's L1 bound restates the sup bound by duality."""
    primal = build_evaluator(interval4_robin_system,
                             grid=geometric_times(count=12))
    report = check_sup_contraction(primal)
    assert report.status == "passed"
    assert report.max_sup_excess <= 1e-8
    assert report.max_l1_excess == report.max_sup_excess


# -- positivity ----------------------------------------------------------

def test_positivity_isotropic(cube2_neumann_system):
    ev = build_evaluator(cube2_neumann_system, grid=geometric_times(count=8))
    report = check_positivity(ev)
    assert report.status == "passed"
    assert report.min_entries.min() >= -1e-9


def test_positivity_sheared_coefficient_is_discretization_limited():
    """A strong negative shear puts positive off-diagonal entries into the
    stiffness matrix (0.9 at the diagonal edges), so the matrix semigroup
    goes negative at small times even though the continuum one cannot."""
    mesh = build_box_mesh((1.0, 1.0), (4, 4))
    field = CoefficientField.matrix(mesh, np.array([[1.0, -0.9],
                                                    [-0.9, 1.0]]))
    system = assemble_system(mesh, field, BoundaryOperatorSpec.zero(mesh))
    report = check_positivity(build_evaluator(system,
                                              grid=geometric_times(count=8)))
    assert report.status == "discretization-limited"
    assert report.min_entries.min() < -1e-3


def test_positivity_fails_under_the_cosine_kernel(cube2):
    """The paper's headline: a general B destroys positivity.  The primal
    semigroup of the cosine kernel goes negative on an isotropic field,
    so the status is failed, not discretization-limited."""
    spec = build_boundary_operator(
        cube2, {"kind": "kernel", "profile": "cosine", "scale": 0.005})
    system = assemble_system(cube2, CoefficientField.isotropic(cube2, 2.0),
                             spec)
    report = check_positivity(build_evaluator(system, grid=geometric_times()))
    assert report.status == "failed"
    assert report.min_entries.min() == pytest.approx(-2.64e-4, rel=1e-2)


# -- domination ----------------------------------------------------------

def test_domination_by_negated_comparison_operator(interval4_robin_system):
    spec = interval4_robin_system.spec
    mesh = interval4_robin_system.mesh
    field = interval4_robin_system.field
    dom_system = assemble_system(mesh, field, spec.dominating())
    grid = geometric_times(count=8)
    report = check_domination(
        build_evaluator(interval4_robin_system, grid=grid),
        build_evaluator(dom_system, grid=grid), samples=50, seed=2024)
    assert report.status == "passed"
    assert report.max_violation <= 1e-8
    assert report.form_max_violation <= 1e-9 * report.form_scale


def test_norm_shifted_operator_does_not_dominate(interval4_robin_system):
    """Measured negative control: the positive operator |bar|_inf - bar
    (here identically zero) generates a semigroup that is strictly smaller
    than the absorbing one with beta < 0, so it cannot dominate."""
    spec = interval4_robin_system.spec
    mesh = interval4_robin_system.mesh
    field = interval4_robin_system.field
    wrong = assemble_system(mesh, field, spec.shifted_bar(-1))
    grid = geometric_times(count=8)
    report = check_domination(
        build_evaluator(interval4_robin_system, grid=grid),
        build_evaluator(wrong, grid=grid), samples=50, seed=2024)
    assert report.status == "failed"
    assert report.max_violation > 1e-3


def test_domination_refuses_a_comparison_on_another_grid(
        interval4_robin_system):
    """Both semigroups are compared at the same nonempty grid, so a
    comparison evaluator on another grid, or two evaluators on none, are
    refused: with no time the form criterion alone would pass."""
    system = interval4_robin_system
    dom_system = system.with_boundary(system.spec.dominating())
    grid = geometric_times(count=8)
    evaluator = build_evaluator(system, grid=grid)
    for other in (grid[1:], grid * (1 + 1e-12), ()):
        with pytest.raises(ValueError, match="one common, nonempty grid"):
            check_domination(evaluator, build_evaluator(dom_system,
                                                        grid=other))
    with pytest.raises(ValueError, match="one common, nonempty grid"):
        check_domination(build_evaluator(system), build_evaluator(dom_system))


@pytest.mark.parametrize("scan", [
    check_sup_contraction,
    check_positivity,
    lambda evaluator: write_norms_csv(evaluator, io.StringIO()),
], ids=["sup-contraction", "positivity", "norms-csv"])
def test_grid_scans_refuse_an_evaluator_without_grid(interval4_robin_system,
                                                     scan):
    """An evaluator built without ``grid=`` has nothing to scan: the
    checks are refused by name, not through numpy's empty-reduction
    errors, and the writer writes no header-only CSV."""
    with pytest.raises(ValueError, match="one common, nonempty grid"):
        scan(build_evaluator(interval4_robin_system))


# -- power-law fit -------------------------------------------------------

class SyntheticNormEvaluator:
    """Shifted-norm curve C t^p below the knee, flat beyond it, on a
    20-point grid ending at 1, for a system with alpha 1."""

    def __init__(self, C, p, knee, min_edge):
        self.C = C
        self.p = p
        self.knee = knee
        self.grid = geometric_times(t_max=1.0, count=20)
        self.system = SimpleNamespace(
            alpha=1.0, mesh=SimpleNamespace(resolved_time=min_edge ** 2))

    def norm_2_to_inf(self, t):
        return self.C * min(t, self.knee) ** self.p

    def record(self, *names):   # the norms are closed-form: nothing to
        pass                    # record, and no sweep to run

    def sweep(self):
        pass


def test_fit_recovers_planted_exponent():
    ev = SyntheticNormEvaluator(C=0.3, p=-0.75, knee=0.3, min_edge=0.05)
    report = fit_ultracontractivity(ev)
    assert report.envelope_ok
    assert_allclose(report.fitted_slope, -0.75, rtol=0, atol=1e-9)
    assert_allclose(report.fitted_C, 0.3, rtol=1e-9, atol=0)
    assert_allclose(report.mu, 3.0, rtol=0, atol=1e-8)
    # the plateau lies beyond every window point
    assert report.window_times.max() <= 0.3 + 1e-12
    assert report.window_times.min() >= 0.05 ** 2


def test_fit_refuses_unresolved_grid():
    ev = SyntheticNormEvaluator(C=0.3, p=-0.75, knee=0.3, min_edge=10.0)
    with pytest.raises(ValueError, match="usable grid points"):
        fit_ultracontractivity(ev)


def test_fit_window_has_minimum_size():
    ev = SyntheticNormEvaluator(C=0.3, p=-0.75, knee=0.3, min_edge=0.05)
    report = fit_ultracontractivity(ev)
    assert len(report.window_times) >= MIN_FIT_POINTS


# -- eventual positivity -------------------------------------------------

def test_eventual_positivity_zero_operator(interval4):
    field = CoefficientField.isotropic(interval4, 2.0)
    spec = BoundaryOperatorSpec.zero(interval4)
    system = assemble_system(interval4, field, spec)
    ev = build_evaluator(system)
    times = list(geometric_times(count=8)) + [5.0, 50.0]
    report = check_eventual_positivity(ev, times, samples=10, seed=2024)
    assert report.status == "passed"
    assert report.hypothesis_ok
    assert report.delta > 0.0
    assert math.isfinite(report.t0)
    # with no boundary coupling mass is conserved and the kernel tends to
    # the uniform density 1/|interval| = 1
    assert_allclose(report.ratios[-1], 1.0, rtol=0, atol=1e-10)


def test_eventual_positivity_kernel(cube2):
    spec = build_boundary_operator(
        cube2, {"kind": "kernel", "profile": "cosine", "scale": 0.005})
    system = assemble_system(cube2, CoefficientField.isotropic(cube2, 2.0),
                             spec)
    ev = build_evaluator(system)
    times = list(geometric_times(count=8)) + [2.0, 5.0, 10.0]
    report = check_eventual_positivity(ev, times, samples=10, seed=2024)
    assert report.status == "passed"
    assert report.hypothesis_ok
    assert report.delta > 0.0


def test_eventual_positivity_gates_on_symmetric_part(interval4_robin_system):
    # multiplication by -0.1 has strictly negative symmetric part, so the
    # lower-bound theory does not apply and the check must say so
    ev = build_evaluator(interval4_robin_system)
    report = check_eventual_positivity(ev, geometric_times(count=8),
                                       samples=5, seed=2024)
    assert report.status == "hypothesis unmet"
    assert not report.hypothesis_ok
    assert math.isnan(report.delta)


# -- duality, energy, decay ---------------------------------------------

def test_duality_report(cube2_neumann_system):
    primal = build_evaluator(cube2_neumann_system)
    adjoint = adjoint_evaluator(cube2_neumann_system)
    report = check_duality(primal, adjoint, geometric_times(count=12))
    assert report.status == "passed"
    assert report.max_relative_difference <= 1e-10


def test_energy_dissipation(interval4_robin_system):
    evaluator = build_evaluator(interval4_robin_system)
    times = geometric_times(count=8)[:5]
    report = check_energy_dissipation(evaluator, times, samples=10, seed=2024)
    assert report.status == "passed"
    assert report.max_excess <= 1e-6 * report.scale


@pytest.mark.parametrize("times", [[-0.1], [0.0], [0.5, -1e-300]],
                         ids=["negative", "zero", "one-negative"])
def test_energy_dissipation_refuses_times_that_are_not_positive(
        times, interval4_robin_system):
    """Unrefused, a negative time reads as a large negative excess, so
    ``passed``, and a zero time divides by a zero step."""
    evaluator = build_evaluator(interval4_robin_system)
    with pytest.raises(ValueError, match="positive times"):
        check_energy_dissipation(evaluator, times)


def sample_outer_energy(adjoint_evaluator, times, samples, seed):
    """Reference for check_energy_dissipation: the loop over samples, each
    through every time by ``apply``, as (max_excess, scale)."""
    system = adjoint_evaluator.system
    rng = np.random.default_rng(seed)
    worst = -math.inf
    scale = 0.0
    for _ in range(samples):
        u = rng.standard_normal(system.n)
        scale = max(scale, system.l2_norm(u) ** 2)
        for t in times:
            step = 1e-3 * t
            vm = adjoint_evaluator.apply(t - step, u)
            vp = adjoint_evaluator.apply(t + step, u)
            v = adjoint_evaluator.apply(t, u)
            derivative = (system.l2_norm(vp) ** 2
                          - system.l2_norm(vm) ** 2) / (2 * step)
            worst = max(worst, derivative + 2.0 * system.h1_norm(v) ** 2)
    return worst, scale


def cube2_kernel_system(cube2):
    """A non-self-adjoint form: cosine kernel on the 2x2x2 cube."""
    spec = build_boundary_operator(
        cube2, {"kind": "kernel", "profile": "cosine", "scale": 0.05})
    return assemble_system(cube2, CoefficientField.isotropic(cube2, 2.0),
                           spec)


@pytest.mark.parametrize("kind", ["interval", "cube-kernel"])
def test_energy_report_matches_the_sample_outer_loop(
        kind, interval4_robin_system, cube2):
    system = (interval4_robin_system if kind == "interval"
              else cube2_kernel_system(cube2))
    grid = geometric_times()
    times = grid[-8:-3]
    chained = build_evaluator(system, grid=grid)
    report = check_energy_dissipation(chained, times, samples=7, seed=11)
    worst, scale = sample_outer_energy(
        adjoint_evaluator(system), times, samples=7, seed=11)
    assert report.max_excess == worst
    assert report.scale == scale


def test_oracle_routes_ignore_the_evaluators_matrices(cube2):
    """The semigroup law and the energy check take every matrix from
    ``exponential``: garbage from the evaluator's sweep and from its
    ``matrix``, at any time, changes none of their bits."""
    system = cube2_kernel_system(cube2)
    grid = geometric_times()
    energy_times = grid[-6:-1]
    law_pairs = ((0.25, 0.375), (1 / 3, 2 / 3))
    ev = build_evaluator(system, grid=grid)

    def outputs():
        law = [semigroup_law_defect(ev, t, s) for t, s in law_pairs]
        energy = check_energy_dissipation(ev, energy_times, samples=5,
                                          seed=3)
        return law, energy.max_excess, energy.scale

    expected = outputs()
    rng = np.random.default_rng(0)

    def garbage(t):
        return rng.standard_normal((system.n, system.n))

    ev.matrix = garbage
    # every chain a sweep reads, one per grid time
    ev._chains = lambda: ([(float(t), garbage(t))] for t in grid)
    assert ev.matrix(grid[-1]).max() > 1.0
    seen = []
    ev.register(lambda t, S: seen.append(S.max()))
    ev.sweep()
    assert len(seen) == len(grid) and max(seen) > 1.0
    assert outputs() == expected


def test_smoothing_decay(cube2, cube2_neumann_system):
    nash = check_nash(cube2_neumann_system, samples=100, seed=2024)
    evaluator = build_evaluator(cube2_neumann_system)
    window = [t for t in geometric_times(count=12)
              if t >= cube2.min_edge_length ** 2]
    report = check_smoothing_decay(evaluator, nash.implied_constant, window,
                                   samples=50, seed=2024)
    assert report.status == "passed"
    assert report.max_ratio <= 1.0
    assert_allclose(report.prefactor,
                    (3.0 * nash.implied_constant / 4.0) ** 0.75,
                    rtol=1e-14, atol=0)


# -- report serialization ------------------------------------------------

def test_write_document_format():
    buffer = io.StringIO()
    text = write_document(
        {"alpha": 2.0, "ok": True, "bad": False,
         "values": np.array([0.5, 0.25]), "label": "abc"}, buffer)
    assert buffer.getvalue() == text
    lines = text.strip().splitlines()
    assert lines[0] == "alpha: 2"
    assert lines[1] == "ok: true"
    assert lines[2] == "bad: false"
    assert lines[3] == "values: 0.5,0.25"
    assert lines[4] == "label: abc"


def test_write_norms_csv_format(interval4_robin_system):
    ev = build_evaluator(interval4_robin_system, grid=[0.25, 0.5])
    buffer = io.StringIO()
    write_norms_csv(ev, buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "t,norm_2_to_inf,norm_1_to_2,norm_inf_to_inf,min_entry"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.25
    # columns are exp(alpha t) times the evaluator's shifted quantities
    assert float(first[1]) == (math.exp(interval4_robin_system.alpha * 0.25)
                               * ev.norm_2_to_inf(0.25))
    # serialization must be reproducible byte for byte
    again = io.StringIO()
    write_norms_csv(ev, again)
    assert again.getvalue() == buffer.getvalue()


def test_writers_send_the_same_text_to_a_path_and_a_stream(
        tmp_path, interval4_robin_system, square11):
    system = interval4_robin_system
    ev = build_evaluator(system, grid=[0.25, 0.5])
    writers = {
        "mesh": lambda target: dump_mesh(square11, target),
        "document": lambda target: write_document({"a": 1.5, "b": True},
                                                  target),
        "norms": lambda target: write_norms_csv(ev, target),
    }
    for name, write in writers.items():
        buffer = io.StringIO()
        text = write(buffer)
        assert buffer.getvalue() == text, name
        assert write(tmp_path / name) == text, name
        assert (tmp_path / name).read_bytes() == text.encode(), name
        assert text.endswith("\n") and not text.endswith("\n\n"), name
