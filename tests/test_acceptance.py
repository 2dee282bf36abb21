"""End-to-end acceptance run on the reference cube.

Nine numbered criteria, each printing one PASS or FAIL line with its
measured quantities.  The scenario parameters are frozen: unit cube at
6 divisions per axis (343 vertices), time grid of 24 geometric points up
to t = 1, seed 2024, and four coefficient/boundary pairings:

    plain      A = I      alpha = 1  no boundary operator
    absorbing  A = 2.5 I  alpha = 2.5  multiplication by -0.05
    strong     A = 5 I    alpha = 5  multiplication by -0.1
    rotating   A = 2 I    alpha = 2  antisymmetric cosine kernel, 0.005

Each pairing satisfies the coupling condition 1 + 2 |B| tr^2 <= alpha,
asserted before use, so no criterion silently runs out of hypothesis.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse

from robinheat import (
    BoundaryOperatorSpec,
    CoefficientField,
    SemigroupEvaluator,
    assemble_lumped_mass,
    assemble_system,
    build_boundary_operator,
    build_box_mesh,
    build_evaluator,
    check_accretivity,
    check_domination,
    check_eventual_positivity,
    check_nash,
    check_ouhabaz_contractivity_criterion,
    check_smoothing_decay,
    check_sup_contraction,
    fit_ultracontractivity,
    geometric_times,
    semigroup_law_defect,
)
from oracles import (adjoint_evaluator, assemble_consistent_mass,
                     check_duality, trace_matrix)

SEED = 2024
GRID = geometric_times(t_max=1.0, ratio=2.0 ** -0.5, count=24)
LONG_TIMES = np.concatenate([GRID, [2.0, 5.0, 10.0, 20.0, 50.0]])

SLOPE_WINDOW = (-0.90, -0.60)
RUNTIME_LIMIT = 60.0
DUALITY_TOL = 1e-10
DOMINATION_TOL = 1e-8
SUP_TOL = 1e-8
ACCRETIVITY_TOL = 1e-10
NASH_STABILITY = 0.20
OUHABAZ_TOL = 1e-9
LIMIT_TOL = 1e-6
ORACLE_TOL = 1e-12
EXP_ORACLE_TOL = 1e-13


def announce(number, label, ok, detail):
    print(f"acceptance {number} ({label}): {'PASS' if ok else 'FAIL'}"
          f"  {detail}")
    return ok


def make_scenario(mesh, value, spec_config):
    field = CoefficientField.isotropic(mesh, value)
    if spec_config is None:
        spec = BoundaryOperatorSpec.zero(mesh)
    else:
        spec = build_boundary_operator(mesh, spec_config)
    system = assemble_system(mesh, field, spec)
    assert system.admissibility.admissible, \
        f"scenario with A = {value} I is outside the coupling condition"
    return SimpleNamespace(
        system=system,
        spec=spec,
        primal=build_evaluator(system, grid=GRID),
        adjoint=adjoint_evaluator(system, grid=GRID),
    )


@pytest.fixture(scope="module")
def cube6():
    return build_box_mesh((1.0, 1.0, 1.0), (6, 6, 6))


@pytest.fixture(scope="module")
def plain(cube6):
    return make_scenario(cube6, 1.0, None)


@pytest.fixture(scope="module")
def absorbing(cube6):
    return make_scenario(cube6, 2.5,
                         {"kind": "multiplication", "beta": -0.05})


@pytest.fixture(scope="module")
def strong(cube6):
    return make_scenario(cube6, 5.0,
                         {"kind": "multiplication", "beta": -0.1})


@pytest.fixture(scope="module")
def rotating(cube6):
    return make_scenario(cube6, 2.0,
                         {"kind": "kernel", "profile": "cosine",
                          "scale": 0.005})


@pytest.fixture(scope="module")
def all_scenarios(plain, absorbing, strong, rotating):
    return {"plain": plain, "absorbing": absorbing, "strong": strong,
            "rotating": rotating}


def test_1_smoothing_rate(absorbing):
    """2 -> sup norms decay like t^(-d/4) with d = 3, for the plain cube
    and for the absorbing scenario, inside the stated slope window."""
    start = time.perf_counter()
    mesh = build_box_mesh((1.0, 1.0, 1.0), (6, 6, 6))
    field = CoefficientField.isotropic(mesh, 1.0)
    system = assemble_system(mesh, field, BoundaryOperatorSpec.zero(mesh))
    fit = fit_ultracontractivity(build_evaluator(system, grid=GRID))
    runtime = time.perf_counter() - start

    robin_fit = fit_ultracontractivity(absorbing.primal)
    ok = (SLOPE_WINDOW[0] <= fit.fitted_slope <= SLOPE_WINDOW[1]
          and runtime < RUNTIME_LIMIT
          and SLOPE_WINDOW[0] <= robin_fit.fitted_slope <= SLOPE_WINDOW[1]
          and robin_fit.envelope_ok)
    assert announce(
        1, "smoothing rate", ok,
        f"slope={fit.fitted_slope:.3f} robin_slope="
        f"{robin_fit.fitted_slope:.3f} window=[{SLOPE_WINDOW[0]},"
        f"{SLOPE_WINDOW[1]}] runtime={runtime:.1f}s")


def test_2_duality(all_scenarios):
    """The 2 -> sup norm of the semigroup and the 1 -> 2 norm of its
    adjoint agree at every grid time in every scenario, the adjoint
    evaluated by a chain of its own on the adjoint form, independent of
    the primal's matrices."""
    worst = 0.0
    for scenario in all_scenarios.values():
        report = check_duality(scenario.primal, scenario.adjoint, GRID,
                               tol=DUALITY_TOL)
        worst = max(worst, report.max_relative_difference)
    ok = worst <= DUALITY_TOL
    assert announce(2, "norm duality", ok,
                    f"max_rel_diff={worst:.3g} tol={DUALITY_TOL}")


def test_3_domination(strong):
    """|S(t) u| stays below the comparison semigroup applied to |u| for
    50 random samples at all 24 grid times."""
    mesh = strong.system.mesh
    dom = assemble_system(mesh, strong.system.field,
                          strong.spec.dominating())
    report = check_domination(strong.primal, build_evaluator(dom, grid=GRID),
                              samples=50, seed=SEED)
    ok = report.status == "passed" and report.max_violation <= DOMINATION_TOL
    assert announce(3, "domination", ok,
                    f"max_violation={report.max_violation:.3g} "
                    f"tol={DOMINATION_TOL} samples=50 times={len(GRID)}")


def test_4_sup_norm_bounds(all_scenarios):
    """Unshifted sup -> sup norms stay below exp(alpha t), and the adjoint,
    evaluated on its own chain, satisfies the matching 1 -> 1 bound, at
    every grid time."""
    worst = -math.inf
    for scenario in all_scenarios.values():
        report = check_sup_contraction(scenario.primal)
        l1_excess = max(scenario.adjoint.norm_1_to_1(t) - 1.0 for t in GRID)
        worst = max(worst, report.max_sup_excess, l1_excess)
        if report.status != "passed":
            break
    ok = worst <= SUP_TOL
    assert announce(4, "sup norm bound", ok,
                    f"max_excess={worst:.3g} tol={SUP_TOL}")


def test_5_accretivity(all_scenarios):
    """The shifted form dominates the H1 Gram matrix, the semigroup obeys
    the composition law, and L2 norms never grow."""
    worst_lambda = math.inf
    worst_law = 0.0
    worst_l2 = 0.0
    ok = True
    for scenario in all_scenarios.values():
        report = check_accretivity(scenario.system)
        ok = ok and report.status == "passed"
        worst_lambda = min(worst_lambda,
                           report.lambda_min / max(report.scale, 1e-300))
        law = max(semigroup_law_defect(scenario.primal, s, t)
                  for s, t in ((0.25, 0.375), (1.0 / 3.0, 2.0 / 3.0)))
        worst_law = max(worst_law, law)
        worst_l2 = max(worst_l2,
                       max(scenario.primal.norm_2_to_2(t) for t in GRID))
    ok = (ok and worst_lambda >= -ACCRETIVITY_TOL
          and worst_law <= ACCRETIVITY_TOL
          and worst_l2 <= 1.0 + ACCRETIVITY_TOL)
    assert announce(5, "accretivity", ok,
                    f"lambda_min/scale={worst_lambda:.3g} "
                    f"law_defect={worst_law:.3g} max_l2={worst_l2:.12f}")


def test_6_interpolation_inequality(plain):
    """The sampled L1/L2/H1 interpolation inequality holds with a constant
    that is stable under refinement, its gradient-only variant fails on
    constants, and the implied quantitative 1 -> 2 decay holds on the fit
    window."""
    report = check_nash(plain.system, samples=200, seed=SEED)
    constants = {6: report.implied_constant}
    for div in (4, 8):
        mesh = build_box_mesh((1.0, 1.0, 1.0), (div, div, div))
        system = assemble_system(
            mesh, CoefficientField.isotropic(mesh, 1.0),
            BoundaryOperatorSpec.zero(mesh))
        constants[div] = check_nash(system, samples=200,
                                    seed=SEED).implied_constant
    drift = abs(constants[4] - constants[8]) / constants[8]

    fit = fit_ultracontractivity(plain.primal)
    decay = check_smoothing_decay(plain.primal, report.implied_constant,
                                  fit.window_times, samples=50, seed=SEED)
    ok = (report.status == "passed"
          and drift <= NASH_STABILITY
          and report.gradient_only_violation
          and decay.status == "passed")
    assert announce(
        6, "interpolation inequality", ok,
        f"constant={report.implied_constant:.6g} refinement_drift="
        f"{drift:.3g} gradient_only_violated={report.gradient_only_violation}"
        f" decay_max_ratio={decay.max_ratio:.3f}")


def test_7_truncation_criterion(absorbing, strong, rotating):
    """Threshold-straddling samples pair nonnegatively against the shifted
    forms built from both signs of the comparison operator."""
    worst = math.inf
    ok = True
    for scenario in (absorbing, strong, rotating):
        report = check_ouhabaz_contractivity_criterion(
            scenario.system, samples=100, seed=SEED)
        ok = ok and report.status == "passed"
        scale = max(report.scale, 1e-300)
        worst = min(worst, report.min_value_plus / scale,
                    report.min_value_minus / scale)
    ok = ok and worst >= -OUHABAZ_TOL
    assert announce(7, "truncation criterion", ok,
                    f"min_value/scale={worst:.3g} tol={OUHABAZ_TOL} "
                    f"samples=100")


def test_8_eventual_positivity(rotating, plain):
    """The antisymmetric kernel scenario reaches a uniform positive lower
    bound after finite time; without boundary coupling the kernel spreads
    to the uniform density by t = 50."""
    spec = rotating.spec
    # weighted antisymmetry of the kernel is skewness of Bw = diag(w) T
    Bw = rotating.system.Bw
    antisym = float(np.abs(Bw + Bw.T).max() / np.abs(Bw).max())
    annihilates = float(np.abs(spec.matrix().sum(axis=1)).max())
    report = check_eventual_positivity(rotating.primal, LONG_TIMES,
                                       samples=20, seed=SEED)
    uniform = check_eventual_positivity(plain.primal, LONG_TIMES,
                                        samples=20, seed=SEED)
    limit_error = abs(uniform.ratios[-1] - 1.0)
    ok = (antisym <= 1e-10 and annihilates <= 1e-10
          and report.status == "passed"
          and report.hypothesis_ok
          and math.isfinite(report.t0) and report.delta > 0.0
          and limit_error <= LIMIT_TOL)
    assert announce(
        8, "eventual positivity", ok,
        f"antisymmetry={antisym:.2g} kernel_t0={report.t0:.3g} "
        f"delta={report.delta:.3g} uniform_limit_error={limit_error:.2g}")


def test_9_oracle_equivalence():
    """Every interval matrix matches its hand integration entrywise, and
    the dense exponential reproduces scalar and triangular closed forms."""
    mesh = build_box_mesh((1.0,), (4,))
    field = CoefficientField.isotropic(mesh, 2.0)
    spec = BoundaryOperatorSpec.multiplication(mesh, -0.1)
    system = assemble_system(mesh, field, spec, alpha=2.0)

    K = np.diag([8.0, 16.0, 16.0, 16.0, 8.0])
    K += np.diag([-8.0] * 4, 1) + np.diag([-8.0] * 4, -1)
    mass = np.array([0.125, 0.25, 0.25, 0.25, 0.125])
    consistent = np.diag([1 / 12, 1 / 6, 1 / 6, 1 / 6, 1 / 12])
    consistent += np.diag([1 / 24] * 4, 1) + np.diag([1 / 24] * 4, -1)
    form = K + np.diag([-0.1, 0.0, 0.0, 0.0, -0.1]) + 2.0 * np.diag(mass)
    h1 = 0.5 * K + np.diag(mass)
    gamma = np.zeros((2, 5))
    gamma[0, 0] = gamma[1, 4] = 1.0

    matrix_errors = {
        "stiffness": np.abs(system.K.toarray() - K).max(),
        "mass": np.abs(assemble_lumped_mass(mesh) - mass).max(),
        "consistent": np.abs(assemble_consistent_mass(mesh)
                             - consistent).max(),
        "trace": np.abs(trace_matrix(mesh) - gamma).max(),
        "boundary": np.abs(system.Bw - np.diag([-0.1, -0.1])).max(),
        "form": np.abs(system.FormAtilde.toarray() - form).max(),
        "h1": np.abs(system.H1.toarray() - h1).max(),
    }
    worst_matrix = max(matrix_errors.values())

    rates = np.array([0.5, 2.0])
    diag_system = SimpleNamespace(
        FormAtilde=scipy.sparse.csr_matrix(np.diag(rates)), mass=np.ones(2), alpha=0.0, n=2)
    diag_err = 0.0
    for t in (0.2, 1.0):
        S = SemigroupEvaluator(diag_system).matrix(t)
        diag_err = max(diag_err, float(np.abs(
            S - np.diag(np.exp(-rates * t))).max()))

    a, b, c = 1.0, 0.5, 3.0
    tri_system = SimpleNamespace(
        FormAtilde=scipy.sparse.csr_matrix(np.array([[a, b], [0.0, c]])),
        mass=np.ones(2), alpha=0.0, n=2)
    tri_err = 0.0
    for t in (0.2, 1.0):
        S = SemigroupEvaluator(tri_system).matrix(t)
        closed = np.array([
            [math.exp(-a * t),
             b * (math.exp(-a * t) - math.exp(-c * t)) / (a - c)],
            [0.0, math.exp(-c * t)]])
        tri_err = max(tri_err, float(np.abs(S - closed).max()))

    ok = (worst_matrix <= ORACLE_TOL and diag_err <= EXP_ORACLE_TOL
          and tri_err <= EXP_ORACLE_TOL)
    assert announce(
        9, "oracle equivalence", ok,
        f"worst_matrix_error={worst_matrix:.2g} diag_exp_error="
        f"{diag_err:.2g} triangular_exp_error={tri_err:.2g}")
