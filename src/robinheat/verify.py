"""Inequality checks for the boundary-coupled heat semigroup.

Each check is a pure function of its inputs plus a seed; every report
carries the seed so runs are exactly reproducible.  Statuses follow one
convention throughout: "passed" and "failed" speak about the conclusion
under satisfied hypotheses, "hypothesis unmet" means a precondition of
the underlying estimate does not hold and nothing was claimed,
"discretization-limited" marks conclusions the mesh cannot be expected
to reproduce (sign structure under non-isotropic coefficients).

The grid checks (sup bound, positivity, domination, the power-law fit,
the norms CSV) scan the evaluator's grid, and all but the fit refuse an
empty one with ValueError; the others take ``times``.
Alpha and the boundary operator come from the evaluator's system.

Each check that reads S(t) is a per-time step, which an evaluator's
``sweep`` hands each grid matrix in turn, and a conclusion drawn once the
sweep is done.  The per-time norms and the smallest entry are the
evaluator's record (``SemigroupEvaluator.record``); domination, eventual
positivity and the L1 -> L2 decay register steps of their own with the
``*_steps`` functions, which state each check's contract and return its
conclusion.  A runner registers the steps of all its checks before it
sweeps, so each chain is computed once; ``check_domination``,
``check_eventual_positivity`` and ``check_smoothing_decay`` run one
``*_steps`` function alone.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .mesh import write_lines
from .report import Report, format_value, require_samples
from .semigroup import (SYMMETRY_TOL, dense_exponential,
                        lumped_generator, sweep)

__all__ = [
    "NashReport",
    "check_nash",
    "ContractivityReport",
    "check_ouhabaz_contractivity_criterion",
    "SupBoundReport",
    "check_sup_contraction",
    "PositivityReport",
    "check_positivity",
    "DominationReport",
    "check_domination",
    "UltracontractivityReport",
    "fit_ultracontractivity",
    "EventualPositivityReport",
    "check_eventual_positivity",
    "EnergyReport",
    "check_energy_dissipation",
    "DecayReport",
    "check_smoothing_decay",
    "domination_steps",
    "eventual_positivity_steps",
    "smoothing_decay_steps",
    "NORMS_CSV",
    "write_document",
    "write_norms_csv",
]

PLATEAU_SLOPE = 0.05
ENVELOPE_FACTOR = 1.05
MIN_FIT_POINTS = 4
SUP_TOL = 1e-8          # the largest excess each check forgives
POSITIVITY_TOL = 1e-9
DOMINATION_TOL = 1e-8
ENERGY_TOL = 1e-6       # relative to the largest squared sample norm
FORM_TOL = 1e-9         # relative to the norm of the form
COUPLING_TOL = 1e-10    # on the coupling's symmetric part and row sums
# The per-time values of each norms.csv row, after t.
NORMS_CSV = ("norm_2_to_inf", "norm_1_to_2", "norm_inf_to_inf", "min_entry")


# ----------------------------------------------------------------------
def _grid(*evaluators):
    """The evaluators' common grid; ValueError if it is empty or differs."""
    times = evaluators[0].grid
    if len(times) and all(np.array_equal(times, e.grid) for e in evaluators):
        return times
    raise ValueError("grid checks need one common, nonempty grid; "
                     "build each evaluator with grid=")


def _alone(steps, evaluators, *args):
    """Run a ``*_steps`` check alone: register its steps, sweep the
    ``evaluators`` it reads in one sweep, chain by chain, and return its
    conclusion."""
    conclude = steps(*evaluators, *args)
    sweep(evaluators)
    return conclude()


def _tensor_cosine_modes(mesh, count):
    """The lowest nonconstant products of axis cosines, vertex-interpolated,
    ordered by total frequency."""
    orders = sorted(itertools.product(range(5), repeat=mesh.dim),
                    key=lambda k: (sum(k), k))
    modes = []
    for k in orders[1:count + 1]:       # orders[0] is the constant
        values = np.ones(mesh.n_vertices)
        for axis, freq in enumerate(k):
            values = values * np.cos(math.pi * freq * mesh.vertices[:, axis])
        modes.append(values)
    return modes


@dataclass
class NashReport(Report):
    dim: int
    samples: int
    max_ratio: float
    implied_constant: float
    gradient_only_violation: bool
    status: str
    seed: int


def check_nash(system, samples=200, seed=2024):
    """Sample the interpolation inequality

        |u|_L2^(2+4/d) <= C |u|_L1^(4/d) |u|_H1^2

    on the constant, the lowest tensor-cosine modes, and random vectors.
    The largest observed ratio is a certified lower bound for C.  The
    gradient-only variant (H1 seminorm on the right) is evaluated on the
    constant function and its failure recorded, not counted as a check
    failure.

    The estimate is used for d > 2; lower dimensions are sampled all the
    same and reported as hypothesis unmet.

    Ratios are compared through their logarithms, so no float power of a
    norm overflows on a huge or tiny domain.  The constant itself scales
    like the domain's length to the power -2 and can still leave the float
    range, as 0 or inf.  Fewer than one sample is refused with ValueError.
    """
    require_samples(samples)
    mesh = system.mesh
    d = mesh.dim
    n = mesh.n_vertices
    rng = np.random.default_rng(seed)
    vectors = [np.ones(n)] + _tensor_cosine_modes(mesh, 10)
    vectors = np.vstack([vectors, rng.standard_normal(
        (max(samples - len(vectors), 0), n))])
    exponent = 4.0 / d

    def log_ratios(U, h1_sq):
        """log of |u|_L2^(2+4/d) / (|u|_L1^(4/d) h1_sq) per row of U; +inf
        where h1_sq <= 0."""
        l2 = np.sqrt((U * U) @ system.mass)
        l1 = np.abs(U) @ system.mass
        with np.errstate(divide="ignore", invalid="ignore"):
            log_h1 = np.where(h1_sq > 0.0, np.log(h1_sq), -math.inf)
        return (2 + exponent) * np.log(l2) - exponent * np.log(l1) - log_h1

    U = vectors[:samples]
    U = U[np.abs(U) @ system.mass != 0.0]
    used = len(U)
    worst = float(log_ratios(U, ((system.H1 @ U.T).T * U).sum(axis=1))
                  .max(initial=-math.inf))
    ones = np.ones(n)
    gradient_only_violation = bool(log_ratios(
        ones[None], np.array([ones @ (system.K_id @ ones)]))[0] > worst)
    try:
        constant = math.exp(worst)
    except OverflowError:
        constant = math.inf
    status = "passed" if d > 2 else "hypothesis unmet"
    return NashReport(
        dim=d,
        samples=used,
        max_ratio=constant,
        implied_constant=constant,
        gradient_only_violation=gradient_only_violation,
        status=status,
        seed=seed,
    )


# ----------------------------------------------------------------------
@dataclass
class ContractivityReport(Report):
    min_value_plus: float
    min_value_minus: float
    scale: float
    samples: int
    seed: int
    status: str


def _straddling_samples(mesh, count, rng):
    """Vertex interpolants of smooth fields scaled so the nodal values
    straddle the truncation threshold 1, one per row of a (count, n)
    block.  The draws are made sample by sample, in the order of one
    sample's three modes and then its scale; the modes are evaluated for
    all samples at once."""
    dim, n = mesh.dim, mesh.n_vertices
    amp = np.empty((3, count))
    freqs = np.empty((3, count, dim), dtype=np.int64)
    phase = np.empty((3, count, dim))
    factor = np.empty(count)
    for i in range(count):
        for j in range(3):
            amp[j, i] = rng.standard_normal()
            freqs[j, i] = rng.integers(0, 4, size=dim)
            phase[j, i] = rng.uniform(0, math.pi, size=dim)
        factor[i] = rng.uniform(1.2, 3.0)
    u = np.zeros((count, n))
    for j in range(3):
        mode = np.ones((count, n)) * amp[j, :, None]
        for axis in range(dim):
            mode *= np.cos(freqs[j, :, axis, None] * math.pi
                           * mesh.vertices[None, :, axis]
                           + phase[j, :, axis, None])
        u += mode
    peak = np.abs(u).max(axis=1)
    flat = peak == 0.0
    u[flat] = 1.0
    peak[flat] = 1.0
    return u / peak[:, None] * factor[:, None]


def check_ouhabaz_contractivity_criterion(system, samples=100, seed=2024):
    """Truncation criterion behind the sup-norm contraction: with
    w = (1 ^ |u|) sign u and z = (|u| - 1)^+ sign u, the shifted form
    built with boundary operator |bar|_inf +- bar must pair w against z
    nonnegatively.  Evaluated nodally on threshold-straddling samples,
    with the comparison systems and form norms the system keeps
    (``AssembledSystem.shifted_bar``, ``form_scale``).  Fewer than one
    sample is refused with ValueError."""
    require_samples(samples)
    plus, minus = system.shifted_bar(+1), system.shifted_bar(-1)
    form_plus, form_minus = plus.FormAtilde, minus.FormAtilde
    scale = max(plus.form_scale, minus.form_scale)
    U = _straddling_samples(system.mesh, samples, np.random.default_rng(seed))
    W = np.clip(U, -1.0, 1.0)
    Z = U - W
    min_plus, min_minus = (
        float(((form @ W.T).T * Z).sum(axis=1).min(initial=math.inf))
        for form in (form_plus, form_minus))
    ok = min(min_plus, min_minus) >= -FORM_TOL * scale
    return ContractivityReport(
        min_value_plus=float(min_plus),
        min_value_minus=float(min_minus),
        scale=scale,
        samples=samples,
        seed=seed,
        status="passed" if ok else "failed",
    )


# ----------------------------------------------------------------------
@dataclass
class SupBoundReport(Report):
    max_sup_excess: float
    max_l1_excess: float
    status: str


def check_sup_contraction(evaluator):
    """Grid check of the sup-norm bound exp(alpha t) for the semigroup
    (excess = shifted norm - 1).  The matching L1 bound for the adjoint
    is the same number, |S*(t)|_{1->1} = |S(t)|_{inf->inf} by duality, so
    max_l1_excess restates max_sup_excess."""
    times = _grid(evaluator)
    excess = max(map(evaluator.norm_inf_to_inf, times)) - 1.0
    return SupBoundReport(
        max_sup_excess=excess,
        max_l1_excess=excess,
        status="passed" if excess <= SUP_TOL else "failed",
    )


# ----------------------------------------------------------------------
@dataclass
class PositivityReport(Report):
    times: np.ndarray
    min_entries: np.ndarray
    status: str


def check_positivity(evaluator):
    """Entrywise nonnegativity of the semigroup matrix on the grid.

    Intended for the evaluator of the boundary operator |bar|_inf - bar,
    whose generator keeps the M-matrix sign pattern on isotropic meshes.
    A sign failure under a non-isotropic coefficient field is reported as
    discretization-limited: P1 elements need not preserve positivity
    there even when the continuum operator does.
    """
    times = _grid(evaluator)
    mins = np.array([evaluator.min_entry(t) for t in times])
    if mins.min() >= -POSITIVITY_TOL:
        status = "passed"
    elif not evaluator.system.field.is_isotropic:
        status = "discretization-limited"
    else:
        status = "failed"
    return PositivityReport(times=times, min_entries=mins, status=status)


# ----------------------------------------------------------------------
@dataclass
class DominationReport(Report):
    times: np.ndarray
    max_violation: float
    form_max_violation: float
    form_scale: float
    samples: int
    seed: int
    status: str


def check_domination(evaluator, bar_evaluator, samples=50, seed=2024):
    """``domination_steps`` run alone."""
    return _alone(domination_steps, (evaluator, bar_evaluator), samples, seed)


def domination_steps(evaluator, bar_evaluator, samples=50, seed=2024):
    """|S(t) u| <= S_bar(t) |u| componentwise for random signed samples,
    with violations measured relative to the sup norm of u, plus the
    form-level criterion a_bar(|u|, |v|) <= a(u, v) on sign-aligned pairs.

    The comparison semigroup must be the one generated with boundary
    operator -bar: its form minorizes the original on sign-aligned pairs
    entry by entry, which is the discrete shape of the kernel bound
    |B w| <= bar w.  Registers |S(t) D| on the evaluator and S_bar(t) |D|
    on the comparison for the sample block D; the conclusion makes the
    report once both have swept.  No sample, or no common grid, is
    refused with ValueError: an empty grid would leave the form criterion
    alone."""
    require_samples(samples)
    times = _grid(evaluator, bar_evaluator)
    rng = np.random.default_rng(seed)
    n = len(evaluator.mass)
    draws = rng.standard_normal((samples, n))
    draws /= np.abs(draws).max(axis=1, keepdims=True)
    magnitudes = np.abs(draws).T
    # A product waits in ``held`` for its time's other one: the other
    # evaluator's, which one sweep hands out within the same chain when
    # both evaluators' chains hold the same times, or the next step's at
    # the same time when both are one evaluator.
    held, peaks = {}, {}

    def combine(t, side, product):
        other = held.pop((not side, t), None)
        if other is None:
            held[side, t] = product
        else:
            image, bound = (product, other) if side else (other, product)
            peaks[t] = float((image - bound).max(initial=0.0))

    evaluator.register(lambda t, S: combine(t, True, np.abs(S @ draws.T)))
    bar_evaluator.register(lambda t, S: combine(t, False, S @ magnitudes))
    form = evaluator.form
    form_bar = bar_evaluator.form
    form_scale = evaluator.system.form_scale
    pairs = rng.standard_normal((100, 2, n))
    U = pairs[:, 0]
    V = np.abs(pairs[:, 1]) * np.sign(U)
    values = (((form_bar @ np.abs(U).T).T * np.abs(V)).sum(axis=1)
              - ((form @ U.T).T * V).sum(axis=1))
    form_worst = max(float(values.max()), 0.0)

    def conclude():
        worst = 0.0
        for t in map(float, times):
            worst = max(worst, peaks[t])
        ok = worst <= DOMINATION_TOL and form_worst <= FORM_TOL * form_scale
        return DominationReport(
            times=times,
            max_violation=float(worst),
            form_max_violation=float(form_worst),
            form_scale=form_scale,
            samples=samples,
            seed=seed,
            status="passed" if ok else "failed",
        )
    return conclude


# ----------------------------------------------------------------------
@dataclass
class UltracontractivityReport(Report):
    times: np.ndarray
    norms: np.ndarray          # unshifted 2 -> sup norms
    alpha: float
    fitted_slope: float
    fitted_C: float
    mu: float
    window_times: np.ndarray
    envelope_ok: bool


def fit_ultracontractivity(evaluator):
    """Power-law fit of g(t), the 2 -> sup norm of the shifted semigroup
    at t; the report's norms are the unshifted ones, exp(alpha t) g(t).

    The window keeps grid points the mesh can resolve (t at least the
    squared shortest edge) whose local log-log slope is away from zero
    (the long-time plateau of the constant mode is excluded at threshold
    0.05), then trims the largest times one by one until every remaining
    point lies under fitted_C * t^slope * 1.05; the fit is least squares
    in log-log coordinates.  With fewer than 4 usable points the fit is
    refused.
    """
    times, alpha = evaluator.grid, evaluator.system.alpha
    g = np.array([evaluator.norm_2_to_inf(t) for t in times])
    log_t = np.log(times)
    log_g = np.log(g)
    # np.gradient needs two points; a single one counts as a plateau
    local = (np.gradient(log_g, log_t) if len(times) > 1
             else np.zeros(len(times)))
    resolved = evaluator.system.mesh.resolved_time
    usable = (times >= resolved) & (np.abs(local) >= PLATEAU_SLOPE)
    idx = np.nonzero(usable)[0]
    if len(idx) < MIN_FIT_POINTS:
        raise ValueError(
            f"only {len(idx)} usable grid points after windowing; "
            f"need {MIN_FIT_POINTS}")
    envelope_ok = False
    while True:
        design = np.vstack([np.ones(len(idx)), log_t[idx]]).T
        (intercept, slope), *_ = np.linalg.lstsq(design, log_g[idx],
                                                 rcond=None)
        fitted = intercept + slope * log_t[idx]
        envelope_ok = bool(
            np.all(log_g[idx] <= fitted + math.log(ENVELOPE_FACTOR)))
        if envelope_ok or len(idx) == MIN_FIT_POINTS:
            break
        idx = idx[:-1]
    return UltracontractivityReport(
        times=times,
        norms=g * np.exp(alpha * times),
        alpha=float(alpha),
        fitted_slope=float(slope),
        fitted_C=float(math.exp(intercept)),
        mu=float(-4.0 * slope),
        window_times=times[idx],
        envelope_ok=envelope_ok,
    )


# ----------------------------------------------------------------------
@dataclass
class EventualPositivityReport(Report):
    delta: float
    t0: float
    hypothesis_ok: bool
    times: np.ndarray
    ratios: np.ndarray
    samples: int
    seed: int
    status: str


def check_eventual_positivity(evaluator, times, samples=20, seed=2024):
    """``eventual_positivity_steps`` run alone."""
    return _alone(eventual_positivity_steps, (evaluator,), times, samples,
                  seed)


def eventual_positivity_steps(evaluator, times, samples=20, seed=2024):
    """Uniform lower bound (S(t) u)_i >= delta * integral(u) for
    nonnegative data and large times.

    Hypotheses checked discretely before any claim: the weighted boundary
    coupling must have nonnegative symmetric part and annihilate the
    constant boundary vector.  The scan uses the unshifted semigroup,
    exp(alpha t) times the shifted one, and reports the first time from
    which the worst sample ratio stays positive, with delta the worst
    ratio from there on.  A grid time among ``times`` is registered on
    the sweep; the step at the grid's last time t_max also takes every
    time past it (``SemigroupEvaluator.apply_beyond``).  Any other time,
    and every time of a grid-less evaluator, takes one ``matrix`` in the
    conclusion."""
    times = np.asarray(times, dtype=float)
    system = evaluator.system
    Bw = system.Bw
    sym_min = float(np.linalg.eigvalsh((0.5 * (Bw + Bw.T)).toarray()).min())
    ones_excess = float(abs(system.spec.matrix().sum(axis=1)).max())
    if not (sym_min >= -COUPLING_TOL and ones_excess <= COUPLING_TOL):
        return lambda: EventualPositivityReport(
            delta=math.nan, t0=math.nan, hypothesis_ok=False, times=times,
            ratios=np.full(len(times), math.nan), samples=samples, seed=seed,
            status="hypothesis unmet")
    rng = np.random.default_rng(seed)
    mesh, mass = system.mesh, system.mass
    data = [np.abs(rng.standard_normal(mesh.n_vertices))
            for _ in range(max(samples - 3, 1))]
    for vertex in (0, mesh.n_vertices // 2, int(mesh.boundary_vertices[-1])):
        bump = np.zeros(mesh.n_vertices)
        bump[vertex] = 1.0
        data.append(bump)
    integrals = np.array([float(mass @ u) for u in data])
    block = np.array(data).T

    def ratio(t, image):
        """The worst sample ratio at t from image = S(t) @ block."""
        return (math.exp(system.alpha * t)
                * float((image.min(axis=0) / integrals).min()))

    wanted = set(map(float, times))
    # no time lies past an empty grid, or one of zeros
    t_max = float(evaluator.grid.max(initial=0.0)) or math.inf
    beyond = sorted(u for u in wanted if u > t_max)
    found = {}

    def step(t, S):
        if t in wanted:
            found[t] = ratio(t, S @ block)
        if t == t_max and beyond and beyond[0] not in found:
            images = evaluator.apply_beyond(t, S, beyond, block)
            found.update((u, ratio(u, image))
                         for u, image in zip(beyond, images))
    evaluator.register(step)

    def conclude():
        ratios = np.array([found[t] if t in found
                           else ratio(t, evaluator.matrix(t) @ block)
                           for t in map(float, times)])
        # the first time from which every ratio is positive, if there is one
        start = 1 + max(np.flatnonzero(~(ratios > 0.0)), default=-1)
        passed = start < len(times)
        return EventualPositivityReport(
            delta=float(ratios[start:].min()) if passed else math.nan,
            t0=float(times[start]) if passed else math.nan,
            hypothesis_ok=True,
            times=times,
            ratios=ratios,
            samples=len(data),
            seed=seed,
            status="passed" if passed else "failed",
        )
    return conclude


# ----------------------------------------------------------------------
@dataclass
class EnergyReport(Report):
    max_excess: float
    scale: float
    samples: int
    seed: int
    status: str


def check_energy_dissipation(evaluator, times, samples=20, seed=2024):
    """The squared L2 norm along the adjoint shifted evolution S*(t)
    dissipates at least twice the squared H1 norm (centered finite
    difference in t against the instantaneous H1 energy).  All three
    matrices of a time come from ``dense_exponential`` of the sparse
    adjoint generator M^{-1} FormAtilde^T, one ``expm`` each and one held
    at a time, so a difference of O(1) terms never mixes them with the
    evaluator's doubling chain.  On a self-adjoint form (symmetry residual
    at most SYMMETRY_TOL) that is the evaluator's own generator, whose
    last bits the transpose need not share.  Each sample keeps its own
    matrix-vector product, because the value is a roundoff-amplified
    difference.  With no time to sample, nothing is concluded: max_excess
    is nan and the status discretization-limited.  Fewer than one sample,
    or a time that is not positive, is refused with ValueError."""
    require_samples(samples)
    if not all(t > 0 for t in times):
        raise ValueError("energy dissipation is sampled at positive times")
    system = evaluator.system
    generator = (evaluator.generator
                 if evaluator.symmetry_residual <= SYMMETRY_TOL
                 else lumped_generator(evaluator.form.T, evaluator.mass))
    rng = np.random.default_rng(seed)
    draws = [rng.standard_normal(system.n) for _ in range(samples)]
    scale = max((system.l2_norm(u) ** 2 for u in draws), default=0.0)
    worst = -math.inf
    for t in times:
        step = 1e-3 * t
        before, now, after = (_images(generator, s, draws)
                              for s in (t - step, t, t + step))
        for u_before, u_now, u_after in zip(before, now, after):
            derivative = (system.l2_norm(u_after) ** 2
                          - system.l2_norm(u_before) ** 2) / (2 * step)
            worst = max(worst, derivative + 2.0 * system.h1_norm(u_now) ** 2)
    if len(times):
        status = "passed" if worst <= ENERGY_TOL * scale else "failed"
    else:
        worst, status = math.nan, "discretization-limited"
    return EnergyReport(
        max_excess=float(worst),
        scale=float(scale),
        samples=samples,
        seed=seed,
        status=status,
    )


def _images(generator, t, draws):
    """[exp(-t generator) @ u for u in draws], from one
    ``dense_exponential`` dropped on return."""
    S = dense_exponential(generator, t)
    return [S @ u for u in draws]


# ----------------------------------------------------------------------
@dataclass
class DecayReport(Report):
    constant: float
    prefactor: float
    max_ratio: float
    times: np.ndarray
    samples: int
    seed: int
    status: str


def check_smoothing_decay(evaluator, nash_constant, times, samples=50,
                          seed=2024):
    """``smoothing_decay_steps`` run alone, on the whole of ``times``."""
    return _alone(smoothing_decay_steps, (evaluator,), nash_constant, times,
                  samples, seed)


def smoothing_decay_steps(evaluator, nash_constant, times, samples=50,
                          seed=2024):
    """Quantitative L1 -> L2 decay of the adjoint shifted semigroup
    S*(t) = M^{-1} S(t)^T M, formed from the evaluator's matrices:

        |S*(t) u|_L2 <= (d C / 4)^(d/4) t^(-d/4) |u|_L1

    with C the sampled interpolation constant on the same mesh; the
    report's max_ratio is the worst observed left/right quotient.  The
    conclusion ``conclude(window=times)`` reports at the times
    ``window``, an increasing subsequence of ``times`` (any other is
    refused with ValueError), and draws the k-th (samples, n) block of
    ``default_rng(seed)`` for the k-th window time.  So the i-th time of
    ``times`` can be the k-th window time for every k <= i: the step
    reduces S(t) there to those i + 1 largest ratios, one product per
    block replayed from the seed, and keeps the numbers, not S(t).  A
    window time the step did not see, one off the grid or one the sweep
    never handed out, takes one ``matrix``.  With no time to sample,
    nothing is concluded: max_ratio is nan and the status
    discretization-limited.  Fewer than one sample is refused with
    ValueError."""
    require_samples(samples)
    system = evaluator.system
    mass = system.mass
    d = system.mesh.dim
    prefactor = (d * nash_constant / 4.0) ** (d / 4.0)
    times = np.asarray(times, dtype=float)
    last = {float(t): i for i, t in enumerate(times)}   # its last index
    kept = {}       # t -> the largest ratio at t for each window position

    def largest_ratios(t, S, first, stop):
        """The largest ratio at t, from S = S(t), for each block k of
        ``default_rng(seed)`` with first <= k < stop."""
        rng = np.random.default_rng(seed)
        adjoint = ((S.T * mass) / mass[:, None]).T
        bound = prefactor * t ** (-d / 4.0)
        values = []
        for k in range(stop):
            U = rng.standard_normal((samples, system.n))
            if k >= first:
                SU = U @ adjoint
                ratios = (np.sqrt((SU * SU) @ mass)
                          / (bound * (np.abs(U) @ mass)))
                values.append(float(ratios.max(initial=0.0)))
        return values

    def step(t, S):
        if t in last and t not in kept:
            kept[t] = largest_ratios(t, S, 0, last[t] + 1)
    evaluator.register(step)

    def conclude(window=times):
        window = np.asarray(window, dtype=float)
        rest = iter(map(float, times))
        if (np.any(window[1:] < window[:-1])
                or not all(t in rest for t in map(float, window))):
            raise ValueError("the decay window is not an increasing "
                             "subsequence of the times")
        worst = 0.0
        for k, t in enumerate(window):
            ratio = (kept[float(t)][k] if float(t) in kept
                     else largest_ratios(t, evaluator.matrix(t), k, k + 1)[0])
            worst = max(worst, ratio)
        if len(window):
            status = "passed" if worst <= 1.0 else "failed"
        else:
            worst, status = math.nan, "discretization-limited"
        return DecayReport(
            constant=float(nash_constant),
            prefactor=float(prefactor),
            max_ratio=float(worst),
            times=window,
            samples=samples,
            seed=seed,
            status=status,
        )
    return conclude


# ----------------------------------------------------------------------
def write_document(mapping, target):
    """Serialize a report mapping as ``key: value`` lines; arrays become
    comma-separated decimals with 17 significant digits."""
    lines = [f"{key}: {format_value(value)}" for key, value in mapping.items()]
    return write_lines(lines, target)


def write_norms_csv(evaluator, target):
    """One row per grid time with the unshifted semigroup's mixed norms
    and its smallest matrix entry: exp(alpha t) times the shifted ones."""
    lines = ["t," + ",".join(NORMS_CSV)]
    times = _grid(evaluator)
    evaluator.record(*NORMS_CSV)       # one sweep records all four
    evaluator.sweep()
    for t in times:
        shift = math.exp(evaluator.system.alpha * t)
        row = (float(t), *(shift * getattr(evaluator, name)(t)
                           for name in NORMS_CSV))
        lines.append(",".join(f"{v:.17g}" for v in row))
    return write_lines(lines, target)
