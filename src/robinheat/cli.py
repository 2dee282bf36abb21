"""Config-driven experiment runner.

A scenario is a flat key-value text file with ``[section]`` headers and
the keys ``_SCHEMA`` lists; the runner builds the mesh, coefficients, and
boundary operator, assembles one system, runs the requested checks from
the table ``CHECKS`` (which says whether each needs the admissibility
condition), and writes a summary document, per-check reports, a norms
CSV, and a machine-readable manifest.  Running the same scenario twice
produces byte-identical CSV and manifest files.

Exit status of ``run``: 0 when every requested check passed or was
hypothesis gated, 1 when a conclusion failed under satisfied hypotheses,
2 for unusable input (parse errors, non-finite numbers, a negative seed
or no samples, missing files, schema mismatch, domains, coefficients,
boundary operators or time grids the builders reject, an assembly that
refuses or fails, an alpha t beyond the range of exp, a semigroup matrix
with a non-finite entry, and a Nash constant outside the float range).
A builder's refusal names the header line of the section it reads.
``compare`` exits 0 when two manifests agree, 1 when it lists a
difference and 2 on a schema mismatch or an unreadable file.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .mesh import (box_vertex_count, build_box_mesh, build_lshape_mesh,
                   lshape_vertex_count, write_lines)
from .coefficients import coefficient_field_from_config, build_boundary_operator
from .assembly import (RATIO_TOL, assemble_system, check_accretivity,
                       check_continuity, refuse_above_dense_limit)
from .semigroup import (build_evaluator, geometric_times, reuse,
                        semigroup_law_defect, sweep)
from . import verify
from .report import format_value as _fmt

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "run_scenario",
           "compare_manifests", "main"]

EXTRA_POSITIVITY_TIMES = (2.0, 5.0, 10.0, 20.0, 50.0)
COMPARE_TOL = 1e-6      # the relative drift ``compare`` lists
LAW_TOL = 1e-10         # the semigroup-law defect ``accretivity`` forgives


class ScenarioError(Exception):
    """Unusable input; the message names its line when there is one."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}" if line else message)


class Scenario:
    """Parsed scenario: one dict per builder section, and the run settings,
    each from its ``_SCHEMA`` default; a key with no default is absent."""

    def __init__(self):
        self.headers = {}       # section -> line of its header
        for section, keys in _SCHEMA.items():
            values = {key: parse(default) for key, (parse, default)
                      in keys.items() if default is not None}
            if section == "run":    # a run setting with no default is None
                for key in keys:
                    setattr(self, key, values.get(key))
            else:
                setattr(self, section, values)

    def build_mesh(self):
        """The [domain] mesh, refused above the dense limit by its vertex
        count before it, the field or the boundary operator is built."""
        shape, divisions = self.domain["shape"], self.domain["divisions"]
        # a box has one dimension per extent, an L-shape dim or the default
        dim = {"dim": self.domain["dim"]} if "dim" in self.domain else {}
        if shape == "box":
            extents = self.domain["extents"]
            if dim.get("dim", len(extents)) != len(extents):
                raise ValueError(f"dim {dim['dim']} disagrees with the "
                                 f"{len(extents)} extents of the box")
            if isinstance(divisions, int):
                divisions = [divisions] * len(extents)
            refuse_above_dense_limit(box_vertex_count(extents, divisions))
            return build_box_mesh(extents, divisions)
        if shape == "lshape":
            if isinstance(divisions, list):
                raise ValueError("lshape divisions: one number only")
            refuse_above_dense_limit(lshape_vertex_count(divisions, **dim))
            return build_lshape_mesh(divisions, **dim)
        raise ValueError(f"unknown domain shape {shape!r}")


def _finite(text):
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return number


def _floats(text):      # a "/" between rows reads like a comma
    parts = [p for chunk in text.split("/") for p in chunk.split(",")]
    return [_finite(p) for p in parts if p.strip()]


def _divisions(text):   # one int, or a list of one per axis
    numbers = [int(p) for p in text.split(",") if p.strip()]
    if not numbers:
        raise ValueError("no divisions given")
    return numbers[0] if len(numbers) == 1 else numbers


def _at_least(least, message):
    def parse(text):
        number = int(text)
        if number < least:
            raise ScenarioError(None, message)
        return number
    return parse


def _check_names(text):   # a check named twice runs once
    names = list(dict.fromkeys(c.strip() for c in text.split(",")
                               if c.strip()))
    for name in names:
        if name not in CHECKS:
            raise ScenarioError(None, f"unknown check {name!r} "
                                f"(known: {', '.join(CHECKS)})")
    return names


# Every key of a scenario file by section: (parser, default).  A parser
# raises ValueError on malformed text and ScenarioError on a refused value.
# A default is the text a scenario file would hold, or None for none.
# [run] sets Scenario attributes, every other section a dict.
_SCHEMA = {
    "domain": {"shape": (str, "box"), "extents": (_floats, "1.0, 1.0, 1.0"),
               "divisions": (_divisions, "4"), "dim": (int, None)},
    "coefficient": {"kind": (str, "isotropic"), "value": (_finite, "1.0"),
                    "values": (_floats, None), "entries": (_floats, None)},
    "boundary_operator": {"kind": (str, "zero"), "beta": (_finite, None),
                          "profile": (str, "constant"),
                          "scale": (_finite, "1.0"), "width": (_finite, None),
                          "entries": (_floats, None)},
    "time_grid": {"t_max": (_finite, "1.0"),
                  "ratio": (_finite, "0.70710678118654752"),
                  "count": (int, "24")},
    "run": {"checks": (_check_names, None), "output_dir": (str, None),
            "samples": (_at_least(1, "samples must be positive"), "200"),
            "seed": (_at_least(0, "seed must be nonnegative"), "2024")},
}


def parse_scenario(text):
    scenario = Scenario()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ScenarioError(lineno, f"unknown section [{section}]")
            scenario.headers.setdefault(section, lineno)
            continue
        if "=" not in line:
            raise ScenarioError(lineno, f"expected key = value, got {raw!r}")
        if section is None:
            raise ScenarioError(lineno, "key outside of any [section]")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _SCHEMA[section]:
            raise ScenarioError(lineno, f"unknown key {key!r} in [{section}]")
        parse, _ = _SCHEMA[section][key]
        try:
            value = parse(value)
        except ScenarioError as exc:
            raise ScenarioError(lineno, str(exc)) from exc
        except ValueError as exc:
            raise ScenarioError(lineno, f"{key}: {exc}") from exc
        if section == "run":
            setattr(scenario, key, value)
        else:
            getattr(scenario, section)[key] = value
    if not scenario.checks:
        raise ScenarioError(None, "no checks requested ([run] checks = ...)")
    return scenario


# ----------------------------------------------------------------------
class _Run:
    """One scenario run: what every check runner reads (the scenario, the
    assembled system, its evaluator, the time grid and the smallest time
    the mesh resolves) and what the runs record.  A runner registers its
    check's per-time steps on the primal evaluator and on those
    ``comparison`` gives it, all on the grid, and returns the check's
    conclusion; ``run_scenario`` then sweeps all its evaluators once,
    chain by chain, so each chain is computed once, makes ``fitted`` (the
    ultracontractivity fit, or the ValueError that refused it) when that
    check runs, and records the conclusions in order."""

    def __init__(self, scenario, system, grid):
        self.scenario = scenario
        self.seed = scenario.seed
        self.system = system
        self.grid = grid
        self.resolved = system.mesh.resolved_time
        self.evaluator = build_evaluator(system, grid=grid)
        self.comparisons = []
        self.fitted = None
        self.summary = []
        self.manifest = {}
        self.reports = {}

    def comparison(self, system):
        """The evaluator of the comparison ``system``: the primal when
        ``reuse`` finds them equal, else a new one, which the run sweeps."""
        evaluator = reuse(self.evaluator,
                          build_evaluator(system, grid=self.grid))
        if evaluator is not self.evaluator:
            self.comparisons.append(evaluator)
        return evaluator

    def note(self, line):
        self.summary.append(line)

    def record(self, check, conclusion):
        """Take the check's verdict from its ``conclusion``, one mapping
        that holds its ``status``: the manifest's ``<check>.status`` and
        numbers, the summary line, the exit code and ``<check>.txt``."""
        self.reports[check] = conclusion
        self.manifest[f"{check}.status"] = conclusion["status"]
        for key, value in conclusion.items():
            if isinstance(value, (int, float, np.floating, bool, np.bool_)):
                self.manifest[f"{check}.{key}"] = _fmt(value)
        self.note(f"{check}: {conclusion['status']}")

    def resolved_times(self):
        """The grid times the mesh resolves: t >= mesh.resolved_time."""
        return self.grid[self.grid >= self.resolved]

    def runs(self, check):
        """Whether ``check`` is requested and not gated off: the
        admissibility condition holds or the check does not need it."""
        needs_admissibility, _ = CHECKS[check]
        return check in self.scenario.checks and (
            self.system.admissibility.admissible or not needs_admissibility)


def run_scenario(path, output_dir=None, seed=None, stream=None):
    if stream is None:
        stream = sys.stdout
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(None, f"cannot read {path}: {exc}") from exc
    scenario = parse_scenario(text)
    if seed is not None:
        scenario.seed = _SCHEMA["run"]["seed"][0](seed)
    out = Path(output_dir or scenario.output_dir or f"runs/{path.stem}")
    out.mkdir(parents=True, exist_ok=True)

    # a builder's refusal names the header line of the section it reads
    def build(section, builder, *args, **kwargs):
        line = scenario.headers.get(section)
        try:
            return builder(*args, **kwargs)
        except KeyError as exc:
            raise ScenarioError(line, f"missing key {exc.args[0]!r}") from exc
        except (ValueError, RuntimeError) as exc:
            raise ScenarioError(line, str(exc)) from exc

    mesh = build("domain", scenario.build_mesh)
    field = build("coefficient", coefficient_field_from_config, mesh,
                  scenario.coefficient)
    spec = build("boundary_operator", build_boundary_operator, mesh,
                 scenario.boundary_operator)
    grid = build("time_grid", geometric_times, **scenario.time_grid)
    # the assembly refuses only meshes: one with no trace norm (build_mesh
    # has refused one too large)
    system = build("domain", assemble_system, mesh, field, spec)
    run = _Run(scenario, system, grid)
    horizon = (max(grid[-1], EXTRA_POSITIVITY_TIMES[-1])
               if run.runs("eventual_positivity") else grid[-1])
    limit = math.log(sys.float_info.max)
    if system.alpha * horizon > limit:
        raise ScenarioError(None, f"alpha {_fmt(system.alpha)} times the "
                            f"longest time {_fmt(horizon)} exceeds "
                            f"{_fmt(limit)}, where exp(alpha t) overflows")
    admissibility = system.admissibility
    run.note(f"scenario: {path.name}")
    run.note(f"mesh: dim {mesh.dim}, {mesh.n_vertices} vertices, "
             f"{mesh.n_cells} cells, volume {_fmt(mesh.volume)}")
    run.note(f"alpha: {_fmt(system.alpha)}")
    run.note(f"trace_norm_sq: {_fmt(system.trace_norm_sq)}")
    run.note(f"admissible: {_fmt(admissibility.admissible)} "
             f"(margin {_fmt(admissibility.margin)})")
    for key, value in admissibility.as_dict().items():
        run.manifest[f"admissibility.{key}"] = _fmt(value)
    if grid[0] < run.resolved:
        run.note(f"warning: smallest grid time {_fmt(grid[0])} is below the "
                 f"resolved scale {_fmt(run.resolved)}; norm values there "
                 f"reflect the mesh resolution, not the domain")

    try:
        conclusions = [(check, (CHECKS[check][1] if run.runs(check)
                                else _run_gated)(run))
                       for check in scenario.checks]
        run.evaluator.record(*verify.NORMS_CSV)
        # One sweep, chain by chain.  The primal goes last in each chain,
        # so domination's comparison product is the one that waits.
        sweep(run.comparisons + [run.evaluator])
        if run.runs("ultracontractivity"):
            try:
                run.fitted = verify.fit_ultracontractivity(run.evaluator)
            except ValueError as exc:
                # without its traceback, whose frames hold the run
                run.fitted = exc.with_traceback(None)
        for check, conclude in conclusions:
            run.record(check, conclude())
        run.note("generator symmetry residual: "
                 f"{_fmt(run.evaluator.symmetry_residual)}")
        _write_outputs(out, run)
    except FloatingPointError as exc:    # a non-finite semigroup matrix
        raise ScenarioError(None, str(exc)) from exc
    for line in run.summary:
        print(line, file=stream)
    print(f"output: {out}", file=stream)
    statuses = [conclusion["status"] for conclusion in run.reports.values()]
    return 1 if "failed" in statuses else 0


# -- check runners: each takes the run, registers the per-time steps of
# its check on the primal evaluator and on the comparisons it takes from
# ``run.comparison``, and returns the conclusion, which gives the check's
# document once they have swept, with "status" last if its report has
# none.  Each looks its library functions up when it is called ---------
def _run_gated(run):
    """A check that needs the admissibility condition, which fails."""
    reason = ("admissibility condition violated: "
              f"margin {_fmt(run.system.admissibility.margin)}")
    return lambda: {"reason": reason, "status": "hypothesis unmet"}


def _run_accretivity(run):
    """Form accretivity plus the identities it buys: resolvent
    contraction, the semigroup law, L2 contraction, and the energy
    dissipation rate along the adjoint evolution.  The 2->2 norms of a
    non-self-adjoint form are registered only once the form passed.  The
    law, resolvent and energy checks read no grid matrix, so they run
    before any sweep, while no step holds one."""
    report = check_accretivity(run.system)
    payload = report.as_dict()
    if report.status == "hypothesis unmet":
        return lambda: payload
    evaluator = run.evaluator
    evaluator.record("norm_2_to_2")
    law = max(semigroup_law_defect(evaluator, s, t)
              for s, t in ((0.25, 0.375), (1 / 3, 2 / 3)))
    resolvent = max(evaluator.resolvent_contraction(lam)
                    for lam in (0.1, 1.0, 10.0))
    energy = verify.check_energy_dissipation(
        evaluator, run.resolved_times()[:5],
        samples=min(run.scenario.samples, 20), seed=run.seed)

    def conclude():
        l2 = max(evaluator.norm_2_to_2(t) for t in run.grid)
        payload.update(law_defect=law, max_l2_norm=l2,
                       max_resolvent_norm=resolvent,
                       energy_max_excess=energy.max_excess)
        ok = (report.status == "passed" and law <= LAW_TOL
              and l2 <= 1.0 + RATIO_TOL and resolvent <= 1.0 + RATIO_TOL)
        return _conclude(run, ok, energy, payload)
    return conclude


def _run_continuity(run):
    return lambda: check_continuity(run.system, samples=run.scenario.samples,
                                    seed=run.seed).as_dict()


def _run_nash(run):
    """Nash's inequality and the L1 -> L2 decay it implies, sampled on the
    ultracontractivity fit window when that check runs and its fit
    succeeds, on the resolved grid times otherwise.  The decay step keeps,
    at each resolved grid time, the largest ratio for every window
    position the time can take, so no matrix waits for the window."""
    report = verify.check_nash(run.system, samples=run.scenario.samples,
                               seed=run.seed)
    payload = report.as_dict()
    if report.status == "hypothesis unmet":
        return lambda: payload
    constant = report.implied_constant
    if not 0.0 < constant < math.inf:
        raise ScenarioError(None, f"Nash constant {_fmt(constant)} is outside "
                            f"the float range on a mesh of volume "
                            f"{_fmt(run.system.mesh.volume)}")
    decay_at = verify.smoothing_decay_steps(
        run.evaluator, constant, run.resolved_times(),
        samples=min(run.scenario.samples, 50), seed=run.seed)

    def conclude():
        fit = run.fitted
        decay = (decay_at(fit.window_times)
                 if isinstance(fit, verify.UltracontractivityReport)
                 else decay_at())
        payload.update(decay_max_ratio=decay.max_ratio,
                       decay_prefactor=decay.prefactor)
        return _conclude(run, report.status == "passed", decay, payload)
    return conclude


def _conclude(run, ok, sampled, payload):
    """``payload`` concluded for a check that also rests on a report
    sampled at the resolved grid times: failed when ``ok`` is false or
    the sampled report failed; discretization-limited, with the reason in
    the payload, when no grid time was resolved, so nothing was sampled;
    passed otherwise."""
    status = sampled.status if ok else "failed"
    if status == "discretization-limited":
        payload["reason"] = (
            f"no grid time reaches the resolved scale {_fmt(run.resolved)}"
            f" (the longest is {_fmt(run.grid[-1])}), so nothing was sampled")
    return {**payload, "status": status}


def _run_contractivity(run):
    run.evaluator.record("norm_inf_to_inf")

    def conclude():
        report = verify.check_ouhabaz_contractivity_criterion(
            run.system, samples=max(run.scenario.samples, 100),
            seed=run.seed)
        bounds = verify.check_sup_contraction(run.evaluator)
        ok = report.status == bounds.status == "passed"
        return {**report.as_dict(), **bounds.as_dict(),
                "status": "passed" if ok else "failed"}
    return conclude


def _run_positivity(run):
    """The semigroup of |bar|_inf - bar, the system the truncation
    criterion of ``contractivity`` also reads."""
    evaluator = run.comparison(run.system.shifted_bar(-1))
    evaluator.record("min_entry")
    return lambda: verify.check_positivity(evaluator).as_dict()


def _run_domination(run):
    bar_evaluator = run.comparison(
        run.system.with_boundary(run.system.spec.dominating()))
    conclude = verify.domination_steps(
        run.evaluator, bar_evaluator,
        samples=min(run.scenario.samples, 50), seed=run.seed)
    return lambda: conclude().as_dict()


def _run_ultracontractivity(run):
    run.evaluator.record("norm_2_to_inf")

    def conclude():
        fit = run.fitted
        if isinstance(fit, ValueError):
            return {"reason": str(fit), "status": "discretization-limited"}
        # The adjoint's 1 -> 2 norm is the 2 -> sup norm by duality, so
        # its fit is this one.  Both keys stay until the benchmark
        # reference can take a declared key change (ROADMAP item 1).
        return {**fit.as_dict(), "adjoint_fitted_slope": fit.fitted_slope,
                "adjoint_consistent": True,
                "status": "passed" if fit.envelope_ok else "failed"}
    return conclude


def _run_eventual_positivity(run):
    conclude = verify.eventual_positivity_steps(
        run.evaluator,
        np.union1d(run.grid, EXTRA_POSITIVITY_TIMES),
        samples=min(run.scenario.samples, 20), seed=run.seed)
    return lambda: conclude().as_dict()


# Every check: name -> (needs admissibility, runner), in the order the
# parser lists them.
CHECKS = {
    "accretivity": (False, _run_accretivity),
    "continuity": (False, _run_continuity),
    "nash": (False, _run_nash),
    "contractivity": (True, _run_contractivity),
    "positivity": (False, _run_positivity),
    "domination": (True, _run_domination),
    "ultracontractivity": (True, _run_ultracontractivity),
    "eventual_positivity": (True, _run_eventual_positivity),
}


def _write_outputs(out, run):
    verify.write_norms_csv(run.evaluator, out / "norms.csv")
    write_lines(run.summary, out / "summary.txt")
    header = [f"checks: {','.join(run.scenario.checks)}", f"seed: {run.seed}"]
    write_lines(header + [f"{key}: {run.manifest[key]}"
                          for key in sorted(run.manifest)],
                out / "manifest.txt")
    for check, report in run.reports.items():
        verify.write_document(report, out / f"{check}.txt")
    fit = run.fitted
    if isinstance(fit, verify.UltracontractivityReport):
        lines = ["t,norm_2_to_inf,g,in_window"]
        window = set(float(t) for t in fit.window_times)
        for t, norm in zip(fit.times, fit.norms):
            g = norm * math.exp(-fit.alpha * t)
            flag = 1 if float(t) in window else 0
            lines.append(f"{t:.17g},{norm:.17g},{g:.17g},{flag}")
        write_lines(lines, out / "ultracontractivity.csv")


# ----------------------------------------------------------------------
def compare_manifests(path_a, path_b, stream=None):
    if stream is None:
        stream = sys.stdout

    def load(path):
        entries = {}
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ScenarioError(None, f"cannot read {path}: {exc}") from exc
        for line in text.splitlines():
            if not line.strip():
                continue
            key, _, value = line.partition(":")
            entries[key.strip()] = value.strip()
        return entries

    a = load(path_a)
    b = load(path_b)
    if a.get("checks") != b.get("checks"):
        raise ScenarioError(
            None, f"schema mismatch: checks {a.get('checks')!r} vs "
            f"{b.get('checks')!r}")
    keys_a, keys_b = set(a), set(b)
    if keys_a != keys_b:
        missing = sorted(keys_a ^ keys_b)
        raise ScenarioError(
            None, f"schema mismatch: keys differ ({', '.join(missing[:6])})")
    rows = []
    for key in sorted(a):
        va, vb = a[key], b[key]
        try:
            fa, fb = float(va), float(vb)
        except ValueError:
            if va != vb:
                rows.append((key, va, vb, ""))
            continue
        rel = abs(fa - fb) / max(abs(fa), abs(fb), 1e-300)
        if rel > COMPARE_TOL or (math.isnan(rel) and va != vb):  # a nan or inf
            rows.append((key, va, vb, f"{rel:.3g}"))
    if not rows:
        print("no differences", file=stream)
        return 0
    width = max(len(r[0]) for r in rows)
    for key, va, vb, rel in rows:
        suffix = f"  (rel {rel})" if rel else ""
        print(f"{key:<{width}}  {va}  {vb}{suffix}", file=stream)
    return 1


# ----------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="robinheat",
        description="Run inequality checks for boundary-coupled heat "
                    "semigroups on a scenario file.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a scenario")
    runp.add_argument("scenario")
    runp.add_argument("--output-dir", default=None)
    runp.add_argument("--seed", type=int, default=None)
    cmpp = sub.add_parser("compare", help="diff two run manifests")
    cmpp.add_argument("manifest_a")
    cmpp.add_argument("manifest_b")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_scenario(args.scenario, output_dir=args.output_dir,
                                seed=args.seed)
        return compare_manifests(args.manifest_a, args.manifest_b)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
