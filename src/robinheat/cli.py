"""Config-driven experiment runner.

A scenario is a flat key-value text file with ``[section]`` headers; the
runner builds the mesh, coefficients, and boundary operator, gates the
requested checks on the admissibility condition, and writes a summary
document, per-check reports, a norms CSV, and a machine-readable
manifest.  Running the same scenario twice produces byte-identical CSV
and manifest files.

Exit status: 0 when every requested check passed or was hypothesis
gated, 1 when a conclusion failed under satisfied hypotheses, 2 for
unusable input (parse errors, missing files, schema mismatch, and
domains, coefficients or boundary operators the builders reject).
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .mesh import build_box_mesh, build_lshape_mesh, write_lines
from .coefficients import coefficient_field_from_config, build_boundary_operator
from .assembly import assemble_system, check_accretivity, check_continuity
from .semigroup import build_evaluator, geometric_times, semigroup_law_defect
from . import verify

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "run_scenario",
           "compare_manifests", "main"]

KNOWN_CHECKS = (
    "accretivity", "continuity", "nash", "contractivity", "positivity",
    "domination", "ultracontractivity", "eventual_positivity",
)

EXTRA_POSITIVITY_TIMES = (2.0, 5.0, 10.0, 20.0, 50.0)


class ScenarioError(Exception):
    """Parse or validation error, carrying the offending line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class Scenario:
    """Parsed scenario: domain, coefficient, boundary operator, grid, run
    settings."""

    def __init__(self):
        self.domain = {"shape": "box"}
        self.coefficient = {"kind": "isotropic", "value": 1.0}
        self.boundary_operator = {"kind": "zero"}
        self.time_grid = {"t_max": 1.0, "ratio": 2.0 ** -0.5, "count": 24}
        self.checks = []
        self.samples = 200
        self.seed = 2024
        self.output_dir = None
        self.alpha = None

    def build_mesh(self):
        shape = self.domain.get("shape", "box")
        if shape == "box":
            extents = self.domain.get("extents", (1.0, 1.0, 1.0))
            divisions = self.domain.get("divisions", 4)
            if isinstance(divisions, (int, float)):
                divisions = [int(divisions)] * len(extents)
            return build_box_mesh(extents, divisions)
        if shape == "lshape":
            divisions = int(self.domain.get("divisions", 4))
            dim = int(self.domain.get("dim", 2))
            return build_lshape_mesh(divisions, dim=dim)
        raise ScenarioError(None, f"unknown domain shape {shape!r}")


_FLOAT_KEYS = {
    ("coefficient", "value"), ("coefficient", "alpha"),
    ("boundary_operator", "beta"), ("boundary_operator", "scale"),
    ("boundary_operator", "width"),
    ("time_grid", "t_max"), ("time_grid", "ratio"),
}
_INT_KEYS = {
    ("domain", "dim"), ("time_grid", "count"),
    ("run", "samples"), ("run", "seed"),
}
_LIST_KEYS = {
    ("domain", "extents"), ("coefficient", "values"),
    ("coefficient", "entries"), ("boundary_operator", "entries"),
}
_SECTIONS = ("domain", "coefficient", "boundary_operator", "time_grid", "run")


def parse_scenario(text):
    scenario = Scenario()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ScenarioError(lineno, f"unknown section [{section}]")
            continue
        if "=" not in line:
            raise ScenarioError(lineno, f"expected key = value, got {raw!r}")
        if section is None:
            raise ScenarioError(lineno, "key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            parsed = _parse_value(section, key, value)
        except ValueError as exc:
            raise ScenarioError(lineno, f"{key}: {exc}") from exc
        _store(scenario, section, key, parsed, lineno)
    if not scenario.checks:
        raise ScenarioError(None, "no checks requested ([run] checks = ...)")
    return scenario


def _parse_value(section, key, value):
    if (section, key) in _FLOAT_KEYS:
        return float(value)
    if (section, key) in _INT_KEYS:
        return int(value)
    if (section, key) in _LIST_KEYS:
        parts = [p for chunk in value.split("/") for p in chunk.split(",")]
        return [float(p) for p in parts if p.strip()]
    if (section, key) == ("domain", "divisions"):
        parts = [p for p in value.split(",") if p.strip()]
        numbers = [int(p) for p in parts]
        return numbers[0] if len(numbers) == 1 else numbers
    return value


def _store(scenario, section, key, value, lineno):
    if section == "run":
        if key == "checks":
            names = [c.strip() for c in str(value).split(",") if c.strip()]
            for name in names:
                if name not in KNOWN_CHECKS:
                    raise ScenarioError(
                        lineno, f"unknown check {name!r} "
                        f"(known: {', '.join(KNOWN_CHECKS)})")
            scenario.checks = names
        elif key == "samples":
            scenario.samples = value
        elif key == "seed":
            scenario.seed = value
        elif key == "output_dir":
            scenario.output_dir = value
        else:
            raise ScenarioError(lineno, f"unknown key {key!r} in [run]")
        return
    target = getattr(scenario, section)
    known = {
        "domain": ("shape", "extents", "divisions", "dim"),
        "coefficient": ("kind", "value", "values", "entries", "alpha"),
        "boundary_operator": ("kind", "beta", "profile", "scale", "width",
                              "entries"),
        "time_grid": ("t_max", "ratio", "count"),
    }[section]
    if key not in known:
        raise ScenarioError(lineno, f"unknown key {key!r} in [{section}]")
    if section == "coefficient" and key == "alpha":
        scenario.alpha = value
        return
    target[key] = value


# ----------------------------------------------------------------------
def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


class _Run:
    """Mutable state while executing one scenario."""

    def __init__(self, scenario, seed):
        self.scenario = scenario
        self.seed = seed
        self.summary = []
        self.manifest = {}
        self.reports = {}
        self.failed = []

    def note(self, line):
        self.summary.append(line)

    def record(self, check, report_dict, status):
        self.reports[check] = report_dict
        self.manifest[f"{check}.status"] = status
        for key, value in report_dict.items():
            if isinstance(value, (int, float, np.floating, bool, np.bool_)):
                self.manifest[f"{check}.{key}"] = _fmt(value)
        if status == "failed":
            self.failed.append(check)
        self.note(f"{check}: {status}")


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
        scenario.seed = seed
    out = Path(output_dir or scenario.output_dir or f"runs/{path.stem}")
    out.mkdir(parents=True, exist_ok=True)

    try:
        mesh = scenario.build_mesh()
        field = coefficient_field_from_config(mesh, scenario.coefficient)
        spec = build_boundary_operator(mesh, scenario.boundary_operator)
    except KeyError as exc:
        raise ScenarioError(None, f"missing key {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ScenarioError(None, str(exc)) from exc
    run = _Run(scenario, scenario.seed)
    run.note(f"scenario: {path.name}")
    run.note(f"mesh: dim {mesh.dim}, {mesh.n_vertices} vertices, "
             f"{mesh.n_cells} cells, volume {_fmt(mesh.volume)}")
    if scenario.alpha is not None and not math.isclose(
            scenario.alpha, field.alpha, rel_tol=1e-12):
        message = (f"warning: scenario alpha {_fmt(scenario.alpha)} ignored; "
                   f"certified ellipticity constant {_fmt(field.alpha)} wins")
        run.note(message)
        print(message, file=sys.stderr)

    system = assemble_system(mesh, field, spec)
    admissibility = system.admissibility
    run.note(f"alpha: {_fmt(system.alpha)}")
    run.note(f"trace_norm_sq: {_fmt(system.trace_norm_sq)}")
    run.note(f"admissible: {_fmt(admissibility.admissible)} "
             f"(margin {_fmt(admissibility.margin)})")
    for key, value in admissibility.as_dict().items():
        run.manifest[f"admissibility.{key}"] = _fmt(value)

    grid = geometric_times(scenario.time_grid["t_max"],
                           scenario.time_grid["ratio"],
                           scenario.time_grid["count"])
    resolved = mesh.min_edge_length ** 2
    if grid[0] < resolved:
        run.note(f"warning: smallest grid time {_fmt(grid[0])} is below the "
                 f"resolved scale {_fmt(resolved)}; norm values there "
                 f"reflect the mesh resolution, not the domain")

    evaluator = build_evaluator(system)
    adjoint = build_evaluator(system, adjoint=True)

    gated = ("contractivity", "domination", "ultracontractivity",
             "eventual_positivity")
    fit_report = None
    for check in scenario.checks:
        if check in gated and not admissibility.admissible:
            run.record(check, {"reason": "admissibility condition violated: "
                               f"margin {_fmt(admissibility.margin)}"},
                       "hypothesis unmet")
            continue
        if check == "accretivity":
            payload, status = _run_accretivity(system, evaluator, adjoint,
                                               grid, scenario, resolved)
            run.record(check, payload, status)
        elif check == "continuity":
            report = check_continuity(system, samples=scenario.samples,
                                      seed=scenario.seed)
            run.record(check, report.as_dict(),
                       "passed" if report.passed else "failed")
        elif check == "nash":
            status, payload = _run_nash(system, adjoint, grid, scenario,
                                        fit_report, resolved)
            run.record(check, payload, status)
        elif check == "contractivity":
            report = verify.check_ouhabaz_contractivity_criterion(
                system, samples=max(scenario.samples, 100),
                seed=scenario.seed)
            bounds = verify.check_sup_contraction(evaluator, adjoint, grid)
            payload = report.as_dict()
            payload.update(bounds.as_dict())
            status = ("passed" if report.status == "passed"
                      and bounds.status == "passed" else "failed")
            run.record(check, payload, status)
        elif check == "positivity":
            bar_system = assemble_system(mesh, field, spec.shifted_bar(-1))
            report = verify.check_positivity(build_evaluator(bar_system), grid)
            run.record(check, report.as_dict(), report.status)
        elif check == "domination":
            bar_system = assemble_system(mesh, field, spec.dominating())
            report = verify.check_domination(
                evaluator, build_evaluator(bar_system), grid,
                samples=min(scenario.samples, 50), seed=scenario.seed)
            run.record(check, report.as_dict(), report.status)
        elif check == "ultracontractivity":
            try:
                fit_report = verify.fit_ultracontractivity(
                    evaluator, system.alpha, grid)
                adjoint_fit = verify.fit_ultracontractivity(
                    adjoint, system.alpha, grid, norm="1_to_2")
            except ValueError as exc:     # too few resolved grid points
                fit_report = None
                run.record(check, {"reason": str(exc)},
                           "discretization-limited")
                continue
            payload = fit_report.as_dict()
            payload["adjoint_fitted_slope"] = adjoint_fit.fitted_slope
            consistent = (abs(fit_report.fitted_slope
                              - adjoint_fit.fitted_slope)
                          <= 1e-9 * abs(fit_report.fitted_slope))
            payload["adjoint_consistent"] = consistent
            status = ("passed" if fit_report.envelope_ok and consistent
                      else "failed")
            run.record(check, payload, status)
        elif check == "eventual_positivity":
            times = np.concatenate([grid, EXTRA_POSITIVITY_TIMES])
            report = verify.check_eventual_positivity(
                evaluator, spec, times, samples=min(scenario.samples, 20),
                seed=scenario.seed)
            run.record(check, report.as_dict(), report.status)

    run.note(f"generator symmetry residual: "
             f"{_fmt(evaluator.symmetry_residual)}")
    _write_outputs(out, run, evaluator, grid, fit_report)
    for line in run.summary:
        print(line, file=stream)
    print(f"output: {out}", file=stream)
    return 1 if run.failed else 0


def _run_accretivity(system, evaluator, adjoint, grid, scenario, resolved):
    """Form accretivity plus the identities it buys: resolvent
    contraction, the semigroup law, L2 contraction, and the energy
    dissipation rate along the adjoint evolution."""
    report = check_accretivity(system)
    payload = report.as_dict()
    if report.status == "hypothesis unmet":
        return payload, "hypothesis unmet"
    law = max(semigroup_law_defect(evaluator, s, t)
              for s, t in ((0.25, 0.375), (1 / 3, 2 / 3)))
    l2 = max(evaluator.norm_2_to_2(t) for t in grid)
    resolvent = max(evaluator.resolvent_contraction(lam)
                    for lam in (0.1, 1.0, 10.0))
    energy_times = [t for t in grid if t >= resolved][:5]
    energy = verify.check_energy_dissipation(
        adjoint, energy_times, samples=min(scenario.samples, 20),
        seed=scenario.seed)
    payload["law_defect"] = law
    payload["max_l2_norm"] = l2
    payload["max_resolvent_norm"] = resolvent
    payload["energy_max_excess"] = energy.max_excess
    ok = (report.status == "passed" and law <= 1e-10
          and l2 <= 1.0 + 1e-10 and resolvent <= 1.0 + 1e-10
          and energy.status == "passed")
    status = "passed" if ok else "failed"
    payload["status"] = status
    return payload, status


def _run_nash(system, adjoint, grid, scenario, fit_report, resolved):
    mesh = system.mesh
    try:
        report = verify.check_nash(mesh, system, samples=scenario.samples,
                                   seed=scenario.seed,
                                   allow_low_dimension=mesh.dim <= 2)
    except ValueError as exc:
        return "hypothesis unmet", {"reason": str(exc)}
    payload = report.as_dict()
    if report.status == "out-of-hypothesis":
        return "hypothesis unmet", payload
    if fit_report is not None:
        decay_times = fit_report.window_times
    else:
        decay_times = np.array([t for t in grid if t >= resolved])
    decay = verify.check_smoothing_decay(
        adjoint, report.implied_constant, decay_times,
        samples=min(scenario.samples, 50), seed=scenario.seed)
    payload["decay_max_ratio"] = decay.max_ratio
    payload["decay_prefactor"] = decay.prefactor
    status = ("passed" if report.status == "passed"
              and decay.status == "passed" else "failed")
    return status, payload


def _write_outputs(out, run, evaluator, grid, fit_report):
    verify.write_norms_csv(evaluator, grid, out / "norms.csv")
    write_lines(run.summary, out / "summary.txt")
    header = [f"checks: {','.join(run.scenario.checks)}", f"seed: {run.seed}"]
    write_lines(header + [f"{key}: {run.manifest[key]}"
                          for key in sorted(run.manifest)],
                out / "manifest.txt")
    for check, report in run.reports.items():
        verify.write_document(report, out / f"{check}.txt")
    if fit_report is not None:
        lines = ["t,norm_2_to_inf,g,in_window"]
        window = set(float(t) for t in fit_report.window_times)
        for t, norm in zip(fit_report.times, fit_report.norms):
            g = norm * math.exp(-fit_report.alpha * t)
            flag = 1 if float(t) in window else 0
            lines.append(f"{t:.17g},{norm:.17g},{g:.17g},{flag}")
        write_lines(lines, out / "ultracontractivity.csv")


# ----------------------------------------------------------------------
def compare_manifests(path_a, path_b, stream=None, tol=1e-6):
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
        denom = max(abs(fa), abs(fb), 1e-300)
        rel = abs(fa - fb) / denom
        if rel > tol:
            rows.append((key, va, vb, f"{rel:.3g}"))
    if not rows:
        print("no differences", file=stream)
        return 0
    width = max(len(r[0]) for r in rows)
    for key, va, vb, rel in rows:
        suffix = f"  (rel {rel})" if rel else ""
        print(f"{key:<{width}}  {va}  {vb}{suffix}", file=stream)
    return 0


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
