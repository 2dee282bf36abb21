"""Child process of the benchmark: one set-up or one pass of a workload.

    python3 worker.py JOB_JSON RESULT_JSON

The job names the mode, the operations (a name, a kind and the path of
the scenario file the benchmark generated) and the output directory.
``setup`` imports robinheat and parses every scenario file, then exits;
the parent times the whole process.  ``pass`` runs every operation once,
timing each call, and writes the per-operation results, the peak RSS of
this process, the effective OpenBLAS thread count and, when the job asks
for it, the trace summary into RESULT_JSON.
"""

import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_gate(path):
    """The gate_fine operation: parse, build the mesh, the coefficient
    field, the boundary operator and the system, run the continuity and
    accretivity checks and build the evaluator."""
    import robinheat
    from robinheat import cli

    scenario = cli.parse_scenario(Path(path).read_text())
    domain = scenario.domain
    divisions = domain["divisions"]
    if isinstance(divisions, int):
        divisions = [divisions] * len(domain["extents"])
    mesh = robinheat.build_box_mesh(domain["extents"], divisions)
    resolved = mesh.min_edge_length ** 2
    field = robinheat.coefficient_field_from_config(mesh,
                                                    scenario.coefficient)
    spec = robinheat.build_boundary_operator(mesh, scenario.boundary_operator)
    system = robinheat.assemble_system(mesh, field, spec)
    continuity = robinheat.check_continuity(system, samples=scenario.samples,
                                            seed=scenario.seed)
    accretivity = robinheat.check_accretivity(system)
    evaluator = robinheat.build_evaluator(system)
    return (scenario, mesh, resolved, field, spec, system, continuity,
            accretivity, evaluator)


def write_gate_manifest(results, out):
    """Write what the gate_fine operation computed as manifest.txt, and
    return 0 like a run with every check passed, 1 otherwise."""
    from robinheat.cli import _fmt

    (scenario, mesh, resolved, field, spec, system, continuity, accretivity,
     evaluator) = results
    manifest = {
        "seed": scenario.seed,
        "mesh.n_vertices": mesh.n_vertices,
        "mesh.n_cells": mesh.n_cells,
        "mesh.volume": float(mesh.volume),
        "mesh.resolved_time": float(resolved),
        "field.alpha": float(field.alpha),
        "operator.norm2": float(spec.norm2),
        "system.trace_norm_sq": float(system.trace_norm_sq),
        "evaluator.generator_inf_norm":
            float(abs(evaluator.generator).sum(axis=1).max()),
        "continuity.status": "passed" if continuity.passed else "failed",
        "accretivity.status": accretivity.status,
    }
    for prefix, report in (("admissibility", system.admissibility),
                           ("continuity", continuity),
                           ("accretivity", accretivity)):
        for key, value in report.as_dict().items():
            if not isinstance(value, (str, list, dict)):
                manifest[f"{prefix}.{key}"] = value
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.txt").write_text(
        "".join(f"{key}: {_fmt(manifest[key])}\n" for key in sorted(manifest)))
    failed = not continuity.passed or accretivity.status == "failed"
    return 1 if failed else 0


def _sha(path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def blas_threads():
    """Largest thread count over the OpenBLAS pools numpy and scipy
    loaded; 0 when no pool answers.  threadpoolctl is not required."""
    import ctypes
    import numpy
    import scipy

    counts = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                function = getattr(handle, symbol, None)
                if function is not None:
                    function.restype = ctypes.c_int
                    counts.append(function())
                    break
    return max(counts, default=0)


def run_pass(job):
    from robinheat import cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out_dir = Path(job["out_dir"])
    results = []
    for op in job["ops"]:
        out = out_dir / op["name"]
        error = None
        rc = None
        if tracer is not None:
            tracer.operation = op["name"]
        gate = op["kind"] == "gate"
        call = run_gate if gate else cli.run_scenario
        if tracer is not None:
            call = tracer.span("op", call)
        start = time.perf_counter()
        try:
            if gate:
                computed = call(op["path"])
            else:
                rc = call(op["path"], output_dir=str(out),
                          stream=io.StringIO())
        except Exception:
            error = traceback.format_exc(limit=4)
        wall = time.perf_counter() - start
        if gate and error is None:
            rc = write_gate_manifest(computed, out)
        manifest = out / "manifest.txt"
        results.append({
            "name": op["name"],
            "wall_s": wall,
            "rc": rc,
            "error": error,
            "manifest": manifest.read_text() if manifest.exists() else None,
            "manifest_sha": _sha(manifest),
            "norms_sha": _sha(out / "norms.csv"),
        })
    result = {
        "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def main(job_path, result_path):
    job = json.loads(Path(job_path).read_text())
    if job["mode"] == "setup":
        import robinheat  # noqa: F401  (the import is what set-up times)
        from robinheat.cli import parse_scenario
        for op in job["ops"]:
            parse_scenario(Path(op["path"]).read_text())
        return 0
    result = run_pass(job)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
