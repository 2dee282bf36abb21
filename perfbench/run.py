"""robinheat benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload shipped --seed 2024 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Run from the root of a checkout.  The benchmark writes the workload's
scenario files from the seed, then runs the program on them in fresh
child processes (``worker.py``), each pass in its own process, until the
time budget is spent.  Inputs and outputs live in a temporary directory
under ``perfbench/work/`` that is removed at the end.

With ``--trace 0`` it prints the end-to-end metrics (BENCHMARK.json
``end_to_end``); with ``--trace 1`` the per-layer metrics from traced
passes, the tracing overhead and a single-threaded diagnostic pass.  The
last line of standard output is one JSON object; the lines before it
give every metric with its unit and sample count.  Every operation's
output is checked against ``reference/``; see README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
from workloads import DEFAULT_SEED, WORKLOADS, build_operations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS", "ROBINHEAT_THREADS")

# Per-layer times: span name -> metric (self time of those spans, seconds).
SPAN_TIMES = {name: f"{name}_s" for name in (
    "mesh.build", "mesh.min_edge_length",
    "coefficients.field", "coefficients.operator", "coefficients.admissibility",
    "assembly.assemble", "assembly.trace_norm", "assembly.accretivity",
    "assembly.continuity",
    "semigroup.matrix", "semigroup.norm", "semigroup.resolvent",
    "verify.positivity", "verify.domination", "verify.ultracontractivity",
    "verify.eventual_positivity", "verify.sup_contraction",
    "verify.contractivity_criterion", "verify.nash", "verify.smoothing_decay",
    "verify.energy", "verify.write",
    "cli.parse")}
SPAN_TIMES["cli.run"] = "cli.run_self_s"
# Per-layer counts: metric -> span name whose calls it counts.
SPAN_CALLS = {
    "mesh.min_edge_length_calls": "mesh.min_edge_length",
    "assembly.assemble_calls": "assembly.assemble",
    "semigroup.evaluators": "semigroup.evaluator",
}
# Per-layer counts: metric -> (layer the call happened in, or None for
# any layer; kernel or counter name).
KERNEL_COUNTS = {
    "semigroup.expm_calls": (None, "expm"),
    "semigroup.svd_calls": ("semigroup", "svd"),
    "semigroup.apply_calls": (None, "apply"),
    "assembly.cho_factors": (None, "cho_factor"),
    "assembly.cho_solves": (None, "cho_solve"),
    "assembly.cell_inv_calls": ("assembly", "inv"),
    "assembly.eigvalsh_calls": ("assembly", "eigvalsh"),
}


def _median(values):
    return statistics.median(values) if values else float("nan")


class Bench:
    """The generated inputs and scratch directory of one workload at one
    seed, and the child processes that run on them."""

    def __init__(self, workload, seed, size="full"):
        self.workload = workload
        self.seed = seed
        self.ops = build_operations(workload, seed, size)
        self.passes = 0

    def __enter__(self):
        (HERE / "work").mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.workload}-",
                                         dir=HERE / "work"))
        (self.dir / "inputs").mkdir()
        self.op_specs = []
        for op in self.ops:
            path = self.dir / "inputs" / f"{op.name}.ini"
            path.write_text(op.text)
            self.op_specs.append({"name": op.name, "kind": op.kind,
                                  "path": str(path)})
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _child(self, job, threads=None):
        """Run worker.py on ``job``; return (seconds alive, result or None,
        error text)."""
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        job_path = self.dir / "job.json"
        result_path = self.dir / "result.json"
        result_path.unlink(missing_ok=True)
        job_path.write_text(json.dumps(job))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path),
                 str(result_path)],
                env=env, cwd=self.dir, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, None, "timed out"
        alive = time.perf_counter() - start
        if proc.returncode != 0:
            return alive, None, proc.stderr.strip()[-2000:]
        if job["mode"] == "setup":
            return alive, {}, ""
        return alive, json.loads(result_path.read_text()), ""

    def setup_time(self):
        """Seconds from starting a fresh interpreter until robinheat is
        imported and every input of the workload is parsed."""
        alive, result, error = self._child({"mode": "setup",
                                            "ops": self.op_specs})
        if result is None:
            raise RuntimeError(f"set-up failed: {error}")
        return alive

    def run_pass(self, trace=False, threads=None):
        self.passes += 1
        out = self.dir / f"out{self.passes}"
        alive, result, error = self._child(
            {"mode": "pass", "ops": self.op_specs, "out_dir": str(out),
             "trace": trace}, threads=threads)
        shutil.rmtree(out, ignore_errors=True)
        if result is None:
            result = {"ops": [{"name": op["name"], "wall_s": float("nan"),
                               "rc": None, "error": error, "manifest": None,
                               "manifest_sha": None, "norms_sha": None}
                              for op in self.op_specs],
                      "peak_rss_mb": float("nan"), "blas_threads": None,
                      "crashed": True}
        result.update(index=self.passes, alive_s=alive, traced=trace,
                      group="default" if threads is None else f"{threads}t")
        return result


# ----------------------------------------------------------------------
def check_outputs(passes, ref, default_seed):
    """Check every operation of every pass.  Returns (attempted, list of
    failures (pass index, operation name, description), one per failed
    operation)."""
    attempted = 0
    failures = []
    first_bytes = {}
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            reasons = []
            expected = ref.get(op["name"])
            if op["error"]:
                reasons.append("raised: " + op["error"].strip().splitlines()[-1])
            elif expected is None:
                reasons.append("no reference")
            else:
                if op["rc"] != expected["rc"]:
                    reasons.append(f"exit code {op['rc']} != {expected['rc']}")
                diff = reference.compare(
                    expected, reference.parse_manifest(op["manifest"] or ""),
                    default_seed, p["blas_threads"])
                if diff["statuses"]:
                    reasons.append("status differs: "
                                   + ", ".join(diff["statuses"][:4]))
                if diff["drifted"]:
                    reasons.append(f"{len(diff['drifted'])} keys drift: "
                                   + ", ".join(diff["drifted"][:4]))
            digest = (op["manifest_sha"], op["norms_sha"])
            key = (p["group"], op["name"])
            if first_bytes.setdefault(key, digest) != digest:
                reasons.append("output bytes differ between repetitions")
            if reasons:
                failures.append((p["index"], op["name"], "; ".join(reasons)))
    return attempted, failures


def check_counts(traced, workload):
    """Kernel counts must repeat exactly between traced passes, and the
    gate_fine workload must compute no exponential.  Returns failures as
    check_outputs does."""
    failures = []
    first = traced[0]["trace"]["op_kernels"]
    for p in traced[1:]:
        for op, counts in p["trace"]["op_kernels"].items():
            if counts != first.get(op):
                failures.append((p["index"], op, "kernel counts differ from "
                                 f"the first traced pass ({first.get(op)} vs "
                                 f"{counts})"))
    if workload == "gate_fine":
        for p in traced:
            for op, counts in p["trace"]["op_kernels"].items():
                if counts["expm"]:
                    failures.append((p["index"], op,
                                     f"{counts['expm']} expm calls"))
    return failures


def drift_coverage(passes, ref, seed):
    """One line saying which manifest keys the drift check skipped: the
    seed-dependent ones at another seed than the reference's, and the
    thread-dependent ones on passes whose BLAS thread count differs from
    the one the reference was recorded with."""
    skipped = []
    seed_keys = max(len(r["seed_dependent"]) for r in ref.values())
    if seed != DEFAULT_SEED and seed_keys:
        skipped.append(f"up to {seed_keys} seed-dependent keys per operation "
                       f"(seed {seed}; reference seed {DEFAULT_SEED})")
    thread_keys = max(len(r["thread_dependent"]) for r in ref.values())
    recorded = {r["blas_threads"] for r in ref.values()}
    other = sorted({p["blas_threads"] for p in passes} - recorded)
    if other and thread_keys:
        skipped.append(
            f"up to {thread_keys} thread-dependent keys per operation on "
            f"passes with {', '.join(map(str, other))} BLAS threads "
            f"(reference recorded with {', '.join(map(str, recorded))})")
    if not skipped:
        return "drift: checked on every manifest key"
    return ("drift: not checked on " + "; ".join(skipped)
            + "; checked on every other key")


def pass_wall(passes):
    """Wall time of one pass: the sum over operations of each operation's
    median time across ``passes``."""
    return sum(_median([p["ops"][i]["wall_s"] for p in passes])
               for i in range(len(passes[0]["ops"])))


def layer_metrics(traced, untraced, one_thread):
    summaries = [p["trace"] for p in traced]
    metrics = {}
    for span, metric in SPAN_TIMES.items():
        metrics[metric] = ("s", _median(
            [s["self_s"].get(span, 0.0) for s in summaries]))
    for metric, span in SPAN_CALLS.items():
        metrics[metric] = ("count", summaries[0]["calls"].get(span, 0))
    for metric, (layer, name) in KERNEL_COUNTS.items():
        counts = summaries[0]["counts"]
        metrics[metric] = ("count", sum(
            n for key, n in counts.items()
            if key.endswith(f".{name}")
            and (layer is None or key == f"{layer}.{name}")))
    traced_wall = pass_wall(traced)
    attributed = _median([sum(v for k, v in s["self_s"].items() if k != "op")
                          for s in summaries])
    metrics["trace.wall_s"] = ("s", traced_wall)
    metrics["trace.overhead_s"] = ("s", traced_wall - pass_wall(untraced))
    metrics["trace.unattributed_s"] = ("s", traced_wall - attributed)
    metrics["blas.threads"] = ("count", traced[0]["blas_threads"])
    metrics["diag.wall_s_1thread"] = ("s", pass_wall(one_thread))
    return metrics


# ----------------------------------------------------------------------
def run_workload(workload, seed, seconds, trace, ref=None, size="full"):
    """Measure one workload.  Returns (result JSON object, report lines,
    spans of the traced passes)."""
    if ref is None:
        ref = reference.load(workload)
    default_seed = seed == DEFAULT_SEED
    start = time.perf_counter()
    spans = []
    with Bench(workload, seed, size) as bench:
        def elapsed():
            return time.perf_counter() - start

        if not trace:
            # set-up runs are spread over the run so that a burst of load
            # on the machine moves few of them
            setups, passes = [], []
            while (len(passes) < MIN_PASSES or elapsed() + _median(setups)
                   + _median([p["alive_s"] for p in passes]) <= seconds):
                setups.append(bench.setup_time())
                passes.append(bench.run_pass())
            while len(setups) < SETUP_REPS:
                setups.append(bench.setup_time())
        else:
            passes = [bench.run_pass(trace=True), bench.run_pass(),
                      bench.run_pass(threads=1), bench.run_pass(),
                      bench.run_pass(trace=True)]
            while elapsed() + sum(p["alive_s"] for p in passes[:2]) <= seconds:
                passes += [bench.run_pass(), bench.run_pass(trace=True)]

    attempted, failures = check_outputs(passes, ref, default_seed)
    # a child that died has no timings; its operations counted as failed
    passes = [p for p in passes if not p.get("crashed")]
    if not passes:
        raise RuntimeError("every pass died: " + failures[0][2])
    lines = []
    if not trace:
        metrics = {
            "wall_s": ("s", pass_wall(passes), len(passes)),
            "setup_s": ("s", _median(setups), len(setups)),
            "peak_rss_mb": ("MB", _median([p["peak_rss_mb"] for p in passes]),
                            len(passes)),
        }
    else:
        traced = [p for p in passes if p["traced"]]
        if len(traced) < 2:
            raise RuntimeError("fewer than two traced passes completed")
        untraced = [p for p in passes if not p["traced"]
                    and p["group"] == "default"]
        one_thread = [p for p in passes if p["group"] == "1t"]
        failures += check_counts(traced, workload)
        metrics = {name: (unit, value, len(traced)) for name, (unit, value)
                   in layer_metrics(traced, untraced, one_thread).items()}
        for p in traced:
            spans.extend(p["trace"]["spans"])
    failed = len({(index, name) for index, name, _ in failures})
    if not trace:
        metrics["ok_share"] = ("ratio", (attempted - failed) / attempted,
                               attempted)

    lines.append(f"workload {workload}  seed {seed}  passes {len(passes)}  "
                 f"operations {attempted}")
    lines.append(drift_coverage(passes, ref, seed))
    for name, (unit, value, samples) in metrics.items():
        lines.append(f"  {name:<36} {value:>14.6g} {unit:<6} n={samples}")
    lines.append(f"  {'failed_share':<36} {failed / attempted:>14.6g} "
                 f"{'ratio':<6} ({failed} of {attempted} operations failed)")
    lines += [f"  FAILED pass {index} {name}: {message}"
              for index, name, message in failures[:20]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (unit, value, _) in metrics.items()},
    }
    return result, lines, spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "robinheat" / "__init__.py").is_file():
        print(f"error: no robinheat sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            results[workload], lines, spans = run_workload(
                workload, args.seed, args.seconds, bool(args.trace))
        except (OSError, RuntimeError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        if spans:
            path = HERE / "work" / f"{workload}.spans.json"
            path.write_text(json.dumps(spans))
            print(f"  spans: {path.relative_to(ROOT)}")
    if len(results) == 1:
        (combined,) = results.values()
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
