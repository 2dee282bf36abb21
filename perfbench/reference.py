"""Reference outputs and the drift gate.

``reference/<workload>.json`` holds, for every operation of the full-size
workload at the default seed: the exit code, the manifest as a key/value
mapping, the effective number of BLAS threads it was recorded with, and
the manifest keys that depend on the sampling seed or on the number of
BLAS threads.  The file is recorded once from the program at the commit
that defined the benchmark:

    python3 perfbench/reference.py            # all workloads

It runs untraced passes at the default seed and at the next seed, and
one with another BLAS thread count (one thread, or two where the default
is one).  A key whose value differs between the two seeds depends on the
seed.  A key that drifts by more than the tolerance between the two
thread counts is a roundoff residual (``accretivity.law_defect`` is
about 1e-13 and moves by 1e-3 relative); it is listed as
thread-dependent.

Drift is counted here, key by key, and not read from the exit status of
``robinheat compare``, which is 0 even when it lists differences.
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DRIFT_TOL = 1e-6


def parse_manifest(text):
    entries = {}
    for line in text.splitlines():
        if line.strip():
            key, _, value = line.partition(":")
            entries[key.strip()] = value.strip()
    return entries


def _drifted(expected, actual, tol):
    if actual is None:
        return True
    try:
        a, b = float(expected), float(actual)
    except ValueError:
        return expected != actual
    if math.isnan(a) or math.isnan(b):
        return not (math.isnan(a) and math.isnan(b))
    if a == b:
        return False
    return abs(a - b) > tol * max(abs(a), abs(b))


def compare(reference, manifest, default_seed, blas_threads):
    """Status mismatches and drifted keys of one manifest.

    Statuses are always compared.  The other keys are compared except
    the seed-dependent ones at a seed other than the default, and the
    thread-dependent ones when the pass ran with another number of BLAS
    threads than the reference was recorded with.  Keys missing from
    either side count as drifted.
    """
    expected = reference["manifest"]
    skip = set() if default_seed else set(reference["seed_dependent"])
    if blas_threads != reference["blas_threads"]:
        skip |= set(reference["thread_dependent"])
    statuses = [key for key in expected if key.endswith(".status")
                and manifest.get(key) != expected[key]]
    drifted = [key for key in expected
               if key not in skip and not key.endswith(".status")
               and _drifted(expected[key], manifest.get(key), DRIFT_TOL)]
    drifted += sorted(set(manifest) - set(expected))
    return {"statuses": statuses, "drifted": drifted}


def load(workload):
    return json.loads((HERE / "reference" / f"{workload}.json").read_text())


def make_reference(workload, size="full"):
    """Run the program on ``workload`` and return its reference mapping."""
    from run import Bench
    from workloads import DEFAULT_SEED

    with Bench(workload, DEFAULT_SEED, size) as bench:
        passes = [bench.run_pass()]
        recorded = passes[0]["blas_threads"]
        passes.append(bench.run_pass(threads=2 if recorded == 1 else 1))
    with Bench(workload, DEFAULT_SEED + 1, size) as bench:
        passes.append(bench.run_pass())
    reference = {}
    for op, other_threads, other_seed in zip(*(p["ops"] for p in passes)):
        for run in (op, other_threads, other_seed):
            if run["error"]:
                raise RuntimeError(f"{workload}/{op['name']}: {run['error']}")
        manifest = parse_manifest(op["manifest"])
        threads = parse_manifest(other_threads["manifest"])
        seeds = parse_manifest(other_seed["manifest"])
        reference[op["name"]] = {
            "rc": op["rc"],
            "blas_threads": recorded,
            "manifest": manifest,
            "seed_dependent": sorted(
                key for key in manifest
                if _drifted(manifest[key], seeds.get(key), 0.0)),
            "thread_dependent": sorted(
                key for key in manifest
                if _drifted(manifest[key], threads.get(key), DRIFT_TOL)),
        }
    return reference


def record(workloads):
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    for workload in workloads:
        path = out_dir / f"{workload}.json"
        path.write_text(json.dumps(make_reference(workload), indent=1,
                                   sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(HERE.parent)}")


if __name__ == "__main__":
    from workloads import WORKLOADS
    record(sys.argv[1:] or WORKLOADS)
