"""Workload definitions and input generation.

A workload is a list of operations.  Each operation is one scenario file
that the benchmark writes from the workload seed; the program under test
receives only that file.  ``kind`` says how the worker runs it:
``scenario`` is one ``robinheat.cli.run_scenario`` call, ``gate`` is the
fixed sequence of public library calls of the ``gate_fine`` workload.

The seed becomes the scenario's sampling seed (``[run] seed``), which
draws the random test vectors of the sampled checks.  The operators and
meshes stay fixed, so every seed costs the same work and keeps the
statuses of the reference run.
"""

from dataclasses import dataclass

WORKLOADS = ("shipped", "ladder_selfadjoint", "ladder_nonsymmetric",
             "gate_fine")
DEFAULT_SEED = 2024

# The six shipped scenarios (scenarios/*.ini at the time the benchmark was
# defined), with the cube meshes at 4 divisions (125 unknowns) instead of
# 6 so that a pass over all six fits a run several times.
_CUBE = "shape = box\nextents = 1.0, 1.0, 1.0\ndivisions = {div}"
_SHIPPED = (
    ("cube_domination", _CUBE, "cube", "kind = isotropic\nvalue = 5.0",
     "kind = multiplication\nbeta = -0.1",
     "accretivity, contractivity, positivity, domination"),
    ("cube_kernel", _CUBE, "cube", "kind = isotropic\nvalue = 2.0",
     "kind = kernel\nprofile = cosine\nscale = 0.005",
     "accretivity, continuity, contractivity, positivity, domination, "
     "ultracontractivity, eventual_positivity"),
    ("cube_neumann", _CUBE, "cube", "kind = isotropic\nvalue = 1.0",
     "kind = zero",
     "accretivity, continuity, contractivity, positivity, "
     "ultracontractivity, nash, eventual_positivity"),
    ("cube_robin", _CUBE, "cube", "kind = isotropic\nvalue = 2.5",
     "kind = multiplication\nbeta = -0.05",
     "accretivity, continuity, contractivity, positivity, domination, "
     "ultracontractivity, nash"),
    ("interval_robin", "shape = box\nextents = 1.0\ndivisions = {div}",
     "interval", "kind = isotropic\nvalue = 2.0",
     "kind = multiplication\nbeta = -0.01",
     "accretivity, continuity, contractivity, positivity, domination"),
    ("lshape_robin", "shape = lshape\ndivisions = {div}\ndim = 2", "lshape",
     "kind = isotropic\nvalue = 2.0", "kind = multiplication\nbeta = -0.05",
     "accretivity, continuity, contractivity, positivity, domination"),
)
_ROBIN = ("kind = isotropic\nvalue = 2.5", "kind = multiplication\nbeta = -0.05")
_KERNEL = ("kind = isotropic\nvalue = 2.0",
           "kind = kernel\nprofile = cosine\nscale = 0.005")

# Mesh divisions per workload.  "full" is what the benchmark measures;
# "tiny" is the variant the smoke test runs in seconds.
SIZES = {
    "full": {"cube": 4, "interval": 64, "lshape": 6, "ladder": (4, 5, 6),
             "gate": 10},
    "tiny": {"cube": 2, "interval": 8, "lshape": 2, "ladder": (2, 3),
             "gate": 3},
}


@dataclass(frozen=True)
class Operation:
    name: str
    kind: str          # "scenario" or "gate"
    text: str          # scenario file contents


def _scenario(domain, coefficient, operator, checks, seed):
    return (f"[domain]\n{domain}\n\n[coefficient]\n{coefficient}\n\n"
            f"[boundary_operator]\n{operator}\n\n"
            "[time_grid]\nt_max = 1.0\nratio = 0.70710678118654752\n"
            "count = 24\n\n"
            f"[run]\nchecks = {checks}\nsamples = 200\nseed = {seed}\n")


def sampling_seed(seed):
    """The scenario seed for a workload seed: numpy generators take only
    nonnegative integers."""
    return seed % 2 ** 32


def build_operations(workload, seed, size="full"):
    """The operations of one pass over ``workload`` for ``seed``."""
    sizes = SIZES[size]
    seed = sampling_seed(seed)
    cube = _CUBE.format
    if workload == "shipped":
        return [Operation(name, "scenario",
                          _scenario(domain.format(div=sizes[key]), coef, op,
                                    checks, seed))
                for name, domain, key, coef, op, checks in _SHIPPED]
    if workload in ("ladder_selfadjoint", "ladder_nonsymmetric"):
        coef, op = _ROBIN if workload == "ladder_selfadjoint" else _KERNEL
        return [Operation(f"div{div}", "scenario",
                          _scenario(cube(div=div), coef, op,
                                    "ultracontractivity", seed))
                for div in sizes["ladder"]]
    if workload == "gate_fine":
        div = sizes["gate"]
        return [Operation(f"div{div}", "gate",
                          _scenario(cube(div=div), *_ROBIN,
                                    "accretivity, continuity", seed))]
    raise ValueError(f"unknown workload {workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")
