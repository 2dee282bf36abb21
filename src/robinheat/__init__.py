"""Finite element laboratory for heat semigroups with generalized Robin
boundary operators."""

import os

# The BLAS and OpenMP pools get ROBINHEAT_THREADS threads, one when it is
# unset: the dense kernels here act on a few hundred unknowns, where a
# second thread costs more than it gives.  The variables are read when
# numpy loads its BLAS, so they are set before the first numpy import
# below; a variable the user set explicitly wins.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, os.environ.get("ROBINHEAT_THREADS") or "1")
del _name

from .mesh import (
    Mesh,
    MeshError,
    build_box_mesh,
    build_lshape_mesh,
    dump_mesh,
)
from .coefficients import (
    CoefficientField,
    BoundaryOperatorSpec,
    AdmissibilityReport,
    check_admissibility,
    coefficient_field_from_config,
    build_boundary_operator,
)
from .assembly import (
    AssembledSystem,
    assemble_system,
    assemble_lumped_mass,
    compute_trace_norm,
    check_accretivity,
    check_continuity,
)
from .semigroup import (
    SemigroupEvaluator,
    build_evaluator,
    geometric_times,
    reuse,
    semigroup_law_defect,
)
from .verify import (
    check_nash,
    check_ouhabaz_contractivity_criterion,
    check_sup_contraction,
    check_positivity,
    check_domination,
    fit_ultracontractivity,
    check_eventual_positivity,
    check_energy_dissipation,
    check_smoothing_decay,
    write_document,
    write_norms_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Mesh",
    "MeshError",
    "build_box_mesh",
    "build_lshape_mesh",
    "dump_mesh",
    "CoefficientField",
    "BoundaryOperatorSpec",
    "AdmissibilityReport",
    "check_admissibility",
    "coefficient_field_from_config",
    "build_boundary_operator",
    "AssembledSystem",
    "assemble_system",
    "assemble_lumped_mass",
    "compute_trace_norm",
    "check_accretivity",
    "check_continuity",
    "SemigroupEvaluator",
    "build_evaluator",
    "geometric_times",
    "reuse",
    "semigroup_law_defect",
    "check_nash",
    "check_ouhabaz_contractivity_criterion",
    "check_sup_contraction",
    "check_positivity",
    "check_domination",
    "fit_ultracontractivity",
    "check_eventual_positivity",
    "check_energy_dissipation",
    "check_smoothing_decay",
    "write_document",
    "write_norms_csv",
    "__version__",
]
