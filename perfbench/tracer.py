"""In-process tracing of one benchmark pass, from outside the package.

``Tracer.install`` replaces the package's public functions, wherever a
robinheat module holds a reference to them, with wrappers that record a
span per call, and replaces a few numpy/scipy kernels with wrappers that
only count calls.  Spans are kept in memory and returned by ``summary``
at the end of the pass.

A span's self time is its duration minus the durations of its direct
child spans.  Kernel counts are attributed to the layer of the innermost
open span and to the operation running at the time.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy.linalg
import scipy.linalg

KERNELS = ("expm", "eigvalsh", "svd", "cho_factor", "cho_solve", "inv")


def _targets():
    """(span name, owner, attribute) for every public function traced.

    The owner is a class for methods; for functions it is the defining
    module, and the wrapper is also put into every robinheat module that
    imported the function by name.
    """
    import robinheat
    from robinheat import assembly, cli, coefficients, mesh, semigroup, verify

    evaluator = semigroup.SemigroupEvaluator
    spec = coefficients.BoundaryOperatorSpec
    targets = [
        ("mesh.build", mesh, "build_box_mesh"),
        ("mesh.build", mesh, "build_lshape_mesh"),
        ("coefficients.field", coefficients, "coefficient_field_from_config"),
        ("coefficients.operator", coefficients, "build_boundary_operator"),
        ("coefficients.operator", spec, "dominating"),
        ("coefficients.operator", spec, "shifted_bar"),
        ("coefficients.admissibility", coefficients, "check_admissibility"),
        ("assembly.assemble", assembly, "assemble_system"),
        ("assembly.trace_norm", assembly, "compute_trace_norm"),
        ("assembly.accretivity", assembly, "check_accretivity"),
        ("assembly.continuity", assembly, "check_continuity"),
        ("semigroup.evaluator", semigroup, "build_evaluator"),
        ("semigroup.matrix", evaluator, "matrix"),
        ("semigroup.norm", semigroup, "semigroup_law_defect"),
        ("semigroup.resolvent", evaluator, "resolvent_contraction"),
        ("verify.positivity", verify, "check_positivity"),
        ("verify.domination", verify, "check_domination"),
        ("verify.ultracontractivity", verify, "fit_ultracontractivity"),
        ("verify.eventual_positivity", verify, "check_eventual_positivity"),
        ("verify.sup_contraction", verify, "check_sup_contraction"),
        ("verify.contractivity_criterion", verify,
         "check_ouhabaz_contractivity_criterion"),
        ("verify.nash", verify, "check_nash"),
        ("verify.smoothing_decay", verify, "check_smoothing_decay"),
        ("verify.energy", verify, "check_energy_dissipation"),
        ("verify.write", verify, "write_document"),
        ("verify.write", verify, "write_norms_csv"),
        ("cli.parse", cli, "parse_scenario"),
        ("cli.run", cli, "run_scenario"),
    ]
    targets += [("semigroup.norm", evaluator, name) for name in
                ("norm_2_to_inf", "norm_1_to_2", "norm_inf_to_inf",
                 "norm_1_to_1", "norm_2_to_2")]
    modules = [m for name, m in sys.modules.items()
               if name == "robinheat" or name.startswith("robinheat.")]
    return targets, modules, robinheat


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index, operation, child time]
        self.spans = []
        self.stack = []
        self.operation = None
        self.counts = Counter()             # (layer, kernel or counter)
        self.op_counts = defaultdict(Counter)

    # -- recording -----------------------------------------------------
    def _layer(self):
        return self.spans[self.stack[-1]][0].split(".")[0] if self.stack \
            else "none"

    def count(self, name):
        self.counts[(self._layer(), name)] += 1
        self.op_counts[self.operation][name] += 1

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            record = [name, time.perf_counter(), None, parent,
                      self.operation, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
                if parent is not None:
                    self.spans[parent][5] += record[2] - record[1]
        return wrapper

    def counted(self, name, fn, when=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is None or when(*args, **kwargs):
                self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------
    def install(self):
        targets, modules, package = _targets()
        for name, owner, attr in targets:
            original = vars(owner)[attr]
            wrapped = self.span(name, original)
            setattr(owner, attr, wrapped)
            if not isinstance(owner, type):
                _replace(modules, original, wrapped)
        mesh_cls = package.mesh.Mesh
        edge = vars(mesh_cls)["min_edge_length"]
        mesh_cls.min_edge_length = property(
            self.span("mesh.min_edge_length", edge.fget))
        evaluator = package.semigroup.SemigroupEvaluator
        evaluator.apply = self.counted("apply", evaluator.apply)

        scipy.linalg.expm = self.counted("expm", scipy.linalg.expm)
        numpy.linalg.eigvalsh = self.counted("eigvalsh", numpy.linalg.eigvalsh)
        numpy.linalg.inv = self.counted("inv", numpy.linalg.inv)
        numpy.linalg.norm = self.counted(
            "svd", numpy.linalg.norm, when=_is_matrix_2_norm)
        for attr in ("cho_factor", "cho_solve"):
            original = getattr(scipy.linalg, attr)
            _replace(modules, original, self.counted(attr, original))

    # -- results -------------------------------------------------------
    def summary(self):
        """Self time and call count per span name, counts per layer, and
        the kernel counts of each operation."""
        self_s = Counter()
        calls = Counter()
        for name, start, end, _, _, child in self.spans:
            self_s[name] += (end - start) - child
            calls[name] += 1
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counts": {f"{layer}.{name}": n
                       for (layer, name), n in self.counts.items()},
            "op_kernels": {op: {k: c[k] for k in KERNELS}
                           for op, c in self.op_counts.items()},
            "spans": [{"name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                      for name, start, end, parent, op, _ in self.spans],
        }


def _replace(modules, original, wrapped):
    """Rebind every module-level name that refers to ``original``."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _is_matrix_2_norm(x, ord=None, *args, **kwargs):
    """np.linalg.norm(x, 2) of a matrix computes a singular value
    decomposition."""
    return ord == 2 and getattr(x, "ndim", 0) == 2
