"""Spans around the calls into each solver module, taken from outside.

The traced process substitutes wrapped callables for module-level names
(before the pipeline is built) and for instance attributes of the built
pipeline (before the solve).  The untraced process runs the same code
without these substitutions.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    """Records (name, start, end, parent index) spans of nested calls."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            k = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(k)
            spans[k][1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[k][2] = perf_counter()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))


# module attribute -> span name; build_pipeline and run_case look these up
# in the harness namespace, the build_* functions inside their own modules
MODULE_CALLS = {
    "harness": {
        "build_mesh": "mesh_fem.build_mesh",
        "build_spaces": "mesh_fem.build_spaces",
        "assemble_blocks": "mesh_fem.assemble_blocks",
        "partition": "decomposition.partition",
        "classify_dofs": "decomposition.classify_dofs",
        "transform_system": "decomposition.transform_system",
        "build_scalings": "decomposition.build_scalings",
        "build_jump": "decomposition.build_jump",
        "build_restrictions": "decomposition.build_restrictions",
        "build_reduced_system": "reduced_system.build",
        "build_preconditioner": "preconditioner.build",
        "pcg": "krylov.pcg",
        "recover_nodal": "decomposition.recover_nodal",
    },
    "reduced_system": {
        "SaddleFactor": "reduced_system.factor",
        "CoarseProblem": "reduced_system.coarse_build",
    },
    "preconditioner": {
        "build_xi_solver": "preconditioner.xi_build",
        "build_p_bddc": "preconditioner.p_build",
        "build_lambda_solver": "preconditioner.lambda_build",
    },
}


def instrument_modules(tracer: Tracer, package) -> None:
    for module, calls in MODULE_CALLS.items():
        mod = getattr(package, module)
        for attr, name in calls.items():
            tracer.patch(mod, attr, name)


def instrument_pipeline(tracer: Tracer, pipe) -> None:
    """Wrap the per-iteration entry points of a built pipeline."""
    red = pipe.reduced
    tracer.patch(red, "apply", "reduced_system.apply")
    tracer.patch(red, "apply_torn_inverse", "reduced_system.torn_solve")
    tracer.patch(red, "rhs", "reduced_system.rhs")
    tracer.patch(red, "recover", "reduced_system.recover")
    tracer.patch(red.coarse, "solve", "reduced_system.coarse_solve")
    for fac in red.factors.values():
        tracer.patch(fac.factor, "solve", "reduced_system.local_solve")
    pc = pipe.preconditioner
    tracer.patch(pc, "apply", "preconditioner.apply")
    for block, name in ((pc.xi, "xi"), (pc.pressure, "p"), (pc.multiplier, "lambda")):
        if block is not None:
            tracer.patch(block, "apply", f"preconditioner.{name}_apply")


def check_nesting(spans: list[list]) -> list[str]:
    """Spans that start before or end after their parent, or whose children
    together last longer than they do."""
    problems = []
    child_sum: dict[int, float] = defaultdict(float)
    for k, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {k} ({name}) ends before it starts")
        if parent >= 0:
            pname, pstart, pend, _ = spans[parent]
            if start < pstart or end > pend:
                problems.append(f"span {k} ({name}) leaves its parent {parent} ({pname})")
            child_sum[parent] += end - start
    for parent, total in child_sum.items():
        pname, pstart, pend, _ = spans[parent]
        if total > pend - pstart:
            problems.append(f"children of span {parent} ({pname}) exceed it")
    return problems


def layer_metrics(spans: list[list], pipe) -> dict[str, tuple[float, str]]:
    """Per-layer totals, counts and self times from the spans of one run,
    plus sizes read off the built pipeline."""
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        total[name] += end - start
        count[name] += 1
        self_time[name] += end - start
        if parent >= 0:
            self_time[spans[parent][0]] -= end - start

    def s(*names: str) -> float:
        return sum(total[n] for n in names)

    red = pipe.reduced
    n_factors = count["reduced_system.factor"]
    return {
        "mesh_fem.assemble_s": (s("mesh_fem.build_mesh", "mesh_fem.build_spaces", "mesh_fem.assemble_blocks"), "s"),
        "decomposition.classify_s": (
            s("decomposition.partition", "decomposition.classify_dofs", "decomposition.transform_system"),
            "s",
        ),
        "decomposition.weights_s": (
            s("decomposition.build_scalings", "decomposition.build_jump", "decomposition.build_restrictions"),
            "s",
        ),
        "reduced_system.build_s": (s("reduced_system.build"), "s"),
        "reduced_system.build_self_s": (self_time["reduced_system.build"], "s"),
        "reduced_system.factor_s": (s("reduced_system.factor"), "s"),
        "reduced_system.factor_count": (n_factors, "count"),
        "reduced_system.factor_dim_max": (max(f.factor.n for f in red.factors.values()), "count"),
        "reduced_system.coarse_build_s": (s("reduced_system.coarse_build"), "s"),
        "reduced_system.coarse_dim": (red.coarse.n, "count"),
        "reduced_system.coarse_solve_s": (s("reduced_system.coarse_solve"), "s"),
        "reduced_system.coarse_solve_count": (count["reduced_system.coarse_solve"], "count"),
        "reduced_system.apply_s": (s("reduced_system.apply"), "s"),
        "reduced_system.apply_count": (count["reduced_system.apply"], "count"),
        "reduced_system.torn_solve_s": (s("reduced_system.torn_solve"), "s"),
        "reduced_system.local_solve_s": (s("reduced_system.local_solve"), "s"),
        "reduced_system.local_solve_count": (count["reduced_system.local_solve"], "count"),
        "reduced_system.solves_per_factor": (count["reduced_system.local_solve"] / max(n_factors, 1), "ratio"),
        "reduced_system.primal_coupling_bytes": (sum(f.X.nbytes for f in red.factors.values()), "B"),
        "reduced_system.recover_s": (s("reduced_system.recover"), "s"),
        "preconditioner.build_s": (s("preconditioner.build"), "s"),
        "preconditioner.xi_build_s": (s("preconditioner.xi_build"), "s"),
        "preconditioner.p_build_s": (s("preconditioner.p_build"), "s"),
        "preconditioner.lambda_build_s": (s("preconditioner.lambda_build"), "s"),
        "preconditioner.apply_s": (s("preconditioner.apply"), "s"),
        "preconditioner.apply_count": (count["preconditioner.apply"], "count"),
        "preconditioner.xi_apply_s": (s("preconditioner.xi_apply"), "s"),
        "preconditioner.p_apply_s": (s("preconditioner.p_apply"), "s"),
        "preconditioner.lambda_apply_s": (s("preconditioner.lambda_apply"), "s"),
        "krylov.pcg_s": (s("krylov.pcg"), "s"),
        "krylov.self_s": (self_time["krylov.pcg"], "s"),
        "decomposition.recover_nodal_s": (s("decomposition.recover_nodal"), "s"),
    }
