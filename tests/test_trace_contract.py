"""The span contract between the solver and the benchmark's tracing.

The benchmark times the solver from outside: bench/tracing.py wraps
module-level names before the pipeline is built and the per-iteration
methods of the built pipeline before the solve.  This runs that
instrumentation, unedited, on every workload shrunk to a 2x2 to 5x5
subdomain grid and checks that the spans it yields add up: every span
nests in its parent, every local solve runs inside a torn solve or an
operator application (an interface class that is not condensed solves
through the torn factor it shares), and each shared factor is built, and
wrapped, once (a class that solves through its source's factor builds
none, and no wrapped solve runs inside another).  The shrunk workloads cover the sparse-LU classes
(flagship), the dense-LAPACK path behind a change of basis (tiny-subdomains:
vertex-edge on 5x5, condensed) and a grid where every subdomain is its own
class (contrast-spectrum: a 2x2 checkerboard).  The shrunk flagship is not
condensed; the flagship itself, where the operator and the multiplier block
are, runs under the same contract.
"""

import numpy as np
import pytest

import sys
from pathlib import Path

import biot_ddp as bd

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import (  # noqa: E402
    MODULE_CALLS,
    Tracer,
    check_nesting,
    instrument_modules,
    instrument_pipeline,
    layer_metrics,
)
from workloads import experiment_config  # noqa: E402


def traced_run(monkeypatch, workload, shrink):
    """Spans and pipeline of one instrumented run of a workload."""
    for module, calls in MODULE_CALLS.items():
        mod = getattr(bd, module)
        for attr in calls:  # put the originals back after the test
            monkeypatch.setattr(mod, attr, getattr(mod, attr))
    tracer = Tracer()
    instrument_modules(tracer, bd)
    cfg = bd.ExperimentConfig(**experiment_config(workload, 1, shrink=shrink))
    pipe = bd.build_pipeline(cfg)
    instrument_pipeline(tracer, pipe)
    assert bd.run_case(cfg, pipe).converged
    return tracer.spans, pipe


def ancestors(spans, k):
    """The names of the spans that span k nests in, innermost first."""
    chain, parent = [], spans[k][3]
    while parent >= 0:
        chain.append(spans[parent][0])
        parent = spans[parent][3]
    return chain


def check_span_contract(spans, pipe, n_classes, n_factors, callers=("torn_solve", "apply")):
    assert check_nesting(spans) == []
    # a borrowed solve calls its source's solve unwrapped: no local solve
    # runs inside another; each runs inside one of ``callers``
    callers = {f"reduced_system.{c}" for c in callers}
    for k, (name, *_) in enumerate(spans):
        if name == "reduced_system.local_solve":
            chain = ancestors(spans, k)
            assert name not in chain and callers & set(chain)

    def total(name):
        return sum(end - start for n, start, end, _ in spans if n == name)

    assert 0.0 < total("reduced_system.local_solve")
    # every coarse problem is built, and timed, once: the condensed
    # operator shares the torn one
    coarse = {id(b.coarse) for b in (pipe.reduced.torn, *pipe.blocks.values())}
    assert sum(name == "reduced_system.coarse_build" for name, *_ in spans) == len(coarse)
    # each preconditioner block is built, and timed, by the builder the
    # tracing wraps: a block built around it would report 0 s
    pc = pipe.preconditioner
    assert (pc.xi is not None) == (pipe.config.total_pressure == "p1")
    for name, block in (("xi", pc.xi), ("p", pc.pressure), ("lambda", pc.multiplier)):
        assert sum(n == f"preconditioner.{name}_build" for n, *_ in spans) == (block is not None)
    assert len(pipe.reduced.factors) == n_classes
    # each class that owns a factor builds it once; a borrowing class none
    owners = [c for c in pipe.reduced.torn.classes if not isinstance(c.factor, bd.reduced_system.BorrowedFactor)]
    assert len(owners) == n_factors
    assert layer_metrics(spans, pipe)["reduced_system.factor_count"] == (n_factors, "count")


# classes that factor their own block: the shrunk tiny-subdomains is
# condensed, so only its two source classes do
OWN_FACTORS = {"flagship-p1-nx64": 9, "tiny-subdomains": 2, "contrast-spectrum": 4}


@pytest.mark.parametrize(
    "workload, n_classes",
    [
        ("flagship-p1-nx64", 9),  # 4x4 subdomains: interior, four edge and four corner classes
        ("tiny-subdomains", 9),  # 5x5, the same nine once the change of basis drops its roundoff fill
        ("contrast-spectrum", 4),  # 2x2 checkerboard corners: no two alike
    ],
)
def test_traced_spans_add_up(monkeypatch, workload, n_classes):
    check_span_contract(*traced_run(monkeypatch, workload, shrink=2), n_classes, OWN_FACTORS[workload])


def test_traced_spans_add_up_when_condensed(monkeypatch):
    # the flagship itself (8x8): the operator and every preconditioner
    # block are condensed, so the local solves run only for the right-hand
    # side and the recovery
    spans, pipe = traced_run(monkeypatch, "flagship-p1-nx64", shrink=1)
    dense = {k: sum(c.S.nbytes for c in b.classes if isinstance(c.S, np.ndarray)) for k, b in pipe.blocks.items()}
    assert [k for k, n in dense.items() if n] == ["torn", "xi", "p", "lambda"]
    check_span_contract(spans, pipe, 9, 1, callers=("torn_solve",))
