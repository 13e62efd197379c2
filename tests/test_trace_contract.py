"""The span contract between the solver and the benchmark's tracing.

The benchmark times the solver from outside: bench/tracing.py wraps
module-level names before the pipeline is built and the per-iteration
methods of the built pipeline before the solve.  This runs that
instrumentation, unedited, on every workload shrunk to a 2x2 to 5x5
subdomain grid and checks that the spans it yields add up: every span
nests in its parent, the local solves fit inside the torn solves that make
them, and each shared factor is built, and wrapped, once.  The shrunk
workloads cover the sparse-LU classes (flagship), the dense-LAPACK path
behind a change of basis (tiny-subdomains: vertex-edge on 5x5) and a grid
where every subdomain is its own class (contrast-spectrum: a 2x2
checkerboard).  The shrunk flagship is not condensed; the flagship itself,
where the operator and the multiplier block are, runs under the same
contract.
"""

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


def check_span_contract(spans, pipe, n_classes):
    assert check_nesting(spans) == []

    def total(name):
        return sum(end - start for n, start, end, _ in spans if n == name)

    assert 0.0 < total("reduced_system.local_solve") <= total("reduced_system.torn_solve")
    assert len(pipe.reduced.factors) == n_classes
    assert layer_metrics(spans, pipe)["reduced_system.factor_count"] == (n_classes, "count")


@pytest.mark.parametrize(
    "workload, n_classes",
    [
        ("flagship-p1-nx64", 9),  # 4x4 subdomains: interior, four edge and four corner classes
        ("tiny-subdomains", 9),  # 5x5, the same nine once the change of basis drops its roundoff fill
        ("contrast-spectrum", 4),  # 2x2 checkerboard corners: no two alike
    ],
)
def test_traced_spans_add_up(monkeypatch, workload, n_classes):
    check_span_contract(*traced_run(monkeypatch, workload, shrink=2), n_classes)


def test_traced_spans_add_up_when_condensed(monkeypatch):
    # the flagship itself (8x8): the operator and every preconditioner
    # block are condensed, so the local solves run only for the right-hand
    # side and the recovery
    spans, pipe = traced_run(monkeypatch, "flagship-p1-nx64", shrink=1)
    assert list(pipe.condensed_blocks()) == ["torn", "xi", "p", "lambda"]
    check_span_contract(spans, pipe, 9)
