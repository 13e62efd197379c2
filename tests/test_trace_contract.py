"""The span contract between the solver and the benchmark's tracing.

The benchmark times the solver from outside: bench/tracing.py wraps
module-level names before the pipeline is built and the per-iteration
methods of the built pipeline before the solve.  This runs that
instrumentation, unedited, on a shrunk flagship workload and checks that
the spans it yields add up: every span nests in its parent, the local
solves fit inside the torn solves that make them, and each shared factor
is built, and wrapped, once.
"""

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


def test_traced_flagship_spans_add_up(monkeypatch):
    for module, calls in MODULE_CALLS.items():
        mod = getattr(bd, module)
        for attr in calls:  # put the originals back after the test
            monkeypatch.setattr(mod, attr, getattr(mod, attr))
    tracer = Tracer()
    instrument_modules(tracer, bd)
    cfg = bd.ExperimentConfig(**experiment_config("flagship-p1-nx64", 1, shrink=2))
    pipe = bd.build_pipeline(cfg)
    instrument_pipeline(tracer, pipe)
    assert bd.run_case(cfg, pipe).converged

    spans = tracer.spans
    assert check_nesting(spans) == []

    def total(name):
        return sum(end - start for n, start, end, _ in spans if n == name)

    assert 0.0 < total("reduced_system.local_solve") <= total("reduced_system.torn_solve")
    n_classes = len(pipe.reduced.factors)
    assert n_classes == 9  # 4x4 subdomains: interior, four edge and four corner classes
    assert layer_metrics(spans, pipe)["reduced_system.factor_count"] == (n_classes, "count")
