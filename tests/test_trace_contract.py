"""The benchmark's span tracer must see every layer of a quantizer run.

perfbench/spans.py wraps layer entry points where their callers look
them up (for example ``sensebound.filters.update``). A refactor that binds
those names elsewhere would hide the calls from ``--trace 1``; this test
runs a tiny experiment under the unmodified tracer and checks each layer
still records spans.
"""

import importlib.util
import os

import sensebound
from sensebound.experiments import load_bundled

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_sees_every_layer_of_a_quantizer_run():
    tracer = load_spans().Tracer()
    cfg = load_bundled("sign-threshold-easy")
    with tracer.instrument(sensebound):
        sensebound.report.run_experiment(cfg, write=False, runs=2, horizon=30)
    _, calls, _, _ = tracer.take()
    for name in ("filters.update", "filters.predict", "filters.discrete_pmf",
                 "entropy.grid", "loop.driver"):
        assert calls[name] > 0, name
    assert calls["loop.driver"] == 2
    assert calls["filters.update"] == calls["filters.discrete_pmf"] == 60
    # every original is restored once the traced call ends
    assert not hasattr(sensebound.filters.update, "__wrapped__")


def test_tracer_sees_the_kalman_block():
    """A Kalman ensemble runs as one block per worker: the covariance pass
    calls filters.update and filters.predict once per step of the block,
    and the scalar driver is not used."""
    tracer = load_spans().Tracer()
    cfg = load_bundled("kalman-baseline")
    with tracer.instrument(sensebound):
        sensebound.report.run_experiment(cfg, write=False, runs=3, horizon=100)
    _, calls, _, _ = tracer.take()
    assert calls["filters.update"] == calls["filters.predict"] == 100
    assert calls["entropy.gaussian"] > 0
    assert calls["loop.driver"] == 0
