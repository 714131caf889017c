"""The benchmark's span tracer must see every layer of a run, on each driver.

perfbench/spans.py wraps layer entry points where their callers look
them up (for example ``sensebound.filters.update``). A refactor that binds
those names elsewhere would hide the calls from ``--trace 1``; this test
runs a tiny experiment under the unmodified tracer and checks each layer
still records spans.
"""

import importlib.util
import os

import sensebound
from sensebound.experiments import bundled_text, load_bundled

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_sees_every_layer_of_a_quantizer_run():
    """A 1-D grid ensemble runs as one block: filters.update, filters.predict
    and the discrete pmf are called once per step of the block, the grid
    entropy inside them, and the scalar driver is not used."""
    tracer = load_spans().Tracer()
    cfg = load_bundled("sign-threshold-easy")
    with tracer.instrument(sensebound):
        sensebound.report.run_experiment(cfg, write=False, runs=2, horizon=30)
    _, calls, _, _ = tracer.take()
    assert calls["filters.update"] == calls["filters.predict"] == 30
    assert calls["filters.discrete_pmf"] == 30
    assert calls["entropy.grid"] > 0
    assert calls["loop.driver"] == 0
    # every original is restored once the traced call ends
    assert not hasattr(sensebound.filters.update, "__wrapped__")


def test_tracer_sees_the_scalar_driver():
    """run_closed_loop, the scalar reference, is still traced as loop.driver."""
    tracer = load_spans().Tracer()
    ctx = sensebound.config.build_context(load_bundled("sign-threshold-easy"))
    with tracer.instrument(sensebound):
        sensebound.loop.run_closed_loop(ctx, 1, 0)
    _, calls, _, _ = tracer.take()
    assert calls["loop.driver"] == 1
    assert calls["filters.update"] == calls["filters.discrete_pmf"] == ctx.horizon


def test_tracer_sees_the_kalman_block():
    """A Kalman ensemble runs as one in-process block: the covariance pass
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


def test_written_kalman_bundle_keeps_the_layer_split(tmp_path):
    """Writing a Kalman bundle: one report.csv span per run, time inside
    loop.ensemble itself (the block and the reduction), no scalar driver."""
    tracer = load_spans().Tracer()
    cfg = load_bundled("kalman-baseline")
    with tracer.instrument(sensebound):
        sensebound.report.run_experiment(cfg, out_dir=str(tmp_path / "b"), runs=3,
                                         horizon=100, workers=2)
    self_s, calls, _, _ = tracer.take()
    assert calls["report.csv"] == 3
    assert calls["loop.ensemble"] == 1 and self_s["loop.ensemble"] > 0
    assert calls["loop.driver"] == 0
    assert calls["report.write"] == 1


def test_tracer_sees_the_particle_driver():
    """A particle ensemble runs one scalar driver per run: under the tracer
    a run records the kNN entropy 2T+1 times (the initial cloud, then each
    step's prediction and posterior), filters.update and filters.predict
    T times each and loop.driver once."""
    tracer = load_spans().Tracer()
    text = bundled_text("entropy-balance").replace(
        'kind = "grid"\ncells_per_std = 24', 'kind = "particle"\nparticles = 1024')
    assert "particles = 1024" in text
    horizon = 30
    with tracer.instrument(sensebound):
        sensebound.report.run_experiment(sensebound.config.parse_config(text), write=False,
                                         runs=1, horizon=horizon, workers=1)
    _, calls, _, _ = tracer.take()
    assert calls["entropy.knn"] == 2 * horizon + 1
    assert calls["filters.update"] == calls["filters.predict"] == horizon
    assert calls["loop.driver"] == 1
    assert not hasattr(sensebound.filters.knn_entropy_nats, "__wrapped__")
