"""In-memory span tracing of sensebound's layers, from outside the package.

The tracer wraps each layer's entry points where their callers look them
up (``sensebound.report.run_ensemble``, not ``sensebound.loop.run_ensemble``,
because ``report`` imports the name), records one span per call and
restores every original when the traced call ends. Spans are
``(name, start, end, parent)`` tuples kept in a list; a layer's self time
is its spans' durations minus the part covered by their child spans, so
the self times of one call sum to the root span's duration.
"""

import functools
import time
from collections import Counter
from contextlib import contextmanager

# (module attribute path, span name). A class path patches the method on
# that class only; each channel class that defines its own method is
# listed by instrument() below.
PATCH_POINTS = (
    ("report.build_context", "config.build_context"),
    ("report.run_ensemble", "loop.ensemble"),
    ("loop.run_closed_loop", "loop.driver"),
    ("loop.make_initial_belief", "filters.init"),
    ("filters.update", "filters.update"),
    ("filters.predict", "filters.predict"),
    ("filters._discrete_predictive_entropy_bits", "filters.discrete_pmf"),
    ("filters.gaussian_entropy_nats", "entropy.gaussian"),
    ("filters.grid_entropy_nats", "entropy.grid"),
    ("filters.knn_entropy_nats", "entropy.knn"),
    ("infoflow.InfoLedger.record", "infoflow.ledger"),
    ("loop.ensemble_mean_ledger", "infoflow.reduce"),
    ("report.rate_balance_check", "infoflow.reduce"),
    ("report.necessity_audit", "infoflow.reduce"),
    ("report.build_summary", "report.summary"),
    ("report.run_csv_text", "report.csv"),
    ("report.render_svg", "report.svg"),
    ("report.write_bundle_atomic", "report.write"),
)
CHANNEL_METHODS = (("sample", "channels.sample"), ("log_density_batch", "channels.log_density"))

# Spans opened by the benchmark around the public calls it makes itself.
ROOT_SPAN = "bench.call"
BENCH_SPANS = {
    "parse_config": "config.parse_config",
    "run_experiment": "report.experiment",
    "recompute_summary_from_csvs": "report.readback",
}

SPAN_NAMES = tuple(
    dict.fromkeys(
        [ROOT_SPAN, *BENCH_SPANS.values(), *(n for _, n in PATCH_POINTS),
         *(n for _, n in CHANNEL_METHODS)]
    )
)


class Tracer:
    """Span recorder for one traced call at a time (single-threaded)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.resampled = 0
        self.last_ensemble = None

    def wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, owner, attr, name, on_result=None):
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_result))
        self._patches.append((owner, attr, original))

    def _count_resample(self, step):
        self.resampled += bool(step.resampled)

    def _keep_ensemble(self, ens):
        self.last_ensemble = ens

    @contextmanager
    def instrument(self, sb):
        """Patch every layer entry point of the imported package ``sb``."""
        hooks = {"filters.update": self._count_resample,
                 "loop.ensemble": self._keep_ensemble}
        try:
            for path, name in PATCH_POINTS:
                module, *inner, attr = path.split(".")
                owner = getattr(sb, module)
                for part in inner:
                    owner = getattr(owner, part)
                self._patch(owner, attr, name, hooks.get(name))
            for cls in vars(sb.channels).values():
                if isinstance(cls, type) and issubclass(cls, sb.channels.ChannelModel):
                    for attr, name in CHANNEL_METHODS:
                        if attr in cls.__dict__:
                            self._patch(cls, attr, name)
            yield
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def take(self):
        """Reduce and clear the recorded spans.

        Returns (self seconds by span name, call counts by span name,
        root duration, raw spans).
        """
        spans = list(self.spans)
        self.spans.clear()
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s, calls = Counter(), Counter()
        root = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] += (end - start) - covered[i]
            calls[name] += 1
            if parent < 0:
                root += end - start
        return self_s, calls, root, spans
