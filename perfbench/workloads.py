"""The benchmark's workloads: which config each runs, how the seed reaches
the program, the timed call, and the checks on its outputs."""

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# Same tolerance as `sensebound report` uses for its read-back.
READBACK_RTOL, READBACK_ATOL = 1e-9, 1e-12
READBACK_KEYS = (
    ("di_rate_bits_per_step", ("di_rate_bits_per_step",)),
    ("mean_err_sq", ("ensemble", "mean_err_sq")),
    ("mean_state_sq", ("ensemble", "mean_state_sq")),
    ("mean_cmi_bits", ("ensemble", "mean_cmi_bits")),
)


@dataclass(frozen=True)
class Workload:
    name: str
    base: str  # bundled experiment name, or a .cfg file in this directory
    filter_kind: str
    runs: int
    workers: int
    write: bool
    residual_tol: float  # |rate-balance residual|, bits/step
    di_rate_tol: Optional[float] = None  # |di rate - log2 a|, bits/step

    def config_text(self, sb, seed: int) -> str:
        """The generated config: the base config with this workload's run
        count and the benchmark seed in place of run.seed."""
        if self.base.endswith(".cfg"):
            with open(os.path.join(HERE, self.base), encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sb.experiments.bundled_text(self.base)
        return set_run_keys(text, {"seed": seed, "runs": self.runs})


WORKLOADS = {
    wl.name: wl
    for wl in (
        # The user's `sensebound run` + `sensebound report` path: exact
        # Kalman filter, two worker processes, bundle written and read back.
        Workload("kalman-bundle", "kalman-baseline", "kalman", runs=60, workers=2,
                 write=True, residual_tol=1e-9, di_rate_tol=0.01),
        # 1-D grid filter behind a 1-bit quantizer, in memory, one process.
        Workload("grid-quantizer", "sign-threshold-easy", "grid", runs=24, workers=1,
                 write=False, residual_tol=0.05),
        # Bootstrap particle filter on the tanh channel, in memory.
        Workload("particle-tanh", "particle_tanh.cfg", "particle", runs=1, workers=1,
                 write=False, residual_tol=0.05),
    )
}


def set_run_keys(text: str, values: dict) -> str:
    """Replace `key = value` lines of the [run] section; each key must be
    present exactly once."""
    lines, section, seen = [], "", set()
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            section = stripped.strip("[]").strip()
        elif section == "run" and "=" in stripped and not stripped.startswith("#"):
            key = stripped.split("=", 1)[0].strip()
            if key in values:
                if key in seen:
                    raise ValueError(f"[run] {key} appears twice")
                seen.add(key)
                line = f"{key} = {json.dumps(values[key])}"
        lines.append(line)
    missing = set(values) - seen
    if missing:
        raise ValueError(f"[run] lacks {sorted(missing)}")
    return "\n".join(lines) + "\n"


def call(api, wl: Workload, cfg_text: str, out_dir: str, workers: int):
    """The timed workload call: what `sensebound run` (and, for written
    bundles, `sensebound report`) does with the generated config."""
    cfg = api.parse_config(cfg_text)
    bundle = api.run_experiment(cfg, out_dir=out_dir, workers=workers, write=wl.write)
    readback = api.recompute_summary_from_csvs(out_dir) if wl.write else None
    return cfg, bundle, readback


def summary_text(summary: dict) -> str:
    # the serialisation run_experiment uses for summary.json
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def failed_runs(summary: dict) -> int:
    return int(summary["n_halted"]) + int(summary["n_degenerate"])


def check(wl: Workload, cfg, summary: dict, stored_text, readback) -> list:
    """Every way this repetition's outputs are wrong, as messages."""
    problems = []
    nec = summary.get("necessity")
    if nec is None:
        problems.append("no necessity verdict (no run completed)")
    elif nec["applicable"] and not nec["passed"]:
        problems.append(f"necessity violation: {nec['detail']}")
    if failed_runs(summary):
        problems.append(
            f"{failed_runs(summary)} of {summary['n_runs']} runs halted or degenerate"
        )
    res = summary.get("rate_balance_residual_bits_per_step")
    if res is None or not abs(res) <= wl.residual_tol:
        problems.append(f"rate-balance residual {res} exceeds {wl.residual_tol}")
    if wl.di_rate_tol is not None:
        a = float(np.asarray(cfg.system["A"], dtype=float).reshape(-1)[0])
        di = summary.get("di_rate_bits_per_step")
        if di is None or not abs(di - math.log2(abs(a))) <= wl.di_rate_tol:
            problems.append(f"di rate {di} not within {wl.di_rate_tol} of log2 a")
    if wl.write:
        if stored_text != summary_text(summary):
            problems.append("summary.json differs from the returned summary")
        stored = json.loads(stored_text)
        for key, path in READBACK_KEYS:
            want = stored
            for part in path:
                want = want[part]
            a = np.atleast_1d(np.asarray(want, dtype=float))
            b = np.atleast_1d(np.asarray(readback[key], dtype=float))
            if a.shape != b.shape or not np.allclose(b, a, rtol=READBACK_RTOL,
                                                     atol=READBACK_ATOL):
                problems.append(f"read-back {key} disagrees with summary.json")
        if (readback["n_runs"], readback["horizon"]) != (stored["n_runs"], stored["horizon"]):
            problems.append("read-back run count or horizon disagrees with summary.json")
    return problems

