"""sensebound benchmark: end-to-end and per-layer metrics of three ensemble
workloads, with a correctness gate on every repetition.

    python3 perfbench/run.py --workload kalman-bundle --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ./src. With
--trace 0 it times the untraced workload call for --seconds after one
warm-up repetition, times the set-up of fresh interpreters, and prints the
end-to-end metrics. With --trace 1 it alternates untraced and traced
repetitions (both with one worker process) and prints the per-layer
metrics. Human-readable lines come first; the last line of standard output
is one JSON object. Result files and the spans of the last traced call go
to .perfbench-out/. The exit code is 0 only when every check passed.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import gzip
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
from types import SimpleNamespace

from spans import BENCH_SPANS, ROOT_SPAN, SPAN_NAMES, Tracer
from workloads import WORKLOADS, call, check, digest, failed_runs, summary_text

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
MIN_CYCLES = 5  # measurement cycles per run, even past --seconds


@dataclass
class Rep:
    wall_s: float
    run_steps: int = 0
    runs: int = 0
    failed: int = 0
    digest: str = ""
    residual: float = float("nan")
    bundle_bytes: int = 0
    problems: list = field(default_factory=list)


def load_program():
    """Import sensebound from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    import sensebound
    import sensebound.experiments  # noqa: F401  (bundled_text)

    if not os.path.abspath(sensebound.__file__).startswith(SRC + os.sep):
        raise ImportError(f"sensebound imported from {sensebound.__file__}, not {SRC}")
    return sensebound


def setup_probe(cfg_text: str) -> tuple:
    """(import_s, build_context_s) of a fresh interpreter, timed from just
    before its start to a built RunContext."""
    launched = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py")],
        input=cfg_text, capture_output=True, text=True, cwd=ROOT, timeout=120,
        check=True,
    )
    stamps = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(stamps["module"]).startswith(SRC + os.sep):
        raise RuntimeError(f"set-up probe imported {stamps['module']}")
    return stamps["imported"] - launched, stamps["built"] - stamps["imported"]


def bundle_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def one_rep(fn, api, wl, cfg_text, work, index, workers) -> Rep:
    """Time one workload call and check its outputs. A call that raises
    fails all its runs."""
    out_dir = os.path.join(work, f"bundle-{index}")
    start = time.perf_counter()
    try:
        cfg, bundle, readback = fn(api, wl, cfg_text, out_dir, workers)
    except Exception:
        rep = Rep(time.perf_counter() - start, runs=wl.runs, failed=wl.runs)
        rep.problems.append("workload call raised:\n" + traceback.format_exc())
        return rep
    wall = time.perf_counter() - start
    s = bundle.summary
    stored_text, size = None, 0
    if wl.write:
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            stored_text = fh.read()
        size = bundle_bytes(out_dir)
        shutil.rmtree(out_dir)
    residual = s["rate_balance_residual_bits_per_step"]
    return Rep(
        wall_s=wall,
        run_steps=int(sum(s["ensemble"]["alive"])),
        runs=int(s["n_runs"]),
        failed=failed_runs(s),
        digest=digest(stored_text if wl.write else summary_text(s)),
        residual=abs(residual) if residual is not None else float("nan"),
        bundle_bytes=size,
        problems=check(wl, cfg, s, stored_text, readback),
    )


def cycle(actions, seconds: float) -> None:
    """Run the actions in turn, cycle after cycle, for at least `seconds`
    and MIN_CYCLES cycles. Interleaving spreads every kind of sample over
    the whole window, so slow phases of a shared machine hit them alike.
    Stops at the first action that returns False (a failed repetition)."""
    deadline = time.perf_counter() + seconds
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() < deadline:
        for action in actions:
            if not action():
                return
        cycles += 1


def ipc_probe(records) -> tuple:
    """Bytes and dump+load milliseconds per run record, pickled the way a
    process pool returns results."""
    total, start = 0, time.perf_counter()
    for record in records:
        buf = ForkingPickler.dumps(record)
        total += len(buf)
        pickle.loads(buf)
    elapsed = time.perf_counter() - start
    return total / len(records), 1e3 * elapsed / len(records)


# ---------------------------------------------------------------------------
# provenance


def git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Digest of the program's sources, which identifies the code measured
    also where no git metadata is present."""
    h = hashlib.sha256()
    for d, _, files in sorted(os.walk(SRC)):
        for f in sorted(files):
            if f.endswith((".py", ".cfg")):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def provenance(sb, workers: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sensebound": sb.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "workers": workers,
    }


# ---------------------------------------------------------------------------
# one workload


def median(values):
    return statistics.median(values) if values else float("nan")


def describe(values) -> str:
    """Sample count and range, printed beside a metric."""
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)} min={min(values):.6g} max={max(values):.6g}"


def measure(sb, wl, seed: int, seconds: float, traced: bool, work: str) -> dict:
    cfg_text = wl.config_text(sb, seed)
    api = SimpleNamespace(
        parse_config=sb.parse_config,
        run_experiment=sb.report.run_experiment,
        recompute_summary_from_csvs=sb.report.recompute_summary_from_csvs,
    )
    workers = 1 if traced else wl.workers
    counter = iter(range(10**9))
    plain, traced_reps, layers, setup = [], [], [], []

    def plain_rep():
        return one_rep(call, api, wl, cfg_text, work, next(counter), workers)

    def timed():
        plain.append(plain_rep())
        return not plain[-1].problems

    def probe():
        setup.append(setup_probe(cfg_text))
        return True

    if traced:
        tracer = Tracer()
        traced_api = SimpleNamespace(
            **{attr: tracer.wrap(name, getattr(api, attr)) for attr, name in BENCH_SPANS.items()}
        )
        traced_call = tracer.wrap(ROOT_SPAN, call)

    def traced_rep():
        tracer.resampled = 0
        with tracer.instrument(sb):
            rep = one_rep(traced_call, traced_api, wl, cfg_text, work, next(counter), 1)
        self_s, calls, root, spans = tracer.take()
        ens, tracer.last_ensemble = tracer.last_ensemble, None
        traced_reps.append(rep)
        if rep.problems:
            return False
        ipc_bytes, ipc_ms = ipc_probe(ens.runs)
        if layers:
            layers[-1]["spans"] = None  # keep the raw spans of the last call only
        layers.append({
            "self_s": self_s, "calls": calls, "root_s": root, "spans": spans,
            "resampled": tracer.resampled, "ipc_bytes": ipc_bytes, "ipc_ms": ipc_ms,
        })
        return True

    def pair():
        # alternate which side runs first, so an order effect cancels out
        sides = (timed, traced_rep) if len(layers) % 2 == 0 else (traced_rep, timed)
        return all(side() for side in sides)

    warm = plain_rep()
    if not warm.problems:
        # set-up probes take about as long as a repetition; two repetitions
        # per probe give run_steps_per_s, the noisier figure, more samples
        cycle([pair, probe] if traced else [timed, timed, probe], seconds)
    return {"cfg_text": cfg_text, "workers": workers, "warm": warm, "plain": plain,
            "traced": traced_reps, "layers": layers, "setup": setup}


def end_to_end(result) -> dict:
    rates = [r.run_steps / r.wall_s for r in result["plain"]]
    setups = [imp + build for imp, build in result["setup"]]
    return {
        "run_steps_per_s": (median(rates), "steps/s", describe(rates)),
        "setup_s": (median(setups), "s", describe(setups)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "n=1",
        ),
    }


def per_layer(result) -> dict:
    layers = result["layers"]
    n = len(layers)
    out = {}
    for name in SPAN_NAMES:
        vals = [t["self_s"].get(name, 0.0) for t in layers]
        out[f"{name}.self_s"] = (sum(vals) / n, "s", describe(vals))
    last, rep = layers[-1], result["traced"][-1]
    entropy_calls = sum(c for k, c in last["calls"].items() if k.startswith("entropy."))
    updates = last["calls"].get("filters.update", 0)
    ipc_ms = [t["ipc_ms"] for t in layers]
    traced = [t["root_s"] for t in layers]
    plain = [r.wall_s for r in result["plain"]]
    imports = [imp for imp, _ in result["setup"]]
    builds = [b for _, b in result["setup"]]
    out.update({
        "filters.resample_frac": (last["resampled"] / updates if updates else 0.0, "1", "exact"),
        "entropy.evals_per_step": (entropy_calls / rep.run_steps, "count", "exact"),
        "loop.ipc_bytes_per_run": (last["ipc_bytes"], "B", "exact"),
        "loop.ipc_pickle_ms_per_run": (sum(ipc_ms) / n, "ms", describe(ipc_ms)),
        "loop.run_steps": (rep.run_steps, "count", "exact"),
        "report.bundle_bytes": (rep.bundle_bytes, "B", "exact"),
        "infoflow.rate_balance_residual_abs_bits": (rep.residual, "bits", "exact"),
        "setup.import_s": (median(imports), "s", describe(imports)),
        "setup.build_context_s": (median(builds), "s", describe(builds)),
        "trace.traced_wall_s": (sum(traced) / n, "s", describe(traced)),
        "trace.untraced_wall_s": (sum(plain) / len(plain), "s", describe(plain)),
        "trace.overhead_s": (sum(traced) / n - sum(plain) / len(plain), "s",
                             f"n={n} traced, {len(plain)} untraced"),
    })
    return out


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    try:
        sb = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        result = measure(sb, wl, args.seed, args.seconds, traced, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_reps = [result["warm"], *result["plain"], *result["traced"]]
    problems = [p for r in all_reps for p in r.problems]
    digests = sorted({r.digest for r in all_reps if not r.problems})
    if len(digests) > 1:
        problems.append(f"repetitions at one seed gave {len(digests)} summary digests")
    attempted = sum(r.runs for r in all_reps)
    failed = sum(r.failed for r in all_reps)
    correct = not problems and failed == 0

    prov = provenance(sb, result["workers"])
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"workload: base={wl.base} filter={wl.filter_kind} runs x horizon = "
          f"{wl.runs} x {result['warm'].run_steps // max(wl.runs, 1)} "
          f"workers={result['workers']} write={wl.write}")
    residuals = sorted({r.residual for r in all_reps if not r.problems})
    table = {}
    if correct and (result["layers"] if traced else result["plain"]):
        table = per_layer(result) if traced else end_to_end(result)
    if not traced:
        # the two gated accuracy figures, reported beside the timed metrics
        table_all = dict(table)
        table_all["rate_balance_residual_abs_bits"] = (
            residuals[0] if len(residuals) == 1 else float("nan"), "bits",
            f"n={len(all_reps)} reps, {len(residuals)} distinct",
        )
        table_all["failed_runs_frac"] = (failed / max(attempted, 1), "1",
                                         f"{failed} of {attempted} runs")
    else:
        table_all = table
    for name, (value, unit, note) in table_all.items():
        print(f"  {name:<42} {value:>16.6g} {unit:<8} {note}")
    if traced and table:
        wall = table["trace.traced_wall_s"][0]
        layers = sum(table[f"{n}.self_s"][0] for n in SPAN_NAMES)
        print(f"  accounting: sum of self times {layers:.6f} s = traced wall {wall:.6f} s"
              f" = untraced wall {table['trace.untraced_wall_s'][0]:.6f} s"
              f" + tracing overhead {table['trace.overhead_s'][0]:.6f} s")
        for n in SPAN_NAMES:
            share = table[f"{n}.self_s"][0] / wall
            if share > 0:
                print(f"  share {n:<30} {100 * share:6.2f} %")
    print(f"gate: {'pass' if correct else 'FAIL'} ({attempted} runs attempted, {failed} failed,"
          f" {len(all_reps)} repetitions, {len(digests)} distinct summary digest)")
    for p in problems:
        print(f"  problem: {p}")

    stem = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "provenance": prov, "config": result["cfg_text"],
            "setup": result["setup"], "correct": correct, "problems": problems,
            "reps": [{"wall_s": r.wall_s, "run_steps": r.run_steps, "digest": r.digest}
                     for r in all_reps],
            "metrics": {k: {"value": v, "unit": u, "samples": s}
                        for k, (v, u, s) in table_all.items()},
        }, fh, indent=1, allow_nan=True)
    if traced and result["layers"]:
        spans = result["layers"][-1]["spans"]
        t0 = spans[0][1] if spans else 0.0
        with gzip.open(stem + "-spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[n, s - t0, e - t0, p] for n, s, e, p in spans]}, fh)

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in table.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        try:
            part = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        for k, v in part["metrics"].items():
            merged["metrics"][f"{name}/{k}"] = v
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
