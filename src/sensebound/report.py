"""Report bundles: per-run CSVs, a summary JSON, and self-contained SVG
plots, written atomically (temp dir + rename).

CSV schema (version 1, column set is frozen):
    t, run_id, state_norm_sq, err_norm_sq, h_pred_bits, h_post_bits,
    cmi_bits, di_cum_bits
Floats are serialized with repr, which round-trips exactly, so identical
(config, seed) pairs produce byte-identical files. outcomes.csv holds
each run's outcome and terminal h_pred (blank for a run with no step),
which no run CSV gives; with config.cfg and the first audits/ file they
determine summary.json (`read_back_summary`) but for UNCHECKED_KEY.
"""

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

import numpy as np

from .config import (
    SECTIONS, ExperimentConfig, build_context, default_thresholds, parse_config,
    validate_config,
)
from .errors import EmptySeries, SenseboundError
from .infoflow import InfoLedger, necessity_audit, rate_balance_check
from .loop import (
    EnsembleStats, RunContext, RunRecord, classify_outcome, reduce_ensemble, run_ensemble,
    tracked_expansion,
)

SCHEMA_VERSION = 1
CSV_COLUMNS = (
    "t",
    "run_id",
    "state_norm_sq",
    "err_norm_sq",
    "h_pred_bits",
    "h_post_bits",
    "cmi_bits",
    "di_cum_bits",
)
CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"
OUTCOMES_HEADER = "run_id,outcome,terminal_h_pred_bits\n"
OUTCOMES = ("completed", "halted", "degenerate")
UNCHECKED_KEY = ("ensemble", "mean_cmi_channel_bits")  # no CSV v1 column holds it
RECOMPUTED_KEYS = ("n_runs", "horizon", "mean_err_sq", "mean_state_sq", "mean_cmi_bits", "alive",
                   "di_rate_bits_per_step")  # the keys recomputed_stats returns


def to_jsonable(obj):
    """obj as JSON values: its `to_json_dict` when it has one, else a
    dataclass instance as {field name: value}, a complex number as
    {"re", "im"} and numpy values as Python ones."""
    if hasattr(obj, "to_json_dict"):
        return to_jsonable(obj.to_json_dict())
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def run_csv_text(record, run_id: int) -> str:
    """One run's CSV. Each row is one f-string; floats are repr(float(x)),
    and the four ledger cells come formatted once from the run's ledger."""
    sn = np.asarray(record.state_norm_sq, dtype=float).tolist()
    en = np.asarray(record.err_norm_sq, dtype=float).tolist()
    lines = [CSV_HEADER]
    lines += [
        f"{t},{run_id},{s!r},{e!r},{cells}\n"
        for t, (s, e, cells) in enumerate(zip(sn, en, record.ledger.csv_cells(), strict=True))
    ]
    return "".join(lines)


def outcomes_csv_text(records) -> str:
    """outcomes.csv: each run's outcome and terminal h_pred, repr(float(x))."""
    lines = [OUTCOMES_HEADER]
    for r in records:
        term = r.ledger.terminal_h_pred
        lines.append(f"{r.run_index},{r.outcome},{'' if term is None else repr(float(term))}\n")
    return "".join(lines)


def read_run_csv(path) -> dict:
    """The columns of one run CSV, as float arrays.

    Bytes that are not UTF-8, a wrong header, a row with a missing or extra
    cell and a cell that is not a number each raise SenseboundError naming
    the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            body = fh.read()
    except UnicodeDecodeError as exc:
        raise SenseboundError(f"{path}: not a UTF-8 run CSV ({exc})") from exc
    if header != CSV_HEADER:
        got = header.rstrip("\n").split(",")
        raise SenseboundError(f"unexpected CSV columns in {path}: {got}")
    values = np.empty((0, len(CSV_COLUMNS)))
    if body.strip():
        try:
            values = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise SenseboundError(f"malformed run CSV {path}: {exc}") from exc
    if values.shape[1] != len(CSV_COLUMNS):
        raise SenseboundError(
            f"malformed run CSV {path}: rows have {values.shape[1]} cells, "
            f"expected {len(CSV_COLUMNS)}"
        )
    return {c: values[:, k] for k, c in enumerate(CSV_COLUMNS)}


# ---------------------------------------------------------------------------
# SVG


def _ticks(lo: float, hi: float, n: int = 6):
    if hi <= lo:
        hi = lo + 1.0
    s = 0.5 if math.isinf(hi - lo) else 1.0  # halve before subtracting if hi - lo overflows
    raw = (hi * s - lo * s) / max(n - 1, 1) / s
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    vals = []
    v = start
    while v <= hi + 1e-12 * step:
        vals.append(v)
        v += step
    return vals


def _xml_text(text: str) -> str:
    """`text` as XML character data: html.escape(text, quote=False), without importing html."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(name, xs, ys, title, ylabel, logy=False, hlines=()) -> str:
    """Render one polyline, labelled `name`, into a standalone 800 x 500
    SVG document; hlines draws labelled horizontal reference lines (e.g.
    the expansion rate against a di-rate trace). Every text is escaped as
    XML character data. Only finite points (positive ones on a log scale)
    are drawn, and the axes span them.
    """
    def drawable(y):
        return math.isfinite(y) and (y > 0 or not logy)

    pts = [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and drawable(y)]
    hlines = [(label, y) for label, y in hlines if drawable(y)]
    if not pts:
        raise EmptySeries("no finite point to plot")
    name, title, ylabel = map(_xml_text, (name, title, ylabel))
    width, height = 800, 500
    ml, mr, mt, mb = 70, 20, 40, 55
    pw, ph = width - ml - mr, height - mt - mb

    ys_all = [y for _, y in pts] + [y for _, y in hlines]
    if logy:
        ylo, yhi = math.log10(min(ys_all)), math.log10(max(ys_all))
    else:
        ylo, yhi = min(ys_all), max(ys_all)
    if yhi <= ylo:
        yhi = ylo + 1.0
    xlo, xhi = min(x for x, _ in pts), max(x for x, _ in pts)
    if xhi <= xlo:
        xhi = xlo + 1.0
    s = 0.5 if math.isinf(yhi - ylo) else 1.0  # halve before subtracting if the span overflows

    def px(x):
        return ml + (x - xlo) / (xhi - xlo) * pw

    def py(y):
        yy = math.log10(y) if logy else y
        yy = min(max(yy, ylo), yhi)
        return mt + ph - (yy * s - ylo * s) / (yhi * s - ylo * s) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
    ]
    for xv in _ticks(xlo, xhi):
        out.append(
            f'<line x1="{px(xv):.2f}" y1="{mt + ph}" x2="{px(xv):.2f}" y2="{mt + ph + 5}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{px(xv):.2f}" y="{mt + ph + 18}" text-anchor="middle">{xv:.6g}</text>'
        )
    for tv in _ticks(ylo, yhi):
        yv = 10.0**tv if logy else tv
        out.append(
            f'<line x1="{ml - 5}" y1="{py(yv):.2f}" x2="{ml}" y2="{py(yv):.2f}" stroke="#333"/>'
        )
        label = f"1e{tv:.0f}" if logy else f"{tv:.6g}"
        out.append(
            f'<text x="{ml - 8}" y="{py(yv) + 4:.2f}" text-anchor="end">{label}</text>'
        )
    out.append(f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle">t</text>')
    out.append(
        f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>'
    )
    for label, yv in hlines:
        out.append(
            f'<line x1="{ml}" y1="{py(yv):.2f}" x2="{ml + pw}" y2="{py(yv):.2f}" '
            f'stroke="#555" stroke-dasharray="6 4"/>'
        )
        out.append(
            f'<text x="{ml + pw - 4}" y="{py(yv) - 5:.2f}" text-anchor="end" fill="#555">'
            f'{_xml_text(label)}</text>'
        )
    color = "#1f77b4"
    line = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
    out.append(f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    out.append(
        f'<line x1="{ml + pw - 150}" y1="{mt + 12}" x2="{ml + pw - 130}" y2="{mt + 12}" '
        f'stroke="{color}" stroke-width="2"/>'
    )
    out.append(f'<text x="{ml + pw - 124}" y="{mt + 16}">{name}</text>')
    out.append("</svg>")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# bundles


@dataclass
class ReportBundle:
    out_dir: str
    summary: dict
    acceptance_violation: bool

    @property
    def exit_code(self) -> int:
        return 2 if self.acceptance_violation else 0


def build_summary(cfg: ExperimentConfig, ctx: RunContext, ens: EnsembleStats) -> dict:
    """An ensemble's statistics with their verdicts: the outcome and, when a
    run completed, the necessity audit and rate-balance residual of the
    mean ledger. `run` and `report` (`read_back_summary`) both call it."""
    thresholds = default_thresholds(cfg, ctx)
    outcome = classify_outcome(ens, thresholds)
    verdict = residual = None
    if ens.mean_ledger is not None:
        verdict = necessity_audit(ens.mean_ledger, ens.mean_err_sq, outcome)
        residual = rate_balance_check(ens.mean_ledger)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "n_runs": ens.n_runs,
        "horizon": ens.horizon,
        "seed": ens.master_seed,
        "r_exp_bits_per_step": ctx.decomp.r_exp,
        "n_u": ctx.decomp.n_u,
        "eigenvalues": ctx.decomp.eigenvalues,
        "di_rate_bits_per_step": ens.di_rate,
        "rate_balance_residual_bits_per_step": residual,
        "outcome": outcome,
        "necessity": verdict,
        "n_halted": ens.n_halted,
        "n_degenerate": ens.n_degenerate,
        "fraction_halted_by": {str(k): v for k, v in ens.fraction_halted_by.items()},
        "ensemble": {
            "mean_state_sq": ens.mean_state_sq,
            "mean_err_sq": ens.mean_err_sq,
            "mean_cmi_bits": ens.mean_cmi,
            "alive": ens.alive,
        },
        "config": cfg,
    }
    if ens.mean_cmi_channel is not None:
        summary["ensemble"]["mean_cmi_channel_bits"] = ens.mean_cmi_channel
    audited = [r for r in ens.runs if r.audits is not None]
    if audited:
        summary["audits"] = audited[0].audits
    return to_jsonable(summary)


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: Optional[str] = None,
    seed: Optional[int] = None,
    runs: Optional[int] = None,
    horizon: Optional[int] = None,
    workers: int = 1,
    write: bool = True,
) -> ReportBundle:
    """Run the configured ensemble and emit the report bundle.

    A seed, run count or horizon given here goes into `cfg.run` as given,
    and `validate_config` checks it as it checks the config's own. The
    bundle's config.cfg is `cfg.source_text` while that text parses to
    `cfg`, else `cfg` rendered, so a rerun from it repeats this run
    whatever was changed in `cfg` after parsing. The bundle directory must
    not already exist; everything is staged in a sibling temp dir and
    renamed into place in one shot.
    """
    overrides = {k: v for k, v in (("seed", seed), ("horizon", horizon), ("runs", runs))
                 if v is not None}
    if overrides:
        cfg.run.update(overrides)
        validate_config(cfg)  # an override must be of its key's type and fit the config
    master_seed = int(cfg.run.get("seed", 0))
    n_runs = int(cfg.run.get("runs", 1))
    ctx = build_context(cfg)
    ens = run_ensemble(ctx, n_runs, master_seed=master_seed, workers=workers)
    summary = build_summary(cfg, ctx, ens)
    necessity = summary["necessity"]
    violation = bool(necessity and necessity["applicable"] and not necessity["passed"])

    out_path = out_dir if out_dir is not None else cfg.outputs.get("dir", "out")
    if write:
        files = {os.path.join("runs", f"run_{r.run_index:05d}.csv"): run_csv_text(r, r.run_index)
                 for r in ens.runs}
        files["outcomes.csv"] = outcomes_csv_text(ens.runs)
        files["summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        files["config.cfg"] = _bundle_config_text(cfg)
        for r in ens.runs:
            name = f"run_{r.run_index:05d}.json"
            if r.beliefs_json is not None:
                files[os.path.join("beliefs", name)] = json.dumps(
                    to_jsonable(r.beliefs_json), indent=1) + "\n"
            if r.audits is not None:
                files[os.path.join("audits", name)] = json.dumps(
                    to_jsonable(r.audits), indent=2, sort_keys=True) + "\n"
        ts = range(len(ens.mean_err_sq))
        if ts:  # when no run recorded a step, no plot has a point
            files["plots/err_norm_sq.svg"] = render_svg(
                "mean ||e||^2", ts, ens.mean_err_sq, f"{cfg.experiment}: estimation error",
                "E ||e_t||^2", logy=bool(np.all(ens.mean_err_sq > 0)))
            files["plots/state_norm_sq.svg"] = render_svg(
                "mean ||x||^2", ts, ens.mean_state_sq, f"{cfg.experiment}: state second moment",
                "E ||x_t||^2", logy=bool(np.all(ens.mean_state_sq > 0)))
            if ens.mean_ledger is not None:
                rates = [d / (t + 1) for t, d in enumerate(ens.mean_ledger.di_cum)]
                files["plots/di_rate.svg"] = render_svg(
                    "di rate", range(len(rates)), rates,
                    f"{cfg.experiment}: directed information rate", "bits/step",
                    hlines=[("r_exp", ctx.decomp.r_exp)])
        write_bundle_atomic(out_path, files)

    return ReportBundle(out_dir=str(out_path), summary=summary, acceptance_violation=violation)


def _bundle_config_text(cfg: ExperimentConfig) -> str:
    """A bundle's config.cfg: `cfg.source_text` while that text parses to
    `cfg` (compared as JSON text), else `cfg` rendered one key a line."""
    def as_json(c):
        return json.dumps(to_jsonable(c), sort_keys=True)

    if cfg.source_text and as_json(parse_config(cfg.source_text)) == as_json(cfg):
        return cfg.source_text
    lines = [f"experiment = {json.dumps(cfg.experiment, ensure_ascii=False)}"]
    for section in SECTIONS:
        data = getattr(cfg, section)
        if not data:
            continue
        lines.append(f"[{section}]")
        for k, v in data.items():
            lines.append(f"{k} = {json.dumps(to_jsonable(v))}")
    return "\n".join(lines) + "\n"


def write_bundle_atomic(out_dir, files: dict) -> None:
    """Stage files in a temp sibling and rename into place."""
    out_dir = str(out_dir)
    if os.path.exists(out_dir):
        raise SenseboundError(
            f"output dir {out_dir!r} already exists; refusing to overwrite a bundle"
        )
    parent = os.path.dirname(os.path.abspath(out_dir)) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".bundle-", dir=parent)
    try:
        for rel, text in files.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        os.replace(tmp, out_dir)
    except BaseException:
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)
        raise


# ---------------------------------------------------------------------------
# sweeps and recomputation


def set_config_value(cfg: ExperimentConfig, dotted: str, value) -> None:
    section, _, key = dotted.partition(".")
    if not key or section not in SECTIONS:
        raise SenseboundError(f"bad parameter path {dotted!r}; use section.key")
    getattr(cfg, section)[key] = value


def run_sweep(
    base_cfg_text: str,
    param: str,
    values,
    out_dir: str,
    seed: Optional[int] = None,
    workers: int = 1,
    runs: Optional[int] = None,
    horizon: Optional[int] = None,
) -> dict:
    """Vary one parameter over a list of values; one summary row per point.
    Each point is validated before it runs, so a key the configured kind
    does not read fails the sweep instead of giving identical rows. `runs`
    and `horizon` override every point's, as they do for `run_experiment`."""
    rows = []
    violation = False
    for v in values:
        cfg = parse_config(base_cfg_text)
        set_config_value(cfg, param, v)
        validate_config(cfg)
        bundle = run_experiment(cfg, seed=seed, runs=runs, horizon=horizon, workers=workers,
                                write=False)
        s = bundle.summary
        rows.append(
            {
                "param": param,
                "value": v,
                "r_exp_bits_per_step": s["r_exp_bits_per_step"],
                "di_rate_bits_per_step": s["di_rate_bits_per_step"],
                "ms_bounded_state": s["outcome"]["ms_bounded_state"],
                "ms_bounded_error": s["outcome"]["ms_bounded_error"],
                "asymptotic_error": s["outcome"]["asymptotic_error"],
                "tail_mean_err_sq": (
                    float(np.mean(s["ensemble"]["mean_err_sq"][-s["outcome"]["tail_window"]:]))
                    if s["ensemble"]["mean_err_sq"]
                    else None
                ),
                "n_halted": s["n_halted"],
                "necessity_passed": (s["necessity"] or {}).get("passed"),
            }
        )
        violation = violation or bundle.acceptance_violation

    buf = io.StringIO()
    cols = list(rows[0].keys())
    w = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
    w.writeheader()
    for row in rows:
        w.writerow(row)
    files = {
        "sweep.csv": buf.getvalue(),
        "sweep.json": json.dumps(to_jsonable(rows), indent=2, sort_keys=True) + "\n",
    }
    write_bundle_atomic(out_dir, files)
    return {"rows": rows, "violation": violation}


def read_bundle_config(bundle_dir) -> ExperimentConfig:
    """A bundle's parsed config.cfg; one that cannot be read or parsed
    raises SenseboundError naming the file."""
    path = os.path.join(bundle_dir, "config.cfg")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except (OSError, ValueError, SenseboundError) as exc:  # ValueError: not UTF-8
        raise SenseboundError(f"{path}: {exc}") from exc


def read_outcomes_csv(path) -> dict:
    """{run_id: (outcome, terminal h_pred or None)} from outcomes.csv; a
    missing file, a wrong header, a malformed or repeated row and an
    unknown outcome each raise SenseboundError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
    except FileNotFoundError:
        raise SenseboundError(f"{path}: missing; a bundle without it cannot be checked") from None
    except ValueError as exc:  # not UTF-8, or no header line
        raise SenseboundError(f"{path}: not an outcomes table ({exc})") from exc
    if header + "\n" != OUTCOMES_HEADER:
        raise SenseboundError(f"{path}: expected the header {OUTCOMES_HEADER.strip()!r}")
    table = {}
    for row in rows:
        try:
            run_id, outcome, term = row.split(",")
            run_id, term = int(run_id), float(term) if term else None
        except ValueError:
            raise SenseboundError(f"{path}: malformed row {row!r}") from None
        if outcome not in OUTCOMES:
            raise SenseboundError(f"{path}: run {run_id} has outcome {outcome!r}, "
                                  f"not one of {', '.join(OUTCOMES)}")
        if run_id in table:
            raise SenseboundError(f"{path}: run {run_id} has two rows")
        table[run_id] = (outcome, term)
    return table


def read_back_summary(bundle_dir, cfg: ExperimentConfig) -> dict:
    """`build_summary` of a bundle's runs, each rebuilt from runs/run_NNNNN.csv
    and its outcomes.csv row, with the first audits/ file. A CSV and a row
    that do not pair up by run_id, a CSV whose t column is not 0, 1, ...
    or whose run_id column is not its run's, `completed` on a CSV shorter
    than the horizon or another outcome on a full one, and a terminal value
    on a run with no step or none on a run with steps raise SenseboundError."""
    ctx = build_context(cfg)
    master_seed = int(cfg.run.get("seed", 0))
    runs_dir = os.path.join(bundle_dir, "runs")
    names = set(os.listdir(runs_dir)) if os.path.isdir(runs_dir) else set()
    if not names:
        raise SenseboundError(f"no run CSVs under {bundle_dir!r}")
    path = os.path.join(bundle_dir, "outcomes.csv")
    table = read_outcomes_csv(path)
    unpaired = sorted(names ^ {f"run_{i:05d}.csv" for i in table})
    if unpaired:
        what = "no row for" if unpaired[0] in names else "no CSV"
        raise SenseboundError(f"{path}: {what} runs/{unpaired[0]}")
    template = InfoLedger(ctx.decomp.r_exp, tracked_expansion(ctx.decomp))
    records = []
    for i, (outcome, term) in sorted(table.items()):
        csv_path = os.path.join(runs_dir, f"run_{i:05d}.csv")
        cols = read_run_csv(csv_path)
        steps = len(cols["t"])
        if not np.array_equal(cols["t"], np.arange(steps)):
            raise SenseboundError(f"{csv_path}: column t is not 0..{steps - 1}")
        if not np.all(cols["run_id"] == i):
            raise SenseboundError(f"{csv_path}: column run_id is not {i} on every row")
        if steps > ctx.horizon or (outcome == "completed") != (steps == ctx.horizon):
            raise SenseboundError(f"{path}: run {i} is {outcome}, but its CSV has {steps} "
                                  f"rows and the horizon is {ctx.horizon}")
        if (term is None) != (steps == 0):
            raise SenseboundError(f"{path}: run {i} has {steps} rows and "
                                  f"{'no' if term is None else 'a'} terminal h_pred")
        ledger = template.closed(cols["h_pred_bits"], cols["h_post_bits"], cols["cmi_bits"],
                                 cols["di_cum_bits"], term)
        records.append(RunRecord(
            i, z_u=None, u=None, y=None, state_norm_sq=cols["state_norm_sq"],
            err_norm_sq=cols["err_norm_sq"], cond=None, ledger=ledger, outcome=outcome))
    for r in records:
        audit_path = os.path.join(bundle_dir, "audits", f"run_{r.run_index:05d}.json")
        if os.path.exists(audit_path):
            r.audits = _read_json_object(audit_path)
            break
    return build_summary(cfg, ctx, reduce_ensemble(records, ctx.horizon, master_seed))


def recomputed_stats(summary: dict) -> dict:
    """The run counts and statistics of a summary, without its verdicts."""
    return {k: summary[k] if k in summary else summary["ensemble"][k] for k in RECOMPUTED_KEYS}


def recompute_summary_from_csvs(bundle_dir: str, cfg: Optional[ExperimentConfig] = None) -> dict:
    """`recomputed_stats` of the summary read back from a bundle whose
    config is `cfg`, else its config.cfg."""
    cfg = read_bundle_config(bundle_dir) if cfg is None else cfg
    return recomputed_stats(read_back_summary(bundle_dir, cfg))


def _read_json_object(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            value = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise SenseboundError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(value, dict):
        raise SenseboundError(f"{path}: expected a JSON object")
    return value


def summary_mismatches(summary_path, derived: dict) -> list:
    """(key, detail) for each leaf of summary.json but UNCHECKED_KEY whose JSON
    text differs from the derived summary's: a value other than a non-empty
    object, named by its dotted path, `ensemble.` left off."""
    def leaves(obj, path=()):
        for key, value in obj.items():
            if isinstance(value, dict) and value:
                yield from leaves(value, path + (key,))
            else:
                yield path + (key,), json.dumps(value, sort_keys=True)

    def brief(text):
        return "nothing" if text is None else text if len(text) <= 60 else text[:57] + "..."

    stored = dict(leaves(_read_json_object(summary_path)))
    stored.pop(UNCHECKED_KEY, None)
    derived = dict(leaves(json.loads(json.dumps(derived))))
    return [
        (".".join(p[1:] if p[0] == "ensemble" and len(p) > 1 else p),
         f"summary.json has {brief(stored.get(p))}, the bundle gives {brief(derived.get(p))}")
        for p in dict.fromkeys([*derived, *stored]) if stored.get(p) != derived.get(p)
    ]
