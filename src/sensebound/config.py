"""Experiment configuration: a small sectioned key-value text format.

Grammar (documented in the README):

    # comment                      blank lines and #-comments ignored
    experiment = "name"            top-level keys before any section
    [section]                      sections: system, channel, prior,
    key = value                    filter, controller, run, outputs

Values are JSON fragments (numbers, strings, booleans, arrays, objects);
a bare unquoted token is taken as a string. Parsing stops at the first
error and reports the offending line; validation reports the dotted field
path of the first bad field.
"""

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .channels import make_channel
from .errors import ParseError, ValidationError
from .filters import GridSpec
from .loop import RunContext, kalman_error_floor
from .priors import make_prior
from .system import SystemModel, decompose, design_gain

_SECTIONS = ("system", "channel", "prior", "filter", "controller", "run", "outputs")

CHANNEL_KINDS = (
    "linear-gaussian",
    "tanh-gaussian",
    "cubic-gaussian",
    "sign-quantizer",
    "modulo-gaussian",
)
PRIOR_FAMILIES = ("gaussian", "student-t", "laplace", "exponential", "uniform")
FILTER_KINDS = ("kalman", "grid", "particle")
CONTROLLER_MODES = ("none", "predict", "update")
GAIN_DESIGNS = ("lqr", "deadbeat", "place")

_KNOWN_KEYS = {
    "": {"experiment"},
    "system": {"A", "B", "allow_stable", "cond_cap"},
    "channel": {"kind", "C", "R", "scale", "r", "period", "levels", "dim",
                "schedule", "extension"},
    "prior": {"family", "mean", "cov", "df", "scale", "rate", "low", "high"},
    "filter": {"kind", "cells_per_std", "half_width_stds", "max_cells", "particles"},
    "controller": {"mode", "design", "target_pole", "poles", "q", "r"},
    "run": {"horizon", "runs", "seed", "divergence_guard", "tail_window",
            "bound_state", "bound_error", "zero_threshold", "audit",
            "audit_window", "kappa_cap"},
    "outputs": {"dir", "formats", "svg", "debug_beliefs"},
}


@dataclass
class ExperimentConfig:
    """Validated experiment description with defaults filled in."""

    experiment: str = "unnamed"
    system: dict = dc_field(default_factory=dict)
    channel: dict = dc_field(default_factory=dict)
    prior: dict = dc_field(default_factory=dict)
    filter: dict = dc_field(default_factory=dict)
    controller: dict = dc_field(default_factory=dict)
    run: dict = dc_field(default_factory=dict)
    outputs: dict = dc_field(default_factory=dict)
    source_text: str = ""

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "system": self.system,
            "channel": self.channel,
            "prior": self.prior,
            "filter": self.filter,
            "controller": self.controller,
            "run": self.run,
            "outputs": self.outputs,
        }


def _parse_value(raw: str, line_no: int):
    raw = raw.strip()
    if not raw:
        raise ParseError("missing value after '='", line=line_no)
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        if any(c in raw for c in "[]{}\","):
            raise ParseError(f"malformed value {raw!r}", line=line_no)
        return raw  # bare token -> string


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document; first error wins."""
    sections = {name: {} for name in _SECTIONS}
    top = {}
    current = ""
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", line=line_no)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(
                    f"unknown section [{name}]; known: {', '.join(_SECTIONS)}",
                    line=line_no,
                )
            current = name
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line=line_no)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        known = _KNOWN_KEYS[current]
        if key not in known:
            dotted = f"{current}.{key}" if current else key
            raise ParseError(
                f"unknown key {dotted!r}; known: {', '.join(sorted(known))}",
                line=line_no,
            )
        value = _parse_value(raw_value, line_no)
        (sections[current] if current else top)[key] = value

    cfg = ExperimentConfig(
        experiment=str(top.get("experiment", "unnamed")),
        system=sections["system"],
        channel=sections["channel"],
        prior=sections["prior"],
        filter=sections["filter"],
        controller=sections["controller"],
        run=sections["run"],
        outputs=sections["outputs"],
        source_text=text,
    )
    validate_config(cfg)
    return cfg


def parse_config_file(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _require(cond, field_path, message):
    if not cond:
        raise ValidationError(message, field=field_path)


def validate_config(cfg: ExperimentConfig) -> None:
    sys_c, ch, pr = cfg.system, cfg.channel, cfg.prior
    fl, ctl, run = cfg.filter, cfg.controller, cfg.run

    _require("A" in sys_c, "system.A", "system matrix A is required")
    A = np.atleast_2d(np.asarray(sys_c["A"], dtype=float))
    _require(A.shape[0] == A.shape[1], "system.A", "A must be square")
    n = A.shape[0]
    if "B" in sys_c:
        B = np.asarray(sys_c["B"], dtype=float)
        B = B[:, None] if B.ndim == 1 else B
        _require(B.shape[0] == n, "system.B", f"B must have {n} rows")

    kind = ch.get("kind", "linear-gaussian")
    _require(kind in CHANNEL_KINDS, "channel.kind",
             f"unknown channel kind {kind!r}; known: {', '.join(CHANNEL_KINDS)}")
    if "schedule" in ch:
        _require(bool(ch.get("extension", False)), "channel.schedule",
                 "a per-step parameter schedule is a flagged extension beyond the "
                 "time-invariant observation model; set extension = true to opt in")
        sched = ch["schedule"]
        _require(isinstance(sched, dict) and "gamma" in sched, "channel.schedule",
                 'schedule must be an object like {"gamma": 0.5}')
        _require(0.0 < float(sched["gamma"]) <= 1.0, "channel.schedule",
                 "gamma must be in (0, 1]")
        _require(kind != "sign-quantizer", "channel.schedule",
                 "the sign quantizer has no noise parameter to schedule")

    family = pr.get("family", "gaussian")
    _require(family in PRIOR_FAMILIES, "prior.family",
             f"unknown prior family {family!r}; known: {', '.join(PRIOR_FAMILIES)}")

    fkind = fl.get("kind", _default_filter_kind(kind))
    _require(fkind in FILTER_KINDS, "filter.kind",
             f"unknown filter kind {fkind!r}; known: {', '.join(FILTER_KINDS)}")
    if fkind == "kalman":
        _require(kind == "linear-gaussian", "filter.kind",
                 "the Kalman representation is exact only for the linear-gaussian channel")
        _require(family == "gaussian", "filter.kind",
                 "the Kalman representation needs a gaussian prior")

    mode = ctl.get("mode", "predict")
    _require(mode in CONTROLLER_MODES, "controller.mode",
             f"unknown controller mode {mode!r}; known: {', '.join(CONTROLLER_MODES)}")
    design = ctl.get("design", "lqr")
    _require(design in GAIN_DESIGNS, "controller.design",
             f"unknown gain design {design!r}; known: {', '.join(GAIN_DESIGNS)}")

    horizon = int(run.get("horizon", 100))
    _require(horizon >= 1, "run.horizon", "horizon must be >= 1")
    runs = int(run.get("runs", 1))
    _require(runs >= 1, "run.runs", "runs must be >= 1")
    tail = int(run.get("tail_window", max(1, horizon // 4)))
    _require(horizon >= 2 * tail, "run.tail_window",
             f"horizon {horizon} must be at least twice the tail window {tail}")

    formats = cfg.outputs.get("formats", ["csv", "json"])
    for f in formats:
        _require(f in ("csv", "json"), "outputs.formats", f"unknown format {f!r}")


def _default_filter_kind(channel_kind: str) -> str:
    return "kalman" if channel_kind == "linear-gaussian" else "grid"


# ---------------------------------------------------------------------------
# builders


def build_model(cfg: ExperimentConfig) -> SystemModel:
    A = np.atleast_2d(np.asarray(cfg.system["A"], dtype=float))
    B = np.asarray(cfg.system.get("B", np.eye(A.shape[0])), dtype=float)
    return SystemModel(A, B, allow_stable=bool(cfg.system.get("allow_stable", False)))


def build_channel(cfg: ExperimentConfig):
    ch = dict(cfg.channel)
    kind = ch.pop("kind", "linear-gaussian")
    ch.pop("schedule", None)
    ch.pop("extension", None)
    params = {}
    if kind == "linear-gaussian":
        params["C"] = ch.get("C", [[1.0]])
        params["R"] = ch.get("R", [[1.0]])
    elif kind == "tanh-gaussian":
        params["scale"] = ch.get("scale", 1.0)
        params["R"] = ch.get("R", [[ch.get("r", 1.0)]])
    elif kind == "cubic-gaussian":
        params["R"] = ch.get("R", [[ch.get("r", 1.0)]])
    elif kind == "sign-quantizer":
        params["levels"] = int(ch.get("levels", 2))
        params["dim"] = int(ch.get("dim", 1))
    elif kind == "modulo-gaussian":
        params["period"] = ch.get("period", 1.0)
        params["r"] = ch.get("r", 0.04)
        params["dim"] = int(ch.get("dim", 1))
    return make_channel(kind, **params)


def build_prior(cfg: ExperimentConfig, n_u: int):
    pr = dict(cfg.prior)
    family = pr.pop("family", "gaussian")
    if family == "gaussian":
        mean = pr.get("mean", [0.0] * n_u)
        cov = pr.get("cov", np.eye(n_u).tolist())
        return make_prior("gaussian", mean=mean, cov=cov)
    return make_prior(family, **pr)


def build_grid_spec(cfg: ExperimentConfig) -> GridSpec:
    fl = cfg.filter
    return GridSpec(
        half_width_stds=float(fl.get("half_width_stds", 8.0)),
        cells_per_std=int(fl.get("cells_per_std", 24)),
        max_cells=int(fl.get("max_cells", 2**20)),
    )


def build_context(cfg: ExperimentConfig) -> RunContext:
    from .loop import tracked_block

    model = build_model(cfg)
    cond_cap = float(cfg.system.get("cond_cap", 1e8))
    decomp = decompose(model, cond_cap=cond_cap)
    channel = build_channel(cfg)
    prior = build_prior(cfg, tracked_block(decomp).n_u)
    fkind = cfg.filter.get("kind", _default_filter_kind(channel.kind))

    ctl = cfg.controller
    mode = ctl.get("mode", "predict")
    gain = None
    if mode != "none" and decomp.n_u > 0:
        gain = design_gain(
            decomp,
            method=ctl.get("design", "lqr"),
            q=ctl.get("q"),
            r=ctl.get("r"),
            poles=ctl.get("poles"),
            target_pole=float(ctl.get("target_pole", 0.0)),
        )

    sched = cfg.channel.get("schedule")
    gamma = float(sched["gamma"]) if sched else None

    return RunContext(
        model=model,
        decomp=decomp,
        channel=channel,
        prior=prior,
        filter_kind=fkind,
        gain=gain,
        controller_mode=mode,
        horizon=int(cfg.run.get("horizon", 100)),
        grid_spec=build_grid_spec(cfg),
        n_particles=int(cfg.filter.get("particles", 2**14)),
        noise_gamma=gamma,
        divergence_guard=float(cfg.run.get("divergence_guard", 1e12)),
    )


def default_thresholds(cfg: ExperimentConfig, ctx: RunContext):
    """Bound thresholds: explicit config values win; otherwise 10x the
    analytic Kalman floor when the baseline is scalar linear-gaussian,
    else 10x the initial second moment."""
    from .loop import OutcomeThresholds

    run = cfg.run
    horizon = ctx.horizon
    tail = int(run.get("tail_window", max(1, horizon // 4)))
    prior_cov = np.atleast_2d(ctx.prior.cov)
    init_sq = float(np.trace(prior_cov) + ctx.prior.mean @ ctx.prior.mean)

    floor = None
    if ctx.channel.kind == "linear-gaussian" and ctx.decomp.n_u == 1:
        a = float(ctx.decomp.A_u[0, 0])
        r = float(ctx.channel.R[0, 0])
        if abs(a) > 1:
            floor = kalman_error_floor(abs(a), r)
    bound_error = float(run.get("bound_error", 10.0 * floor if floor else 10.0 * init_sq))
    bound_state = float(run.get("bound_state", 10.0 * init_sq))
    return OutcomeThresholds(
        bound_state=bound_state,
        bound_error=bound_error,
        zero_threshold=float(run.get("zero_threshold", 1e-3)),
        tail_window=tail,
    )
