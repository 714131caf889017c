"""Experiment configuration: a small sectioned key-value text format.

Grammar (documented in the README):

    # comment                      blank lines and #-comments ignored
    experiment = "name"            top-level keys before any section
    [section]                      sections: system, channel, prior,
    key = value                    filter, controller, run, outputs

Values are JSON fragments; a bare unquoted token is taken as a string.
Each key takes the one type KEY_TYPES gives it, so a quoted "0.5" is a
string, not a number. Parsing stops at the first error and reports the
offending line; validation reports the dotted field path of the first bad
field.

system, run and outputs take fixed keys; channel, prior, filter and
controller take their selector keys plus those of the selected kind, its
constructor's parameters. Any other key is an error. Builders pass on only
the keys a config sets, so every default lives in its constructor.
"""

import inspect
import json
import sys
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .channels import CHANNELS
from .errors import ParseError, ValidationError
from .filters import MIN_PARTICLES, GridSpec
from .loop import DEFAULT_HORIZON, OutcomeThresholds, RunContext, kalman_error_floor, tracked_block
from .priors import PRIORS, GaussianPrior
from .system import GAIN_DESIGNS, SystemModel, decompose, design_gain

SECTIONS = ("system", "channel", "prior", "filter", "controller", "run", "outputs")

CHANNEL_KINDS = tuple(CHANNELS)
PRIOR_FAMILIES = tuple(PRIORS)
CONTROLLER_MODES = ("none", "predict", "update")


def kind_keys(factory) -> dict:
    """A kind's config keys mapped to whether each is required: the
    parameters its constructor takes by position or keyword. The builder
    supplies the positional-only and keyword-only ones."""
    return {
        name: p.default is p.empty
        for name, p in inspect.signature(factory).parameters.items()
        if p.kind is p.POSITIONAL_OR_KEYWORD
    }


FILTER_KEYS = {"kalman": {}, "grid": kind_keys(GridSpec), "particle": {"particles": False}}
FILTER_KINDS = tuple(FILTER_KEYS)

# the keys of a kinded section that select its kind, not the kind's own
_SELECTOR_KEYS = {
    "channel": ("kind",),
    "prior": ("family",),
    "filter": ("kind",),
    "controller": ("mode", "design"),
}
# Every key's type, by section ("" holds the top-level keys): bool is a
# switch (true or false), int a whole number, float a number, str a string
# and list a matrix (a number or a list of matrices). The sections with no
# kind take exactly these keys; a kinded section takes its selector keys and
# those of its kind, each listed here.
KEY_TYPES = {
    "": {"experiment": str},
    "system": {"A": list, "B": list, "allow_stable": bool, "cond_cap": float},
    "channel": {"kind": str, "C": list, "R": list, "gamma": float, "scale": float,
                "levels": int, "dim": int, "period": float, "r": float},
    "prior": {"family": str, "mean": list, "cov": list, "df": float, "scale": float,
              "rate": float, "low": float, "high": float},
    "filter": {"kind": str, "half_width_stds": float, "cells_per_std": int, "max_cells": int,
               "particles": int},
    "controller": {"mode": str, "design": str, "q": list, "r": list, "target_pole": float,
                   "poles": list},
    "run": {"horizon": int, "runs": int, "seed": int, "divergence_guard": float,
            "tail_window": int, "bound_state": float, "bound_error": float,
            "zero_threshold": float, "audit": bool, "audit_window": int, "kappa_cap": float},
    "outputs": {"dir": str, "svg": bool, "debug_beliefs": bool},
}
_TYPE_NAMES = {bool: "true or false", int: "a whole number", float: "a number",
               str: "a string", list: "a matrix of numbers"}
_FIXED_SECTIONS = ("", "system", "run", "outputs")
# the RunContext field each key sets, cast to the key's type; unset keys
# keep the field's default
_CONTEXT_FIELDS = {
    ("run", "horizon"): "horizon",
    ("run", "divergence_guard"): "divergence_guard",
    ("run", "audit"): "collect_audits",
    ("run", "audit_window"): "audit_window",
    ("run", "kappa_cap"): "kappa_cap",
    ("filter", "particles"): "n_particles",
    ("outputs", "debug_beliefs"): "collect_beliefs",
}


@dataclass
class ExperimentConfig:
    """Validated experiment description: each section's keys as written.
    Defaults are never filled in; they stay with the constructors."""

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
        return {"experiment": self.experiment, **{s: getattr(self, s) for s in SECTIONS}}


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
    sections = {name: {} for name in SECTIONS}
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
            if name not in SECTIONS:
                raise ParseError(
                    f"unknown section [{name}]; known: {', '.join(SECTIONS)}",
                    line=line_no,
                )
            current = name
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line=line_no)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        dotted = f"{current}.{key}" if current else key
        known = KEY_TYPES[current]
        if current in _FIXED_SECTIONS and key not in known:
            raise ParseError(
                f"unknown key {dotted!r}; known: {', '.join(sorted(known))}",
                line=line_no,
            )
        table = sections[current] if current else top
        if key in table:
            raise ParseError(f"key {dotted!r} is set twice", line=line_no)
        table[key] = _parse_value(raw_value, line_no)

    cfg = ExperimentConfig(experiment=top.get("experiment", "unnamed"), source_text=text,
                           **sections)
    validate_config(cfg)
    return cfg


def _require(cond, field_path, message):
    if not cond:
        raise ValidationError(message, field=field_path)


class _Kinds(NamedTuple):
    channel: str
    prior: str
    filter: str
    mode: str
    design: str


def _kinds(cfg: ExperimentConfig) -> _Kinds:
    """The kind each section selects, its default if the config names none."""
    channel_kind = cfg.channel.get("kind", "linear-gaussian")
    return _Kinds(
        channel_kind,
        cfg.prior.get("family", "gaussian"),
        cfg.filter.get("kind", "kalman" if channel_kind == "linear-gaussian" else "grid"),
        cfg.controller.get("mode", "predict"),
        cfg.controller.get("design", "lqr"),
    )


def _params(cfg: ExperimentConfig, section: str) -> dict:
    """The keys a section sets for its kind: all but its selector keys."""
    return {k: v for k, v in getattr(cfg, section).items() if k not in _SELECTOR_KEYS[section]}


def _check_keys(cfg: ExperimentConfig, section: str, keys: dict, what: str) -> None:
    """Reject a key of the section that `what` does not take, and a
    required key it leaves out."""
    for key in _params(cfg, section):
        _require(key in keys, f"{section}.{key}",
                 f"{what} takes no key {key!r} (its keys: {', '.join(keys) or 'none'})")
    for key, required in keys.items():
        _require(not required or key in getattr(cfg, section), f"{section}.{key}",
                 f"{what} needs {key!r}")


def _is_a(value, kind) -> bool:
    """Whether a parsed JSON value has the key type `kind`. A number is a
    JSON number: never true or false, a quoted number or NaN; Infinity is
    infinity. A whole number may be written with a zero fraction."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if kind is int:
        return isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if kind is float:  # and within float range, as float() needs
        return (isinstance(value, float) and value == value
                or isinstance(value, int) and abs(value) <= sys.float_info.max)
    if kind is list:
        return _is_a(value, float) or (
            isinstance(value, list) and all(_is_a(v, list) for v in value))
    return isinstance(value, kind)


def _float_array(value, field_path) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except ValueError:  # a ragged matrix
        raise ValidationError(f"expected a matrix of numbers, got {value!r}",
                              field=field_path) from None


def _tail_window(run: dict, horizon: int) -> int:
    return int(run.get("tail_window", max(1, horizon // 4)))


def validate_config(cfg: ExperimentConfig) -> None:
    sys_c, ctl, run = cfg.system, cfg.controller, cfg.run
    kind, family, fkind, mode, design = _kinds(cfg)

    _require(kind in CHANNEL_KINDS, "channel.kind",
             f"unknown channel kind {kind!r}; known: {', '.join(CHANNEL_KINDS)}")
    _check_keys(cfg, "channel", kind_keys(CHANNELS[kind]), f"channel kind {kind!r}")

    _require(family in PRIOR_FAMILIES, "prior.family",
             f"unknown prior family {family!r}; known: {', '.join(PRIOR_FAMILIES)}")
    _check_keys(cfg, "prior", kind_keys(PRIORS[family]), f"prior family {family!r}")

    _require(fkind in FILTER_KINDS, "filter.kind",
             f"unknown filter kind {fkind!r}; known: {', '.join(FILTER_KINDS)}")
    _check_keys(cfg, "filter", FILTER_KEYS[fkind], f"filter kind {fkind!r}")
    if fkind == "kalman":
        _require(kind == "linear-gaussian", "filter.kind",
                 "the Kalman representation is exact only for the linear-gaussian channel")
        _require(family == "gaussian", "filter.kind",
                 "the Kalman representation needs a gaussian prior")

    _require(mode in CONTROLLER_MODES, "controller.mode",
             f"unknown controller mode {mode!r}; known: {', '.join(CONTROLLER_MODES)}")
    if mode == "none":
        _require("design" not in ctl, "controller.design",
                 "mode 'none' applies no control, so it takes no gain design")
        _check_keys(cfg, "controller", {}, "controller mode 'none'")
    else:
        _require(design in tuple(GAIN_DESIGNS), "controller.design",
                 f"unknown gain design {design!r}; known: {', '.join(GAIN_DESIGNS)}")
        _check_keys(cfg, "controller", kind_keys(GAIN_DESIGNS[design]),
                    f"gain design {design!r}")

    # every key the kinds above left is in KEY_TYPES; a fixed section's
    # other keys are unknown
    for section, values in (("", {"experiment": cfg.experiment}),
                            *((s, getattr(cfg, s)) for s in SECTIONS)):
        types = KEY_TYPES[section]
        for key, value in values.items():
            where = f"{section}.{key}" if section else key
            _require(key in types, where, f"unknown key; known: {', '.join(sorted(types))}")
            _require(_is_a(value, types[key]), where,
                     f"expected {_TYPE_NAMES[types[key]]}, got {value!r}")

    _require("A" in sys_c, "system.A", "system matrix A is required")
    A = np.atleast_2d(_float_array(sys_c["A"], "system.A"))
    _require(A.shape[0] == A.shape[1], "system.A", "A must be square")
    n = A.shape[0]
    if "B" in sys_c:
        B = _float_array(sys_c["B"], "system.B")
        _require(B.ndim in (1, 2) and B.shape[0] == n, "system.B", f"B must have {n} rows")

    _require(run.get("seed", 0) >= 0, "run.seed",
             f"the seed must be >= 0, got {run.get('seed')!r}")
    horizon = int(run.get("horizon", DEFAULT_HORIZON))
    _require(horizon >= 1, "run.horizon", "horizon must be >= 1")
    _require(run.get("runs", 1) >= 1, "run.runs", "runs must be >= 1")
    _require(run.get("tail_window", 1) >= 1, "run.tail_window", "the tail window must be >= 1")
    _require(run.get("audit_window", 1) >= 1, "run.audit_window", "the audit window must be >= 1")
    _require(run.get("divergence_guard", 1) > 0, "run.divergence_guard",
             "the divergence guard must be positive (Infinity for none)")
    _require(cfg.filter.get("particles", MIN_PARTICLES) >= MIN_PARTICLES, "filter.particles",
             f"the kNN entropy estimate needs at least {MIN_PARTICLES} particles")
    tail = _tail_window(run, horizon)
    _require(horizon >= 2 * tail, "run.tail_window",
             f"horizon {horizon} must be at least twice the tail window {tail}")


# ---------------------------------------------------------------------------
# builders: each passes on only the keys the config sets, so the defaults
# are the constructors' and RunContext's


def _given(section: dict, **casts) -> dict:
    """{key: cast(value)} for each key of `casts` that the section sets."""
    return {k: cast(section[k]) for k, cast in casts.items() if k in section}


def _construct(section: str, factory, *args, **params):
    """factory(*args, **params); a value of the wrong type or out of range
    is re-raised as a ValidationError naming the section."""
    try:
        return factory(*args, **params)
    except (TypeError, ValueError) as exc:
        raise ValidationError(str(exc), field=section) from exc


def build_system(cfg: ExperimentConfig) -> tuple:
    """The configured plant and its mode decomposition."""
    A = np.atleast_2d(np.asarray(cfg.system["A"], dtype=float))
    B = np.asarray(cfg.system.get("B", np.eye(A.shape[0])), dtype=float)
    model = SystemModel(A, B, allow_stable=cfg.system.get("allow_stable", False))
    return model, decompose(model, **_given(cfg.system, cond_cap=float))


def build_channel(cfg: ExperimentConfig):
    return _construct("channel", CHANNELS[_kinds(cfg).channel], **_params(cfg, "channel"))


def build_prior(cfg: ExperimentConfig, n_u: int):
    """The configured prior; a gaussian one is N(0, I) over the n_u tracked
    modes unless the config sets its mean or covariance."""
    cls = PRIORS[_kinds(cfg).prior]
    context = {"dim": n_u} if cls is GaussianPrior else {}
    return _construct("prior", cls, **context, **_params(cfg, "prior"))


def build_context(cfg: ExperimentConfig) -> RunContext:
    model, decomp = build_system(cfg)
    n_u = tracked_block(decomp).n_u
    kinds = _kinds(cfg)

    channel = build_channel(cfg)
    dim_key = next(k for k in ("C", "dim", "R") if k in kind_keys(type(channel)))
    _require(channel.state_dim == n_u, f"channel.{dim_key}",
             f"the channel observes a state of length {channel.state_dim}, "
             f"but the filter tracks {n_u} modes")
    prior = build_prior(cfg, n_u)
    _require(prior.dim == n_u, "prior.mean" if "mean" in cfg.prior else "prior.family",
             f"the prior has dimension {prior.dim}, but the filter tracks {n_u} modes")

    gain = None
    if kinds.mode != "none" and decomp.n_u > 0:
        gain = _construct("controller", design_gain, decomp, kinds.design,
                          **_params(cfg, "controller"))
    for key in cfg.controller:
        _require(key == "mode" or gain is not None, f"controller.{key}",
                 "the plant has no unstable mode, so no gain is designed")

    options = {
        name: KEY_TYPES[section][key](getattr(cfg, section)[key])
        for (section, key), name in _CONTEXT_FIELDS.items()
        if key in getattr(cfg, section)
    }
    if kinds.filter == "grid":
        options["grid_spec"] = _construct("filter", GridSpec, **_params(cfg, "filter"))
    return RunContext(
        model=model,
        decomp=decomp,
        channel=channel,
        prior=prior,
        filter_kind=kinds.filter,
        gain=gain,
        controller_mode=kinds.mode,
        **options,
    )


def default_thresholds(cfg: ExperimentConfig, ctx: RunContext):
    """Bound thresholds: explicit config values win; otherwise 10x the
    analytic Kalman floor when the baseline is scalar linear-gaussian,
    else 10x the initial second moment."""
    run = cfg.run
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
        tail_window=_tail_window(run, ctx.horizon),
        **_given(run, zero_threshold=float),
    )
