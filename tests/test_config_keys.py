"""Every config key is honoured or rejected.

A kinded section (channel, prior, filter, controller) takes its selector
keys plus the keys of the chosen kind, which are that kind's constructor
parameters. Every key has one type in `config.KEY_TYPES`. A stray key, a
missing required key, a value of another type and a constructor value out
of range each give a ValidationError naming the field, and `sensebound
run` exits 1 with an `error:` line instead of a traceback.
"""

import dataclasses
import json
import re
import typing
from pathlib import Path

import pytest

from sensebound.channels import CHANNELS
from sensebound.cli import main
from sensebound.config import (
    _CONTEXT_FIELDS, _SELECTOR_KEYS, FILTER_KEYS, KEY_TYPES, build_context, kind_keys,
    parse_config, validate_config,
)
from sensebound.errors import ParseError, ValidationError
from sensebound.loop import RunContext
from sensebound.priors import PRIORS
from sensebound.report import run_experiment, set_config_value
from sensebound.system import GAIN_DESIGNS

BASE = {
    "system": "A = [[2.0]]",
    "channel": 'kind = "linear-gaussian"',
    "prior": 'family = "gaussian"',
    "filter": 'kind = "kalman"',
    "controller": 'mode = "predict"',
    "run": "horizon = 20\nruns = 2\nseed = 7",
}


def config_text(**sections) -> str:
    merged = {**BASE, **sections}
    return 'experiment = "keys"\n' + "".join(f"[{k}]\n{v}\n" for k, v in merged.items())


TANH = 'kind = "tanh-gaussian"\nR = [[0.01]]'
GRID = 'kind = "grid"'

REJECTED = [
    ("tanh-C", dict(channel=TANH + "\nC = [[1.0]]", filter=GRID), "channel.C"),
    ("linear-levels", dict(channel='kind = "linear-gaussian"\nlevels = 4'), "channel.levels"),
    ("tanh-r", dict(channel='kind = "tanh-gaussian"\nr = 0.01', filter=GRID), "channel.r"),
    ("gaussian-df", dict(prior='family = "gaussian"\ndf = 5'), "prior.df"),
    ("laplace-mean", dict(prior='family = "laplace"\nmean = [0.0]', filter=GRID), "prior.mean"),
    ("student-t-no-df", dict(prior='family = "student-t"', filter=GRID), "prior.df"),
    ("grid-particles", dict(filter=GRID + "\nparticles = 1024"), "filter.particles"),
    ("kalman-cells", dict(filter='kind = "kalman"\ncells_per_std = 12'), "filter.cells_per_std"),
    ("lqr-target-pole", dict(controller='design = "lqr"\ntarget_pole = 0.5'),
     "controller.target_pole"),
    ("none-design", dict(controller='mode = "none"\ndesign = "lqr"'), "controller.design"),
    ("place-no-poles", dict(controller='design = "place"'), "controller.poles"),
    ("laplace-loc", dict(prior='family = "laplace"\nloc = 0.5', filter=GRID), "prior.loc"),
    ("design-list", dict(controller='design = ["lqr"]'), "controller.design"),
    ("extension-no-schedule", dict(channel='kind = "sign-quantizer"\nextension = true',
                                   filter=GRID), "channel.extension"),
    ("quantizer-gamma", dict(channel='kind = "sign-quantizer"\ngamma = 0.5', filter=GRID),
     "channel.gamma"),
]


@pytest.mark.parametrize("sections, field", [c[1:] for c in REJECTED],
                         ids=[c[0] for c in REJECTED])
def test_stray_or_missing_key_names_field(sections, field):
    with pytest.raises(ValidationError) as err:
        parse_config(config_text(**sections))
    assert err.value.field == field


def test_each_kind_takes_its_own_keys():
    """The rejected keys are accepted by the kinds that read them."""
    accepted = [
        dict(channel=TANH + "\nscale = 2.0", filter=GRID),
        dict(channel='kind = "sign-quantizer"\nlevels = 4', filter=GRID),
        dict(channel=TANH + "\ngamma = 0.9", filter=GRID),
        dict(channel='kind = "modulo-gaussian"\ngamma = 1', filter=GRID),
        dict(prior='family = "student-t"\ndf = 5', filter=GRID),
        dict(filter='kind = "particle"\nparticles = 64'),
        dict(filter=GRID + "\ncells_per_std = 12"),
        dict(controller='design = "deadbeat"\ntarget_pole = 0.5'),
        dict(controller='design = "place"\npoles = [0.5]'),
        dict(controller='mode = "none"'),
    ]
    for sections in accepted:
        build_context(parse_config(config_text(**sections)))


def test_design_keys_need_an_unstable_mode():
    stable = dict(system="A = [[0.5]]\nallow_stable = true")
    build_context(parse_config(config_text(**stable)))
    cfg = parse_config(config_text(**stable, controller='design = "deadbeat"\ntarget_pole = 0.9'))
    with pytest.raises(ValidationError) as err:
        build_context(cfg)
    assert err.value.field == "controller.design"


def test_swept_key_is_validated():
    cfg = parse_config(config_text())
    set_config_value(cfg, "run.foo", 1)
    with pytest.raises(ValidationError) as err:
        validate_config(cfg)
    assert err.value.field == "run.foo"


def run_cli(tmp_path, text, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "b"), "--workers", "1"])
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "sections, field",
    [
        (dict(prior='family = "uniform"\nlow = 1.0\nhigh = 0.5', filter=GRID), "prior"),
        (dict(prior='family = "student-t"\ndf = 2', filter=GRID), "prior"),
        (dict(channel='kind = "sign-quantizer"\nlevels = 1', filter=GRID), "channel"),
        (dict(channel='kind = "modulo-gaussian"\nperiod = 0', filter=GRID), "channel"),
        (dict(channel='kind = "linear-gaussian"\ngamma = 0'), "channel"),
        (dict(channel='kind = "linear-gaussian"\ngamma = 1.5'), "channel"),
    ],
    ids=["uniform-high-le-low", "student-t-df-le-2", "quantizer-one-level", "modulo-period-0",
         "gamma-0", "gamma-1.5"],
)
def test_out_of_range_value_exits_one(tmp_path, capsys, sections, field):
    code, err = run_cli(tmp_path, config_text(**sections), capsys)
    assert code == 1
    assert err.startswith(f"error: {field}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("line", ['schedule = {"gamma": 0.5}', "extension = true",
                                  'schedule = {"gamma": 0.5, "gama": 0.1, "floor": 3}'],
                         ids=["schedule", "extension", "schedule-stray-fields"])
def test_schedule_and_extension_keys_exit_one(tmp_path, capsys, line):
    """The noise schedule is the channel's `gamma`: the keys that once
    spelled it are stray keys, named in the error, whatever they hold."""
    key = line.split(" =")[0]
    code, err = run_cli(tmp_path, config_text(channel=f'{BASE["channel"]}\n{line}'), capsys)
    assert code == 1
    assert err.startswith(f"error: channel.{key}: ")
    assert f"takes no key {key!r}" in err
    assert "Traceback" not in err


def boolean_key_sections(field, value):
    """Config sections that set the boolean key `field` to `value`."""
    section, key = field.split(".")
    sections = {
        "system": f"{BASE['system']}\n{key} = {value}",
        "run": f"{BASE['run']}\n{key} = {value}",
        "outputs": f"{key} = {value}",
    }
    return {section: sections[section]}


BOOLEAN_KEYS = ("system.allow_stable", "run.audit", "outputs.debug_beliefs")


@pytest.mark.parametrize("value", ['"false"', "no", "0"])
@pytest.mark.parametrize("field", BOOLEAN_KEYS)
def test_boolean_key_takes_only_true_or_false(tmp_path, capsys, field, value):
    """A quoted "false", a bare token or a number is an error, not `on`."""
    text = config_text(**boolean_key_sections(field, value))
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.field == field
    code, err = run_cli(tmp_path, text, capsys)
    assert code == 1
    assert err.startswith(f"error: {field}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("field", BOOLEAN_KEYS)
def test_boolean_key_accepts_true_and_false(field):
    section, key = field.split(".")
    for value in (True, False):
        cfg = parse_config(config_text(**boolean_key_sections(field, json.dumps(value))))
        assert getattr(cfg, section)[key] is value
        build_context(cfg)
    off = parse_config(config_text(run=f"{BASE['run']}\naudit = false"))
    assert build_context(off).collect_audits is False


# a kind's key set to "{}", in the sections that select that kind
KINDED_KEYS = {
    "channel.R": dict(channel='kind = "linear-gaussian"\nR = {}'),
    "channel.C": dict(channel='kind = "linear-gaussian"\nC = {}'),
    "channel.scale": dict(channel=TANH + "\nscale = {}", filter=GRID),
    "prior.cov": dict(prior='family = "gaussian"\ncov = {}'),
    "filter.half_width_stds": dict(channel=TANH, filter=GRID + "\nhalf_width_stds = {}"),
    "controller.q": dict(controller='design = "lqr"\nq = {}'),
    "controller.target_pole": dict(controller='design = "deadbeat"\ntarget_pole = {}'),
}


@pytest.mark.parametrize("value", ["true", "[[true]]"])
@pytest.mark.parametrize("field", KINDED_KEYS)
def test_true_or_false_only_in_a_switch_key(tmp_path, capsys, field, value):
    """JSON true is not the number 1 anywhere in a value, nested lists
    included: a kind's key holding it is an error naming the key, not a run
    with 1.0 that records true."""
    text = config_text(**{s: v.format(value) for s, v in KINDED_KEYS[field].items()})
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.field == field
    code, err = run_cli(tmp_path, text, capsys)
    assert code == 1
    assert err.startswith(f"error: {field}: ")
    assert "Traceback" not in err


# the first key each section sets in config_text, and another value for it
DUPLICATED = {
    "system": ("A", "[[3.0]]"),
    "channel": ("kind", '"tanh-gaussian"'),
    "prior": ("family", '"laplace"'),
    "filter": ("kind", '"grid"'),
    "controller": ("mode", '"update"'),
    "run": ("horizon", "30"),
    "outputs": ("debug_beliefs", "true"),
}


def duplicated_text(section: str) -> tuple:
    """(config text that sets one key of `section` twice, the key's dotted
    name, the line of its second setting): the new value goes right under
    the header, so the section's own first line comes second."""
    if section == "":
        text = config_text().replace("\n", '\nexperiment = "again"\n', 1)
        return text, "experiment", 2
    key, value = DUPLICATED[section]
    sections = {"outputs": "debug_beliefs = false"} if section == "outputs" else {}
    text = config_text(**sections).replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    return text, f"{section}.{key}", text.splitlines().index(f"[{section}]") + 3


@pytest.mark.parametrize("section", ["", *DUPLICATED])
def test_key_set_twice_is_rejected(tmp_path, capsys, section):
    """The first value would be neither honoured nor rejected, so a second
    setting of a key is a parse error naming the key and its line."""
    text, dotted, line = duplicated_text(section)
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert err.value.line == line
    assert f"{dotted!r} is set twice" in str(err.value)
    code, err = run_cli(tmp_path, text, capsys)
    assert code == 1
    assert err.startswith(f"error: line {line}: ")


def test_key_set_again_under_a_repeated_header_is_rejected():
    text = config_text() + "[run]\nseed = 8\n"
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert err.value.line == len(text.splitlines())
    assert "'run.seed' is set twice" in str(err.value)
    # a repeated header that sets new keys is still one section
    cfg = parse_config(config_text() + "[run]\ntail_window = 5\n")
    assert cfg.run["seed"] == 7 and cfg.run["tail_window"] == 5


def test_channel_must_observe_the_tracked_modes(tmp_path, capsys):
    """C acts on the unstable modes: one here, not the two plant states."""
    text = config_text(
        system="A = [[2.0, 0.0], [0.0, 0.5]]",
        channel='kind = "linear-gaussian"\nC = [[1.0, 0.0]]\nR = [[1.0]]',
    )
    code, err = run_cli(tmp_path, text, capsys)
    assert code == 1
    assert err.startswith("error: channel.C: ")


# each integer key with a whole value it accepts
INTEGER_KEYS = {
    "run.horizon": 20, "run.runs": 2, "run.seed": 7, "run.tail_window": 5,
    "run.audit_window": 10, "filter.particles": 64, "filter.cells_per_std": 12,
    "channel.levels": 4, "channel.dim": 1,
}


# the sections that let each number key be set, "{}" standing for its value
NUMBER_KEY_SECTIONS = {
    "channel.gamma": dict(channel='kind = "linear-gaussian"\ngamma = {}'),
    "channel.scale": dict(channel=TANH + "\nscale = {}", filter=GRID),
    "channel.levels": dict(channel='kind = "sign-quantizer"\nlevels = {}', filter=GRID),
    "channel.dim": dict(channel='kind = "sign-quantizer"\ndim = {}', filter=GRID),
    "channel.period": dict(channel='kind = "modulo-gaussian"\nperiod = {}', filter=GRID),
    "channel.r": dict(channel='kind = "modulo-gaussian"\nr = {}', filter=GRID),
    "prior.df": dict(prior='family = "student-t"\ndf = {}', filter=GRID),
    "prior.scale": dict(prior='family = "laplace"\nscale = {}', filter=GRID),
    "prior.rate": dict(prior='family = "exponential"\nrate = {}', filter=GRID),
    "prior.low": dict(prior='family = "uniform"\nlow = {}', filter=GRID),
    "prior.high": dict(prior='family = "uniform"\nhigh = {}', filter=GRID),
    "filter.half_width_stds": dict(filter=GRID + "\nhalf_width_stds = {}"),
    "filter.cells_per_std": dict(filter=GRID + "\ncells_per_std = {}"),
    "filter.particles": dict(filter='kind = "particle"\nparticles = {}'),
    "controller.target_pole": dict(controller='design = "deadbeat"\ntarget_pole = {}'),
    **{f"run.{key}": dict(run="\n".join(
        [*(line for line in BASE["run"].splitlines() if not line.startswith(f"{key} =")),
         f"{key} = {{}}"]))
       for key, kind in KEY_TYPES["run"].items() if kind in (int, float)},
}


def number_key_text(field, value) -> str:
    """A config that sets the number key `field` to `value`."""
    return config_text(**{s: v.format(value) for s, v in NUMBER_KEY_SECTIONS[field].items()})


@pytest.mark.parametrize("bad", ["{}.5", "true", '"{}"', "[{}]"])
@pytest.mark.parametrize("field", INTEGER_KEYS)
def test_integer_key_takes_whole_numbers_only(tmp_path, capsys, field, bad):
    """A fraction is an error, not truncated; nor is true a 1."""
    text = number_key_text(field, bad.format(INTEGER_KEYS[field]))
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.field == field
    code, err = run_cli(tmp_path, text, capsys)
    assert code == 1
    assert err.startswith(f"error: {field}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("field", INTEGER_KEYS)
def test_integer_key_accepts_an_integral_float(field):
    whole = INTEGER_KEYS[field]
    summaries = []
    for value in (f"{whole}", f"{whole}.0"):
        cfg = parse_config(number_key_text(field, value))
        summary = run_experiment(cfg, write=False).summary
        summaries.append({k: v for k, v in summary.items() if k != "config"})
    assert summaries[0] == summaries[1]


MALFORMED = [
    ("A-not-numbers", dict(system="A = abc"), "system.A"),
    ("B-ragged", dict(system='A = [[2.0]]\nB = [[1.0], "x"]'), "system.B"),
    ("gamma-string", dict(channel='kind = "linear-gaussian"\ngamma = "x"'), "channel.gamma"),
    ("gamma-list", dict(channel='kind = "linear-gaussian"\ngamma = [1]'), "channel.gamma"),
    ("gamma-true", dict(channel='kind = "linear-gaussian"\ngamma = true'), "channel.gamma"),
]


@pytest.mark.parametrize("sections, field", [c[1:] for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_malformed_value_is_an_error_not_a_traceback(tmp_path, capsys, sections, field):
    code, err = run_cli(tmp_path, config_text(**sections), capsys)
    assert code == 1
    assert err.startswith(f"error: {field}: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("line", ['formats = ["csv"]', 'formats = "csv"'],
                         ids=["formats-list", "formats-string"])
def test_formats_is_a_stray_outputs_key(tmp_path, capsys, line):
    """Every bundle holds its run CSVs, outcomes.csv and summary.json, so
    `formats` is an unknown outputs key, whatever it holds, with no alias."""
    text = config_text(outputs=line)
    line_no = text.splitlines().index(line) + 1
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert err.value.line == line_no and "unknown key 'outputs.formats'" in str(err.value)
    code, err = run_cli(tmp_path, text, capsys)
    assert code == 1
    assert err.startswith(f"error: line {line_no}: unknown key 'outputs.formats'"), err
    assert "Traceback" not in err
    cfg = parse_config(config_text())
    set_config_value(cfg, "outputs.formats", ["csv"])
    with pytest.raises(ValidationError) as err:
        validate_config(cfg)
    assert err.value.field == "outputs.formats"


def test_number_key_tables_cover_every_number_key():
    def typed(kind):
        return {f"{section}.{key}" for section, types in KEY_TYPES.items()
                for key, k in types.items() if k is kind}

    assert set(INTEGER_KEYS) == typed(int)
    assert set(NUMBER_KEY_SECTIONS) == typed(int) | typed(float)


FLOAT_KEYS = [f for f in NUMBER_KEY_SECTIONS if f not in INTEGER_KEYS]


@pytest.mark.parametrize("field", FLOAT_KEYS)
def test_number_key_rejects_a_quoted_number(tmp_path, capsys, field):
    """A number is a JSON number: "2" is a string, an error naming the key,
    never a 2 that summary.json records as "2". (A whole-number key's
    quoted value is a case of test_integer_key_takes_whole_numbers_only.)"""
    parse_config(number_key_text(field, "2"))
    text = number_key_text(field, '"2"')
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.field == field
    code, err = run_cli(tmp_path, text, capsys)
    assert code == 1
    assert err.startswith(f"error: {field}: expected a "), err
    assert "Traceback" not in err


def test_infinity_is_a_number_and_inf_and_nan_are_not(tmp_path, capsys):
    """JSON's Infinity is the one spelling of infinity; a bare inf is a
    string and NaN is no number."""
    text = config_text(run=f"{BASE['run']}\ndivergence_guard = Infinity")
    assert build_context(parse_config(text)).divergence_guard == float("inf")
    code, err = run_cli(tmp_path, text, capsys)
    assert (code, err) == (0, "")
    summary = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert summary["config"]["run"]["divergence_guard"] == float("inf")
    assert main(["report", "--bundle", str(tmp_path / "b")]) == 0
    for value in ("inf", "NaN"):
        with pytest.raises(ValidationError) as err:
            parse_config(config_text(run=f"{BASE['run']}\ndivergence_guard = {value}"))
        assert err.value.field == "run.divergence_guard"
    for key in ("horizon", "runs"):
        with pytest.raises(ValidationError) as err:
            parse_config(config_text(run=f"{key} = Infinity"))
        assert err.value.field == f"run.{key}"


def test_a_seed_of_any_size_parses():
    seed = 10**400  # past the largest float
    cfg = parse_config(config_text(run=f"horizon = 20\nruns = 2\nseed = {seed}"))
    assert cfg.run["seed"] == seed and type(cfg.run["seed"]) is int


@pytest.mark.parametrize("override, field", [
    (dict(runs=2.5), "run.runs"), (dict(horizon="30"), "run.horizon"),
    (dict(seed="7"), "run.seed"), (dict(runs=True), "run.runs"),
])
def test_run_experiment_override_is_checked_as_its_key(override, field):
    """An override is stored as given and checked like the config's own
    value, so 2.5 runs is an error, not 2 runs."""
    with pytest.raises(ValidationError) as err:
        run_experiment(parse_config(config_text()), write=False, **override)
    assert err.value.field == field


def test_every_key_has_one_type():
    """The fixed sections take exactly their typed keys, a kinded section's
    typed keys are its selector keys and its kinds' keys, and each key
    that sets a RunContext field has that field's type."""
    assert {s: set(KEY_TYPES[s]) for s in ("", "system", "run", "outputs")} == {
        "": {"experiment"},
        "system": {"A", "B", "allow_stable"},
        "run": {"horizon", "runs", "seed", "divergence_guard", "tail_window", "bound_state",
                "bound_error", "audit", "audit_window"},
        "outputs": {"dir", "debug_beliefs"},
    }
    kinds = {
        "channel": [kind_keys(c) for c in CHANNELS.values()],
        "prior": [kind_keys(c) for c in PRIORS.values()],
        "filter": list(FILTER_KEYS.values()),
        "controller": [kind_keys(f) for f in GAIN_DESIGNS.values()],
    }
    for section, keys in kinds.items():
        assert set(KEY_TYPES[section]) == {*_SELECTOR_KEYS[section], *(k for ks in keys for k in ks)}
    hints = typing.get_type_hints(RunContext)
    assert set(_CONTEXT_FIELDS.values()) <= {f.name for f in dataclasses.fields(RunContext)}
    for (section, key), name in _CONTEXT_FIELDS.items():
        assert KEY_TYPES[section][key] is hints[name], (section, key)
    assert {kind for types in KEY_TYPES.values() for kind in types.values()} == {
        bool, int, float, str, list}


@pytest.mark.parametrize("value", ["0", "-1", "Infinity"])
@pytest.mark.parametrize("family, key", [("student-t", "scale"), ("laplace", "scale"),
                                         ("exponential", "rate")])
def test_prior_scale_must_be_positive_and_finite(tmp_path, capsys, recwarn, family, key,
                                                 value):
    """A zero, negative or infinite scale is an error naming the prior, not
    a scipy warning and a degenerate grid, or a ZeroDivisionError."""
    df = "\ndf = 5" if family == "student-t" else ""
    text = config_text(prior=f'family = "{family}"{df}\n{key} = {value}', filter=GRID)
    code, err = run_cli(tmp_path, text, capsys)
    assert code == 1
    assert err.startswith(f"error: prior: need a positive finite {key}"), err
    assert "Traceback" not in err
    assert not recwarn.list


PARTICLE = 'kind = "particle"'
BELOW_FLOOR = [
    ("particles-0", dict(channel=TANH, filter=PARTICLE + "\nparticles = 0"), "filter.particles"),
    ("particles-4", dict(channel=TANH, filter=PARTICLE + "\nparticles = 4"), "filter.particles"),
    ("audit-window-0", dict(run=BASE["run"] + "\naudit = true\naudit_window = 0"),
     "run.audit_window"),
    ("tail-window-0", dict(run=BASE["run"] + "\ntail_window = 0"), "run.tail_window"),
    ("tail-window-negative", dict(run=BASE["run"] + "\ntail_window = -5"), "run.tail_window"),
    ("guard-negative", dict(run=BASE["run"] + "\ndivergence_guard = -1"),
     "run.divergence_guard"),
    ("guard-0", dict(run=BASE["run"] + "\ndivergence_guard = 0"), "run.divergence_guard"),
]


@pytest.mark.parametrize("sections, field", [c[1:] for c in BELOW_FLOOR],
                         ids=[c[0] for c in BELOW_FLOOR])
def test_value_below_its_floor_exits_one(tmp_path, capsys, sections, field):
    """Too few particles for the kNN entropy estimate (k = 4), an empty
    audit or tail window and a guard that is not positive are errors
    naming the key. Unchecked, they ended in a ZeroDivisionError or a
    ValueError traceback, or ran to exit 0 on a nonsense tail or with
    every run halted."""
    code, err = run_cli(tmp_path, config_text(**sections), capsys)
    assert code == 1
    assert err.startswith(f"error: {field}: "), err
    assert "Traceback" not in err
    assert not (tmp_path / "b").exists()


def test_values_at_their_floor_build():
    ctx = build_context(parse_config(config_text(
        channel=TANH, filter=PARTICLE + "\nparticles = 5",
        run=BASE["run"] + "\naudit = true\naudit_window = 1\ntail_window = 1"
                          "\ndivergence_guard = Infinity")))
    assert ctx.n_particles == 5 and ctx.audit_window == 1
    assert ctx.divergence_guard == float("inf")


TWO_MODES = config_text(
    system="A = [[2.0, 0.0], [0.0, 3.0]]",
    channel='kind = "linear-gaussian"\nC = [[1.0, 0.0], [0.0, 1.0]]\nR = [[1.0, 0.0], [0.0, 1.0]]',
    controller='design = "lqr"',
    run="horizon = 200\nruns = 2\nseed = 7",
)


def test_sweep_over_matrices(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(TWO_MODES)
    code = main([
        "sweep", "--config", str(path), "--param", "channel.R",
        "--values", "[[1.0, 0.0], [0.0, 1.0]],[[0.5, 0.0], [0.0, 0.5]]",
        "--out", str(tmp_path / "sw"), "--workers", "1",
    ])
    assert code == 0
    rows = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    assert [r["value"] for r in rows] == [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.0], [0.0, 0.5]]]
    assert rows[0]["tail_mean_err_sq"] != rows[1]["tail_mean_err_sq"]


@pytest.mark.parametrize("filter_section", ['kind = "kalman"', PARTICLE + "\nparticles = 64"],
                         ids=["kalman", "particle"])
@pytest.mark.parametrize("cov, message", [
    ("[[-1.0, 0.0], [0.0, -1.0]]", "cov must be positive definite"),
    ("[[1.0, 0.5], [0.0, 1.0]]", "cov must be symmetric"),
], ids=["negative-definite", "unsymmetric"])
def test_gaussian_prior_cov_must_be_symmetric_positive_definite(tmp_path, capsys, recwarn,
                                                                filter_section, cov, message):
    """A Gaussian prior's cov takes the check a channel's R takes. Unchecked,
    a negative definite cov drew particles from N(0, I), and an unsymmetric
    one ran as two different priors under the two filters."""
    text = TWO_MODES.replace('family = "gaussian"',
                             f'family = "gaussian"\nmean = [0.0, 0.0]\ncov = {cov}')
    text = text.replace('kind = "kalman"', filter_section)
    assert f"cov = {cov}" in text and filter_section in text
    code, err = run_cli(tmp_path, text, capsys)
    assert code == 1
    assert err == f"error: prior: {message}\n", err
    assert not recwarn.list
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("values", ["[1,", "", "1,,2"])
def test_malformed_sweep_values_are_usage_errors(tmp_path, capsys, values):
    path = tmp_path / "exp.cfg"
    path.write_text(config_text())
    code = main(["sweep", "--config", str(path), "--param", "channel.R", "--values", values,
                 "--out", str(tmp_path / "sw"), "--workers", "1"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_sweep_of_an_unread_key_fails_instead_of_writing_rows(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(config_text())
    code = main(["sweep", "--config", str(path), "--param", "channel.levels", "--values", "2,4",
                 "--out", str(tmp_path / "sw"), "--workers", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: channel.levels: ")
    assert not (tmp_path / "sw").exists()
    # a path whose head is not a config section is rejected the same way
    for param in ("experiment.x", "to_json_dict.x", "source_text.x", "run"):
        code = main(["sweep", "--config", str(path), "--param", param, "--values", "1",
                     "--out", str(tmp_path / "sw"), "--workers", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: bad parameter path {param!r}")
        assert not (tmp_path / "sw").exists()


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_example_config_builds():
    blocks = re.findall(r"```ini\n(.*?)```", README, flags=re.DOTALL)
    assert len(blocks) == 1
    build_context(parse_config(blocks[0]))


def test_readme_key_table_matches_the_constructors():
    rows = re.findall(r"^\| (channel|prior|filter|controller) \| `([\w-]+)` \| (.*) \|$",
                      README, flags=re.MULTILINE)
    documented = {(section, kind): re.findall(r"`(\w+)`", keys) for section, kind, keys in rows}
    actual = {
        **{("channel", k): list(kind_keys(c)) for k, c in CHANNELS.items()},
        **{("prior", k): list(kind_keys(c)) for k, c in PRIORS.items()},
        **{("filter", k): list(keys) for k, keys in FILTER_KEYS.items()},
        **{("controller", k): list(kind_keys(f)) for k, f in GAIN_DESIGNS.items()},
    }
    assert documented == actual
