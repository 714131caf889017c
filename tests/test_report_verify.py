"""`sensebound report` re-derives every key of summary.json from the rest of
the bundle (config.cfg, the run CSVs, outcomes.csv and the first audits/
file) with the code `run` used, and compares the two as JSON text.

A value nudged by one ulp fails the comparison, and a damaged outcomes.csv
is an error naming the file. Neither ever ends in a traceback.
"""

import json
import math
import shutil

import pytest

from sensebound.cli import main
from sensebound.config import parse_config
from sensebound.experiments import bundled_text, load_bundled
from sensebound.report import run_experiment

UNCHECKED = ("ensemble", "mean_cmi_channel_bits")  # no CSV v1 column holds it


def _run(out, *args, config_text=None):
    if config_text is not None:
        cfg = out.parent / f"{out.name}.cfg"
        cfg.write_text(config_text)
        args = ("--config", str(cfg), *args)
    assert main(["run", *args, "--workers", "1", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def kalman_bundle(tmp_path_factory):
    """4 completed Kalman runs: a necessity verdict and a residual."""
    return _run(tmp_path_factory.mktemp("k") / "b", "--experiment", "kalman-baseline",
                "--runs", "4", "--horizon", "100")


@pytest.fixture(scope="module")
def audited_grid_bundle(tmp_path_factory):
    """6 audited modulo-channel grid runs, runs 1-3 halted near step 30."""
    text = bundled_text("modulo-counterexample").replace("divergence_guard = 1e15",
                                                         "divergence_guard = 1e8")
    assert "divergence_guard = 1e8" in text
    out = _run(tmp_path_factory.mktemp("g") / "b", "--runs", "6", "--horizon", "40",
               config_text=text)
    outcomes = (out / "outcomes.csv").read_text()
    assert ",halted," in outcomes and ",completed," in outcomes
    assert (out / "audits").is_dir()
    return out


@pytest.fixture
def copy_of(tmp_path):
    def copy(bundle):
        return shutil.copytree(bundle, tmp_path / "b")
    return copy


def _report(bundle, capsys):
    capsys.readouterr()
    code = main(["report", "--bundle", str(bundle)])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


def _leaves(obj, path=()):
    for key, value in obj.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def _nudged(value):
    """The value changed as little as its JSON type allows."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return math.nextafter(value, math.inf) if math.isfinite(value) else 0.0
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return value[:-1] + [_nudged(value[-1])] if value else [0]
    return 0 if value is None else {"x": 0}


def _name(path):
    """How `report` names a leaf: its dotted path, `ensemble.` left off."""
    return ".".join(path[1:] if path[0] == "ensemble" else path)


@pytest.mark.parametrize("which", ["kalman_bundle", "audited_grid_bundle"])
def test_every_nudged_key_is_a_mismatch(which, request, copy_of, capsys):
    bundle = copy_of(request.getfixturevalue(which))
    spath = bundle / "summary.json"
    text = spath.read_text()
    assert _report(bundle, capsys)[0] == 0
    summary = json.loads(text)
    paths = [p for p in _leaves(summary) if p != UNCHECKED]
    for path in paths:
        tampered = json.loads(text)
        owner = tampered
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = _nudged(owner[path[-1]])
        spath.write_text(json.dumps(tampered, indent=2, sort_keys=True) + "\n")
        code, out, err = _report(bundle, capsys)
        assert code == 1, path
        assert err.count("MISMATCH") == 1 and f"MISMATCH in {_name(path)}: " in err, err
        assert "matches" not in out
    # the keys `report` re-derived before outcomes.csv existed are not all
    # that is checked now
    covered = {p[0] for p in paths}
    assert covered >= {"rate_balance_residual_bits_per_step", "necessity", "outcome",
                       "fraction_halted_by", "n_halted", "n_degenerate", "r_exp_bits_per_step",
                       "eigenvalues", "n_u", "seed", "config", "experiment", "schema_version"}
    if which == "audited_grid_bundle":
        assert "audits" in covered


def test_a_missing_or_an_extra_key_is_a_mismatch(kalman_bundle, copy_of, capsys):
    bundle = copy_of(kalman_bundle)
    spath = bundle / "summary.json"
    summary = json.loads(spath.read_text())
    del summary["necessity"]["detail"], summary["n_u"]
    summary["outcome"]["extra"] = 1
    spath.write_text(json.dumps(summary))
    code, _, err = _report(bundle, capsys)
    assert code == 1
    assert "MISMATCH in necessity.detail: summary.json has nothing, the bundle gives" in err
    assert "MISMATCH in n_u: summary.json has nothing, the bundle gives 1" in err
    assert "MISMATCH in outcome.extra: summary.json has 1, the bundle gives nothing" in err


def test_a_halt_counted_as_degenerate_is_a_mismatch(audited_grid_bundle, copy_of, capsys):
    """n_halted and n_degenerate are checked apart, not only their sum."""
    bundle = copy_of(audited_grid_bundle)
    spath = bundle / "summary.json"
    summary = json.loads(spath.read_text())
    summary["n_halted"] -= 1
    summary["n_degenerate"] += 1
    spath.write_text(json.dumps(summary))
    code, _, err = _report(bundle, capsys)
    assert code == 1
    assert "MISMATCH in n_halted: summary.json has 2, the bundle gives 3" in err
    assert "MISMATCH in n_degenerate: summary.json has 1, the bundle gives 0" in err


# The JSON keys of the outcome, necessity and audit records are their
# dataclass fields, so a renamed field renames a bundle key; these literal
# sets make that a test failure.
SUMMARY_LEAVES = {
    "schema_version", "experiment", "n_runs", "horizon", "seed", "r_exp_bits_per_step", "n_u",
    "eigenvalues", "di_rate_bits_per_step", "rate_balance_residual_bits_per_step", "n_halted",
    "n_degenerate", "ensemble.mean_state_sq", "ensemble.mean_err_sq", "ensemble.mean_cmi_bits",
    "ensemble.alive", "outcome.ms_bounded_state", "outcome.ms_bounded_error",
    "outcome.asymptotic_state", "outcome.asymptotic_error", "outcome.tail_window",
    "outcome.bound_state", "outcome.bound_error", "outcome.zero_threshold",
    "necessity.applicable", "necessity.bounded", "necessity.di_rate_bits_per_step",
    "necessity.r_exp_bits_per_step", "necessity.tolerance_bits", "necessity.passed",
    "necessity.detail", "config.experiment", "config.system.A", "config.system.B",
    "config.channel.kind", "config.prior.family", "config.prior.mean", "config.prior.cov",
    "config.filter.kind", "config.controller.mode", "config.run.horizon", "config.run.runs",
    "config.run.seed", "config.run.tail_window", "config.outputs.dir",
}
KALMAN_LEAVES = SUMMARY_LEAVES | {
    "fraction_halted_by.50", "fraction_halted_by.100", "config.channel.C", "config.channel.R",
    "config.controller.design", "config.controller.target_pole", "config.run.bound_state",
}
AUDIT_LEAVES = {
    "window", "alpha_hat", "beta_hat", "kappa_hat", "accumulation.first_negative_t",
    "accumulation.threshold", "accumulation.lambda_max_final", "accumulation.n_positive",
    *(f"verdicts.assumption{i}.{key}" for i in (1, 2, 3) for key in (
        "name", "applicable", "passed", "statistic", "witness_t", "witness_eigs", "detail")),
}
MODULO_LEAVES = SUMMARY_LEAVES | {f"audits.{key}" for key in AUDIT_LEAVES} | {
    "fraction_halted_by.20", "fraction_halted_by.40", "config.channel.period",
    "config.channel.r", "config.run.divergence_guard", "config.run.audit",
    "config.run.audit_window",
}


def _leaf_names(path):
    return {".".join(p) for p in _leaves(json.loads(path.read_text()))}


def test_record_keys_are_frozen(kalman_bundle, audited_grid_bundle):
    assert _leaf_names(kalman_bundle / "summary.json") == KALMAN_LEAVES
    assert _leaf_names(audited_grid_bundle / "summary.json") == MODULO_LEAVES
    for path in (audited_grid_bundle / "audits").iterdir():
        assert _leaf_names(path) == AUDIT_LEAVES


def test_a_rendered_config_writes_a_quoted_name_as_json(tmp_path, capsys):
    """An override renders config.cfg; a name holding a quote is written as a
    JSON string, as the section values are, so `report` can parse it."""
    name = 'stable "quoted" baseline é'
    text = bundled_text("stable-baseline").replace(
        'experiment = "stable-baseline"', f"experiment = {json.dumps(name)}")
    assert name in parse_config(text).experiment
    bundle = _run(tmp_path / "b", "--runs", "3", "--horizon", "30", config_text=text)
    rendered = (bundle / "config.cfg").read_text(encoding="utf-8")
    assert rendered.splitlines()[0] == 'experiment = "stable \\"quoted\\" baseline é"'
    code, out, _ = _report(bundle, capsys)
    assert code == 0 and "matches" in out


def test_mean_cmi_channel_is_the_one_unchecked_key(tmp_path, capsys):
    bundle = _run(tmp_path / "b", "--experiment", "sign-threshold-easy", "--runs", "3",
                  "--horizon", "30")
    spath = bundle / "summary.json"
    summary = json.loads(spath.read_text())
    trace = summary["ensemble"]["mean_cmi_channel_bits"]
    trace[0] += 1.0
    spath.write_text(json.dumps(summary))
    assert _report(bundle, capsys)[0] == 0


def test_a_config_edited_after_parsing_is_the_one_recorded(tmp_path, capsys):
    """config.cfg records the run the bundle holds: the source text while it
    still parses to the config, else the config rendered."""
    cfg = load_bundled("shrinking-noise")
    cfg.run["divergence_guard"] = 30.0
    cfg.run["runs"] = 12
    bundle = tmp_path / "b"
    run_experiment(cfg, out_dir=str(bundle))
    assert parse_config((bundle / "config.cfg").read_text()).to_json_dict() == cfg.to_json_dict()
    code, out, _ = _report(bundle, capsys)
    assert code == 0 and "matches" in out
    run_experiment(load_bundled("shrinking-noise"), out_dir=str(tmp_path / "same"))
    assert (tmp_path / "same" / "config.cfg").read_text() == bundled_text("shrinking-noise")


def _edit_outcomes(bundle, edit):
    path = bundle / "outcomes.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))
    return path


def _row(lines, outcome):
    """The index of the first row with this outcome."""
    return next(i for i, line in enumerate(lines) if line.split(",")[1] == outcome)


def _set_outcome(lines, old, new):
    i = _row(lines, old)
    lines[i] = lines[i].replace(f",{old},", f",{new},")
    return lines


def _without_row(lines, outcome):
    del lines[_row(lines, outcome)]
    return lines


@pytest.mark.parametrize("damage, message", [
    pytest.param(None, "missing", id="missing-file"),
    pytest.param(lambda lines: _without_row(lines, "halted"), "no row for runs/run_00001.csv",
                 id="dropped-row"),
    pytest.param(lambda lines: lines + ["6,completed,1.5\n"],
                 "no CSV runs/run_00006.csv", id="row-without-csv"),
    pytest.param(lambda lines: _set_outcome(lines, "halted", "exploded"),
                 "run 1 has outcome 'exploded'", id="unknown-outcome"),
    pytest.param(lambda lines: _set_outcome(lines, "halted", "completed"),
                 "run 1 is completed, but its CSV has", id="completed-short-csv"),
    pytest.param(lambda lines: _set_outcome(lines, "completed", "halted"),
                 "run 0 is halted, but its CSV has 40 rows and the horizon is 40",
                 id="halted-full-csv"),
    pytest.param(lambda lines: lines + [lines[1]], "run 0 has two rows", id="repeated-row"),
    pytest.param(lambda lines: [lines[0].replace("run_id", "run")] + lines[1:],
                 "expected the header", id="wrong-header"),
    pytest.param(lambda lines: lines[:1] + [lines[1].replace(",", ";", 1)] + lines[2:],
                 "malformed row", id="malformed-row"),
    pytest.param(lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0] + ",\n"] + lines[2:],
                 "run 0 has 40 rows and no terminal h_pred", id="blank-terminal"),
])
def test_a_damaged_outcomes_table_is_an_error(audited_grid_bundle, copy_of, capsys, damage,
                                             message):
    bundle = copy_of(audited_grid_bundle)
    path = bundle / "outcomes.csv"
    if damage is None:
        path.unlink()
    else:
        _edit_outcomes(bundle, damage)
    code, out, err = _report(bundle, capsys)
    assert code == 1
    assert err.startswith(f"error: {path}: ") and message in err, err
    assert "MISMATCH" not in err and "matches" not in out


def test_a_consistent_outcome_flip_is_a_mismatch(audited_grid_bundle, copy_of, capsys):
    """halted -> degenerate still fits a short CSV, so the table reads, and
    the halt counts it gives disagree with summary.json."""
    bundle = copy_of(audited_grid_bundle)
    _edit_outcomes(bundle, lambda lines: _set_outcome(lines, "halted", "degenerate"))
    code, _, err = _report(bundle, capsys)
    assert code == 1
    for key in ("n_halted", "n_degenerate", "fraction_halted_by.40"):
        assert f"MISMATCH in {key}: " in err, err


def test_an_edited_terminal_value_is_a_mismatch(kalman_bundle, copy_of, capsys):
    """A completed run's terminal h_pred closes the rate balance."""
    bundle = copy_of(kalman_bundle)

    def edit(lines):
        run_id, outcome, term = lines[1].rstrip("\n").split(",")
        lines[1] = f"{run_id},{outcome},{float(term) + 0.5!r}\n"
        return lines

    _edit_outcomes(bundle, edit)
    code, _, err = _report(bundle, capsys)
    assert code == 1
    assert err.startswith("MISMATCH in rate_balance_residual_bits_per_step: "), err


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("which", ["kalman_bundle", "audited_grid_bundle"])
def test_report_leaves_every_byte_of_the_bundle(which, request, copy_of, capsys):
    """`report` only reads: no file of the bundle changes and none is added."""
    bundle = copy_of(request.getfixturevalue(which))
    before = _files(bundle)
    code, out, _ = _report(bundle, capsys)
    assert code == 0 and "matches" in out
    assert _files(bundle) == before
