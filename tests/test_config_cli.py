import dataclasses
import json
from xml.etree import ElementTree

import numpy as np
import pytest

import sensebound.cli as cli_mod
import sensebound.report as report_mod
from sensebound.cli import main
from sensebound.config import build_context, parse_config
from sensebound.errors import EmptySeries, ParseError, SenseboundError, ValidationError
from sensebound.experiments import bundled_text
from sensebound.loop import run_ensemble
from sensebound.report import (
    read_run_csv,
    recompute_summary_from_csvs,
    render_svg,
    run_experiment,
    run_sweep,
    write_bundle_atomic,
)

MINIMAL = """
experiment = "minimal"
[system]
A = [[2.0]]
[channel]
kind = "linear-gaussian"
[run]
horizon = 20
runs = 2
seed = 7
"""


class TestParse:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.experiment == "minimal"
        ctx = build_context(cfg)
        assert ctx.filter_kind == "kalman"
        assert ctx.horizon == 20
        assert ctx.controller_mode == "predict"

    def test_unknown_channel_kind_names_field(self):
        bad = MINIMAL.replace('kind = "linear-gaussian"', 'kind = "lidar"')
        with pytest.raises(ValidationError) as err:
            parse_config(bad)
        assert err.value.field == "channel.kind"
        assert "lidar" in str(err.value)

    @pytest.mark.parametrize("line", ['schedule = {"gamma": 0.5}', "extension = true"],
                             ids=["schedule", "extension"])
    def test_schedule_and_extension_keys_are_rejected(self, line):
        """The noise schedule is the channel's `gamma`; the keys that once
        spelled it are errors naming the key, with no alias."""
        bad = MINIMAL.replace('kind = "linear-gaussian"', f'kind = "linear-gaussian"\n{line}')
        key = line.split(" =")[0]
        with pytest.raises(ValidationError) as err:
            parse_config(bad)
        assert err.value.field == f"channel.{key}"
        assert f"takes no key {key!r}" in str(err.value)

    def test_gamma_sets_the_schedule(self):
        good = MINIMAL.replace('kind = "linear-gaussian"', 'kind = "linear-gaussian"\ngamma = 0.5')
        ch = build_context(parse_config(good)).channel
        assert type(ch.gamma) is float and ch.gamma == 0.5
        assert ch.at(3).R[0, 0] == 0.5**3

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("experiment = \"x\"\n[system]\nA [[2.0]]\n")
        assert err.value.line == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_config(MINIMAL + "\n[system]\nfoo = 1\n")
        assert "foo" in str(err.value)

    @pytest.mark.parametrize("line", [
        "workers = 2", "neg_def_c = 0.5", "zero_threshold = 1e-3", "kappa_cap = 1e6",
        pytest.param("[system]\ncond_cap = 1e8", id="system.cond_cap"),
        pytest.param("[outputs]\nsvg = true", id="outputs.svg"),
        pytest.param('[filter]\nkind = "grid"\nmax_cells = 4096', id="filter.max_cells"),
    ])
    def test_unread_run_key_rejected(self, tmp_path, capsys, line):
        # the worker count is set by --workers, and the accumulation and
        # attractivity thresholds, the condition-number caps and the grid
        # cell budget are module constants; the plots are always written. A
        # key that would be parsed and then ignored is refused with its
        # dotted path: a fixed section's at parse time, naming its line, and
        # the grid kind's as a key that kind does not take. `run` exits 1
        # before any run, with no traceback and no bundle
        text = MINIMAL + line + "\n"
        header, _, setting = line.rpartition("\n")
        section = header.splitlines()[0].strip("[]") if header else "run"
        key = setting.split()[0]
        if section == "filter":
            with pytest.raises(ValidationError) as err:
                parse_config(text)
            assert err.value.field == f"filter.{key}"
            assert f"filter kind 'grid' takes no key {key!r}" in str(err.value)
        else:
            with pytest.raises(ParseError) as err:
                parse_config(text)
            assert f"{section}.{key}" in str(err.value)
            assert err.value.line == len(text.splitlines())
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
                     "--workers", "1"])
        err = capsys.readouterr().err
        assert code == 1 and f"{section}.{key}" in err and "Traceback" not in err, err
        assert not (tmp_path / "b").exists()

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError):
            parse_config(MINIMAL + "\n[plumbing]\nx = 1\n")

    def test_horizon_validated(self):
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL.replace("horizon = 20", "horizon = 0"))
        assert err.value.field == "run.horizon"

    def test_kalman_needs_linear_gaussian(self):
        bad = MINIMAL.replace(
            'kind = "linear-gaussian"', 'kind = "tanh-gaussian"'
        ) + "\n[filter]\nkind = \"kalman\"\n"
        with pytest.raises(ValidationError) as err:
            parse_config(bad)
        assert err.value.field == "filter.kind"

    def test_bare_token_is_string(self):
        cfg = parse_config(MINIMAL + "\n[outputs]\ndir = out/minimal\n")
        assert cfg.outputs["dir"] == "out/minimal"


class TestSvg:
    def test_basic_polyline(self):
        svg = render_svg("one", range(10), np.linspace(1, 2, 10), "demo", "v")
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<polyline") == 1
        assert "demo" in svg and ">t<" in svg and ">v<" in svg and ">one<" in svg

    def test_reference_line(self):
        svg = render_svg("di rate", range(5), (0.9, 1.0, 1.1, 1.0, 1.0), "", "",
                         hlines=[("r_exp", 1.0)])
        assert "r_exp" in svg and "stroke-dasharray" in svg

    def test_log_scale(self):
        svg = render_svg("growth", range(6), 4.0 ** np.arange(6), "", "", logy=True)
        assert "1e" in svg

    def test_empty_raises(self):
        with pytest.raises(EmptySeries):
            render_svg("none", (), (), "", "")
        with pytest.raises(EmptySeries):  # no finite point
            render_svg("none", range(2), (np.nan, np.inf), "", "")

    @pytest.mark.parametrize("ys, logy, drawn", [
        pytest.param([1.0, np.inf, 2.0], False, 2, id="inf"),
        pytest.param([1.0, np.inf, 2.0], True, 2, id="inf-log"),
        pytest.param([1.0, np.nan, 2.0], False, 2, id="nan"),
        pytest.param([-1e308, 1e308, 0.0], False, 3, id="span-overflows"),
    ])
    def test_only_finite_points_are_drawn(self, ys, logy, drawn):
        """A non-finite point is left out, and the axes span the finite
        ones even where their difference overflows."""
        root = ElementTree.fromstring(render_svg("s", range(3), ys, "t", "y", logy=logy))
        (line,) = root.iter("{http://www.w3.org/2000/svg}polyline")
        points = [tuple(map(float, p.split(","))) for p in line.get("points").split()]
        assert len(points) == drawn
        assert all(70 <= x <= 780 and 40 <= y <= 445 for x, y in points), points

    def test_plots_of_a_name_with_markup_characters_parse(self, tmp_path):
        """The experiment name goes into each plot's title as text, so an
        `&` or `<` in it still gives well-formed XML."""
        name = "R&D <demo>"
        text = bundled_text("stable-baseline").replace(
            'experiment = "stable-baseline"', f'experiment = "{name}"')
        bundle = run_experiment(parse_config(text), out_dir=str(tmp_path / "b"), runs=3,
                                horizon=30, workers=1)
        plots = sorted((tmp_path / "b" / "plots").glob("*.svg"))
        assert [p.name for p in plots] == ["di_rate.svg", "err_norm_sq.svg", "state_norm_sq.svg"]
        for plot in plots:
            titles = [t.text for t in ElementTree.parse(plot).getroot().iter()
                      if t.tag.endswith("text") and t.text and name in t.text]
            assert titles and bundle.summary["experiment"] == name


class TestBundle:
    def test_atomic_write_and_refusal(self, tmp_path):
        target = tmp_path / "bundle"
        write_bundle_atomic(str(target), {"a.txt": "hello", "sub/b.txt": "world"})
        assert (target / "a.txt").read_text() == "hello"
        assert (target / "sub" / "b.txt").read_text() == "world"
        with pytest.raises(SenseboundError):
            write_bundle_atomic(str(target), {"a.txt": "again"})

    def test_run_experiment_bundle_layout(self, tmp_path):
        cfg = parse_config(MINIMAL)
        bundle = run_experiment(cfg, out_dir=str(tmp_path / "b"), workers=1)
        assert bundle.exit_code == 0
        assert (tmp_path / "b" / "summary.json").exists()
        assert (tmp_path / "b" / "runs" / "run_00000.csv").exists()
        assert (tmp_path / "b" / "plots" / "err_norm_sq.svg").exists()
        # no override: the config text is kept verbatim
        assert (tmp_path / "b" / "config.cfg").read_text() == MINIMAL
        data = read_run_csv(tmp_path / "b" / "runs" / "run_00000.csv")
        assert len(data["t"]) == 20
        summary = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert summary["schema_version"] == 1

    def test_csv_byte_identical_rerun(self, tmp_path):
        cfg1 = parse_config(MINIMAL)
        cfg2 = parse_config(MINIMAL)
        run_experiment(cfg1, out_dir=str(tmp_path / "b1"), workers=1)
        run_experiment(cfg2, out_dir=str(tmp_path / "b2"), workers=1)
        for name in ("run_00000.csv", "run_00001.csv"):
            b1 = (tmp_path / "b1" / "runs" / name).read_bytes()
            b2 = (tmp_path / "b2" / "runs" / name).read_bytes()
            assert b1 == b2

    def test_summary_recomputable_from_csvs(self, tmp_path):
        cfg = parse_config(MINIMAL)
        bundle = run_experiment(cfg, out_dir=str(tmp_path / "b"), workers=1)
        fresh = recompute_summary_from_csvs(str(tmp_path / "b"))
        assert fresh["di_rate_bits_per_step"] == pytest.approx(
            bundle.summary["di_rate_bits_per_step"], abs=1e-12
        )
        assert np.allclose(fresh["mean_err_sq"], bundle.summary["ensemble"]["mean_err_sq"])

    def test_debug_beliefs_flag(self, tmp_path):
        cfg = parse_config(MINIMAL + "\n[outputs]\ndebug_beliefs = true\n")
        bundle = run_experiment(cfg, out_dir=str(tmp_path / "b"), workers=1)
        assert bundle.exit_code == 0
        dump = json.loads((tmp_path / "b" / "beliefs" / "run_00000.json").read_text())
        assert len(dump) == 20
        assert dump[0]["representation"] == "gaussian"
        assert set(dump[0]) >= {"representation", "t", "kind", "mean", "cov"}


class TestCli:
    def test_run_and_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--workers", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "r_exp" in out and "bundle" in out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["run", "--config", "x.cfg", "--frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_config_is_operational_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"), "--workers", "1"])
        assert code == 1

    def test_decompose_prints_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL)
        assert main(["decompose", "--config", str(cfg_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["r_exp_bits_per_step"] == 1.0
        assert out["n_u"] == 1

    @pytest.mark.parametrize("flag, value", [("--seed", "3"), ("--runs", "5"),
                                             ("--horizon", "30"), ("--out", "x"),
                                             ("--workers", "9")])
    def test_decompose_takes_only_config_or_experiment(self, capsys, flag, value):
        """decompose reads no seed, run count, horizon, bundle or worker
        count, so each of those flags is a usage error, not ignored."""
        code = main(["decompose", "--experiment", "kalman-baseline", flag, value])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and flag in err, err

    def test_seed_environment_variable_is_not_read(self, tmp_path, monkeypatch):
        """The seed is the config's run.seed or --seed; the environment sets
        none."""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL)
        monkeypatch.setenv("SENSEBOUND_SEED", "123")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o1"),
                     "--workers", "1"]) == 0
        s1 = json.loads((tmp_path / "o1" / "summary.json").read_text())
        assert s1["seed"] == 7

    @pytest.mark.parametrize("how", ["flag", "audit"])
    def test_bundle_reruns_from_its_own_config(self, tmp_path, how):
        """--runs, --horizon, --seed and the audit command's audit = true go
        into the bundle's config.cfg, so a run of that file (at another
        worker count) writes the same bundle."""
        first, second = tmp_path / "b1", tmp_path / "b2"
        argv = ["audit" if how == "audit" else "run", "--experiment", "sign-threshold-easy",
                "--runs", "3", "--horizon", "30", "--workers", "1", "--out", str(first),
                "--seed", "9"]
        assert main(argv) == 0
        cfg = parse_config((first / "config.cfg").read_text())
        assert (cfg.run["runs"], cfg.run["horizon"], cfg.run["seed"]) == (3, 30, 9)
        assert cfg.run.get("audit", False) == (how == "audit")
        assert main(["run", "--config", str(first / "config.cfg"), "--workers", "2",
                     "--out", str(second)]) == 0

        def tree(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        assert len(tree(first)) > 3 and tree(first) == tree(second)

    def test_sweep_rows(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL)
        code = main([
            "sweep", "--config", str(cfg_path), "--param", "channel.R",
            "--values", "[[0.25]],[[1.0]]", "--out", str(tmp_path / "sw"),
            "--workers", "1",
        ])
        assert code == 0
        rows = json.loads((tmp_path / "sw" / "sweep.json").read_text())
        assert len(rows) == 2
        assert (tmp_path / "sw" / "sweep.csv").read_text().startswith("param,value")

    def test_report_verifies_bundle(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
              "--workers", "1"])
        assert main(["report", "--bundle", str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out
        assert "matches" in out
        assert not (tmp_path / "b" / "recomputed.json").exists()

    def test_report_detects_tampered_summary(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
              "--workers", "1"])
        spath = tmp_path / "b" / "summary.json"
        s = json.loads(spath.read_text())
        s["di_rate_bits_per_step"] = 123.0
        spath.write_text(json.dumps(s))
        assert main(["report", "--bundle", str(tmp_path / "b")]) == 1

    def test_report_detects_tampered_mean_cmi(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
              "--workers", "1"])
        spath = tmp_path / "b" / "summary.json"
        s = json.loads(spath.read_text())
        s["ensemble"]["mean_cmi_bits"][3] += 0.25
        spath.write_text(json.dumps(s))
        assert main(["report", "--bundle", str(tmp_path / "b")]) == 1
        assert "mean_cmi_bits" in capsys.readouterr().err

    def _report_after(self, tmp_path, capsys, edit):
        """`report` on a fresh 3-run bundle whose summary.json text went
        through `edit`: (exit code, stdout, stderr, summary path)."""
        assert main(["run", "--experiment", "stable-baseline", "--runs", "3",
                     "--out", str(tmp_path / "b"), "--workers", "1"]) == 0
        spath = tmp_path / "b" / "summary.json"
        spath.write_text(edit(spath.read_text()))
        capsys.readouterr()
        code = main(["report", "--bundle", str(tmp_path / "b")])
        out, err = capsys.readouterr()
        return code, out, err, spath

    @staticmethod
    def _edit_json(change):
        """A text edit that applies `change` to the parsed summary."""
        def edit(text):
            s = json.loads(text)
            change(s)
            return json.dumps(s)
        return edit

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda text: text[: len(text) // 2], id="not-json"),
        pytest.param(lambda text: "[" + text + "]", id="json-array"),
    ])
    def test_report_on_malformed_summary_is_an_error_not_a_traceback(self, tmp_path, capsys,
                                                                    edit):
        code, out, err, spath = self._report_after(tmp_path, capsys, edit)
        assert code == 1
        assert err.startswith(f"error: {spath}: "), err
        assert "Traceback" not in err
        assert "matches" not in out

    def test_report_on_non_numeric_statistic_is_an_error_not_a_traceback(self, tmp_path,
                                                                        capsys):
        edit = self._edit_json(lambda s: s["ensemble"].update(mean_err_sq="abc"))
        code, out, err, spath = self._report_after(tmp_path, capsys, edit)
        assert code == 1
        assert 'MISMATCH in mean_err_sq: summary.json has "abc"' in err, err
        assert "Traceback" not in err

    def test_report_counts_a_deleted_statistic_as_a_mismatch(self, tmp_path, capsys):
        def thin(s):
            del s["ensemble"]["mean_err_sq"], s["ensemble"]["mean_state_sq"]
        code, out, err, _ = self._report_after(tmp_path, capsys, self._edit_json(thin))
        assert code == 1
        assert "MISMATCH in mean_err_sq" in err and "MISMATCH in mean_state_sq" in err
        assert "mean_cmi_bits" not in err
        assert "matches" not in out
        assert "Traceback" not in err

    def test_report_detects_a_nulled_statistic(self, tmp_path, capsys):
        """A null DI rate stands only for a bundle where no run completed."""
        null_di = self._edit_json(lambda s: s.update(di_rate_bits_per_step=None))
        code, out, err, _ = self._report_after(tmp_path, capsys, null_di)
        assert code == 1
        assert "MISMATCH in di_rate_bits_per_step" in err
        assert "matches" not in out and "Traceback" not in err
        null_cmi = self._edit_json(lambda s: s["ensemble"].update(mean_cmi_bits=None))
        code, out, err, _ = self._report_after(tmp_path / "cmi", capsys, null_cmi)
        assert code == 1
        assert "MISMATCH in mean_cmi_bits" in err

    def test_report_counts_a_deleted_summary_as_a_mismatch(self, tmp_path, capsys):
        assert main(["run", "--experiment", "stable-baseline", "--runs", "20",
                     "--out", str(tmp_path / "b"), "--workers", "1"]) == 0
        (tmp_path / "b" / "summary.json").unlink()
        capsys.readouterr()
        assert main(["report", "--bundle", str(tmp_path / "b")]) == 1
        out, err = capsys.readouterr()
        assert "MISMATCH: summary.json missing" in err
        assert "matches" not in out

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda p: p.unlink(), id="missing"),
        pytest.param(lambda p: p.write_bytes(b"\xff\xfe[run]\n"), id="not-utf8"),
        pytest.param(lambda p: p.write_text("[run\n"), id="unparseable"),
    ])
    def test_report_on_unreadable_config_is_an_error_not_a_traceback(self, tmp_path, capsys,
                                                                     damage):
        assert main(["run", "--experiment", "stable-baseline", "--runs", "3",
                     "--out", str(tmp_path / "b"), "--workers", "1"]) == 0
        cpath = tmp_path / "b" / "config.cfg"
        damage(cpath)
        capsys.readouterr()
        assert main(["report", "--bundle", str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cpath}: "), err
        assert "Traceback" not in err

    def _open_loop_report(self, tmp_path, capsys, edit=lambda text: text, runs=6, horizon=None):
        """`report` on a kalman-baseline bundle run with no control, whose
        summary.json text went through `edit`: its runs cross the divergence
        guard near step 20, so the default horizon leaves every CSV short.
        (exit code, stdout, stderr, summary dict before the edit)."""
        text = bundled_text("kalman-baseline").replace(
            'mode = "predict"\ndesign = "deadbeat"\ntarget_pole = 0.5', 'mode = "none"'
        ).replace("tail_window = 50", "tail_window = 10")
        assert 'mode = "none"' in text and "tail_window = 10" in text
        cfg_path = tmp_path / "open.cfg"
        cfg_path.write_text(text)
        extra = ["--horizon", str(horizon)] if horizon is not None else []
        assert main(["run", "--config", str(cfg_path), "--runs", str(runs), *extra,
                     "--out", str(tmp_path / "b"), "--workers", "1"]) == 0
        spath = tmp_path / "b" / "summary.json"
        before = json.loads(spath.read_text())
        spath.write_text(edit(spath.read_text()))
        capsys.readouterr()
        code = main(["report", "--bundle", str(tmp_path / "b")])
        out, err = capsys.readouterr()
        return code, out, err, before

    def test_report_accepts_a_bundle_of_halted_runs(self, tmp_path, capsys):
        code, out, err, s = self._open_loop_report(tmp_path, capsys)
        assert s["n_halted"] == s["n_runs"] == 6 and s["ensemble"]["alive"][0] == 6
        assert (code, err) == (0, "")
        assert "matches" in out

    def test_report_accepts_runs_halted_after_their_last_step(self, tmp_path, capsys):
        """A run that crosses the guard after its final step has recorded
        every step, so it completed: the halted runs are the short CSVs."""
        code, out, err, s = self._open_loop_report(tmp_path, capsys, runs=40, horizon=20)
        assert s["n_halted"] == s["n_runs"] - s["ensemble"]["alive"][-1] > 0
        assert (code, err) == (0, "")

    def test_bundle_of_runs_that_degenerate_at_their_first_step(self, tmp_path, capsys):
        """A grid of +-0.05 prior standard deviations holds no mass in the
        quantizer cell observed at step 0, so the run degenerates before it
        records a step: no plot has a point and none is written, and the
        bundle is one `report` accepts."""
        cfg_path = tmp_path / "degenerate.cfg"
        cfg_path.write_text(
            'experiment = "all-degenerate"\n[system]\nA = [[1.5]]\nB = [[1.0]]\n'
            '[channel]\nkind = "sign-quantizer"\nlevels = 4\n'
            '[filter]\nkind = "grid"\nhalf_width_stds = 0.05\n[controller]\nmode = "none"\n'
            "[run]\nhorizon = 4\nruns = 1\ntail_window = 2\nseed = 3\n")
        bundle = tmp_path / "b"
        assert main(["run", "--config", str(cfg_path), "--out", str(bundle)]) == 0
        assert json.loads((bundle / "summary.json").read_text())["n_degenerate"] == 1
        assert not (bundle / "plots" / "err_norm_sq.svg").exists()
        assert main(["report", "--bundle", str(bundle)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_report_detects_a_tampered_run_count(self, tmp_path, capsys):
        code, out, err, _ = self._open_loop_report(
            tmp_path, capsys, self._edit_json(lambda s: s.update(n_runs=s["n_runs"] + 1)))
        assert code == 1
        assert "MISMATCH in n_runs" in err
        assert "matches" not in out and "Traceback" not in err

    def test_report_detects_a_tampered_alive_count(self, tmp_path, capsys):
        def tamper(s):
            s["ensemble"]["alive"][-1] += 1
        code, out, err, _ = self._open_loop_report(tmp_path, capsys, self._edit_json(tamper))
        assert code == 1
        assert "MISMATCH in alive" in err
        assert "matches" not in out and "Traceback" not in err

    def test_report_detects_a_tampered_horizon(self, tmp_path, capsys):
        code, out, err, _ = self._open_loop_report(
            tmp_path, capsys, self._edit_json(lambda s: s.update(horizon=s["horizon"] + 1)))
        assert code == 1
        assert "MISMATCH in horizon" in err
        assert "matches" not in out and "Traceback" not in err

    def test_report_detects_a_tampered_halt_count(self, tmp_path, capsys):
        code, out, err, _ = self._open_loop_report(
            tmp_path, capsys, self._edit_json(lambda s: s.update(n_halted=0)))
        assert code == 1
        assert "MISMATCH in n_halted: summary.json has 0, the bundle gives 6" in err
        assert "n_degenerate" not in err
        assert "matches" not in out and "Traceback" not in err

    @pytest.mark.parametrize("change, message", [
        pytest.param(lambda s: s.update(n_runs=2.5), "n_runs: summary.json has 2.5,",
                     id="fractional-runs"),
        pytest.param(lambda s: s.update(n_halted=[1]), "n_halted: summary.json has [1],",
                     id="listed-halts"),
        pytest.param(lambda s: s["ensemble"].update(alive=3), "alive: summary.json has 3,",
                     id="scalar-alive"),
    ])
    def test_report_on_a_malformed_count_is_an_error_not_a_traceback(self, tmp_path, capsys,
                                                                     change, message):
        code, out, err, spath = self._report_after(tmp_path, capsys, self._edit_json(change))
        assert code == 1
        assert f"MISMATCH in {message}" in err, err
        assert "Traceback" not in err

    def test_sweep_passes_runs_and_horizon_to_every_point(self, tmp_path, monkeypatch):
        seen = []

        def spy(cfg, **kwargs):
            seen.append((kwargs["runs"], kwargs["horizon"]))
            return run_experiment(cfg, **kwargs)

        monkeypatch.setattr(report_mod, "run_experiment", spy)
        code = main([
            "sweep", "--config", str(self._minimal(tmp_path)), "--param", "channel.R",
            "--values", "[[0.25]],[[1.0]],[[4.0]]", "--runs", "3", "--horizon", "12",
            "--out", str(tmp_path / "sw"), "--workers", "1",
        ])
        # three short runs may well fall short of r_exp (exit 2); the sweep ran
        assert code in (0, 2)
        assert seen == [(3, 12)] * 3

    def test_sweep_rejects_format(self, tmp_path, capsys):
        code = main([
            "sweep", "--config", str(self._minimal(tmp_path)), "--param", "channel.R",
            "--values", "[[1.0]]", "--format", "csv", "--out", str(tmp_path / "sw"),
        ])
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("command, value", [("run", "json"), ("run", "csv"),
                                                ("audit", "json")])
    def test_format_flag_is_a_usage_error(self, tmp_path, capsys, command, value):
        """Every bundle holds its run CSVs, outcomes.csv and summary.json, so
        no flag picks its files."""
        code = main([command, "--config", str(self._minimal(tmp_path)), "--format", value,
                     "--workers", "1", "--out", str(tmp_path / "b")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error: ") and "--format" in err, err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("section, line, field", [
        ("run", 'horizon = "abc"', "run.horizon"),
        ("run", 'runs = "many"', "run.runs"),
        ("run", "audit_window = [2]", "run.audit_window"),
        ("run", 'bound_state = "big"', "run.bound_state"),
        ("run", "divergence_guard = null", "run.divergence_guard"),
        ("filter", 'particles = "lots"', "filter.particles"),
    ])
    def test_wrong_typed_key_is_an_error_not_a_traceback(self, tmp_path, capsys, section,
                                                         line, field):
        key = line.split("=")[0].strip()
        text = "\n".join(k for k in MINIMAL.splitlines() if not k.startswith(f"{key} ="))
        text = text.replace("[channel]", "[filter]\nkind = \"particle\"\n[channel]")
        text = text.replace(f"[{section}]", f"[{section}]\n{line}", 1)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
                     "--workers", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {field}:"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, section", [
        (("R = [[0.25]]", "R = [[0.25, 0.1], [0.0, 0.25]]"), "channel"),
        (("A = [[2.0]]", "A = [[0.5]]"), "system"),
    ])
    def test_construction_error_names_its_section(self, tmp_path, capsys, edit, section):
        """A package error raised while a section's object is built (an
        unsymmetric R, a stable plant without allow_stable) is reported with
        the section's name; test_config_keys checks a bad prior cov's."""
        text = MINIMAL.replace("[run]", "R = [[0.25]]\n[run]", 1).replace(*edit)
        assert edit[1] in text
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
                     "--workers", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {section}: "), err
        assert not (tmp_path / "b").exists()

    def test_stable_plant_error_names_the_config_key(self, tmp_path, capsys):
        """A config user is told the config key that allows a stable plant,
        not a Python keyword."""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL.replace("A = [[2.0]]", "A = [[0.5]]"))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
                     "--workers", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "allow_stable = true" in err and "allow_stable=True" not in err, err

    @pytest.mark.parametrize("value", ["true", "1", "[1, 2]"])
    def test_non_string_experiment_name_is_an_error(self, tmp_path, capsys, value):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL.replace('experiment = "minimal"', f"experiment = {value}"))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
                     "--workers", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: experiment:"), err
        assert "Traceback" not in err
        assert not (tmp_path / "b").exists()

    def test_horizon_override_checked_before_the_runs(self, tmp_path, capsys):
        """--horizon below twice the experiment's tail window is a config
        error, raised before any run, not a traceback after all of them."""
        code = main(["run", "--experiment", "sign-threshold-easy", "--horizon", "20",
                     "--out", str(tmp_path / "b"), "--workers", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: run.tail_window:")

    @pytest.mark.parametrize("case", ["flag", "config", "sweep"])
    def test_bad_seed_is_an_error_not_a_traceback(self, tmp_path, capsys, case):
        argv = ["run", "--config", str(self._minimal(tmp_path)), "--workers", "1",
                "--out", str(tmp_path / "b")]
        if case == "flag":
            argv = ["run", "--experiment", "stable-baseline", "--seed", "-5", "--workers", "1",
                    "--out", str(tmp_path / "b")]
        elif case == "config":
            (tmp_path / "exp.cfg").write_text(MINIMAL.replace("seed = 7", "seed = -1"))
        elif case == "sweep":
            argv = ["sweep", "--config", str(self._minimal(tmp_path)), "--param", "run.seed",
                    "--values", "-3", "--workers", "1", "--out", str(tmp_path / "sw")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: run.seed:"), err
        assert not (tmp_path / "b").exists() and not (tmp_path / "sw").exists()

    def test_seed_of_any_size_runs(self, tmp_path):
        code = main(["run", "--config", str(self._minimal(tmp_path)), "--seed", str(2**64),
                     "--workers", "1", "--out", str(tmp_path / "b")])
        assert code == 0
        assert json.loads((tmp_path / "b" / "summary.json").read_text())["seed"] == 2**64
        with pytest.raises(ValidationError, match="run.seed"):
            run_experiment(parse_config(MINIMAL), seed=-1, write=False)

    @pytest.mark.parametrize("key, value", [
        ("half_width_stds", 0), ("cells_per_std", 0), ("half_width_stds", -1),
        ("cells_per_std", -3),
    ])
    def test_grid_of_fewer_than_three_nodes_is_rejected(self, tmp_path, capsys, key, value):
        line = f"{key} = {value}"
        text = bundled_text("sign-threshold-easy").replace('kind = "grid"',
                                                           f'kind = "grid"\n{line}')
        assert line in text
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        code = main(["run", "--config", str(cfg_path), "--workers", "1",
                     "--out", str(tmp_path / "b")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: filter:") and "at least 3" in err, err

    @staticmethod
    def _minimal(tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL)
        return cfg_path

    def test_sweep_rows_independent_of_workers(self, tmp_path, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["workers"])
            return run_ensemble(*args, **kwargs)

        monkeypatch.setattr(report_mod, "run_ensemble", spy)
        rows = [
            run_sweep(MINIMAL, "channel.R", [[[0.25]], [[1.0]]], str(tmp_path / f"w{w}"),
                      seed=5, workers=w)["rows"]
            for w in (1, 2)
        ]
        assert seen == [1, 1, 2, 2]
        assert rows[0] == rows[1]

    def test_audit_command(self, tmp_path, capsys):
        code = main(["audit", "--experiment", "modulo-counterexample",
                     "--out", str(tmp_path / "aud"), "--workers", "1"])
        assert code == 0
        assert (tmp_path / "aud" / "audits" / "run_00000.json").exists()
        out = capsys.readouterr().out
        assert "assumption1: fail" in out

    def test_exit_code_two_on_necessity_violation(self):
        """The exit-code mapping flags acceptance violations as 2."""
        from sensebound.report import ReportBundle

        bundle = ReportBundle(out_dir="x", summary={}, acceptance_violation=True)
        assert bundle.exit_code == 2

    def test_run_exits_with_the_bundle_exit_code(self, tmp_path, monkeypatch, capsys):
        """`run` on a bundle that violates necessity prints it and exits 2."""
        def violating(*args, **kwargs):
            bundle = run_experiment(*args, **kwargs)
            return dataclasses.replace(bundle, acceptance_violation=True)

        monkeypatch.setattr(cli_mod, "run_experiment", violating)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
                     "--workers", "1"])
        assert code == 2
        assert "ACCEPTANCE VIOLATION" in capsys.readouterr().err
