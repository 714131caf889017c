"""Run CSVs: the writer against the csv-module serialisation it replaced,
and the read-back against the DictReader parse it replaced."""

import csv
import io
import json
import math
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from sensebound.channels import make_channel
from sensebound.cli import main
from sensebound.config import build_context, parse_config
from sensebound.errors import SenseboundError
from sensebound.experiments import bundled_names, load_bundled
from sensebound.infoflow import InfoLedger
from sensebound.loop import RunContext, run_block, run_closed_loop
from sensebound.priors import GaussianPrior
from sensebound.report import (
    CSV_COLUMNS,
    read_run_csv,
    recompute_summary_from_csvs,
    run_csv_text,
    run_experiment,
)
from sensebound.system import SystemModel, decompose, design_gain


def reference_csv_text(record, run_id) -> str:
    """csv.writer with one repr(float(x)) per float cell."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    lg = record.ledger
    for i in range(record.steps):
        floats = (record.state_norm_sq[i], record.err_norm_sq[i],
                  lg.h_pred[i], lg.h_post[i], lg.cmi[i], lg.di_cum[i])
        w.writerow([i, run_id, *(repr(float(x)) for x in floats)])
    return buf.getvalue()


def reference_read(path) -> dict:
    cols = {c: [] for c in CSV_COLUMNS}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            for c in CSV_COLUMNS:
                cols[c].append(float(row[c]))
    return {c: np.asarray(v) for c, v in cols.items()}


def reference_recompute(bundle_dir) -> dict:
    """Per-step scans over the runs alive at each t; the DI rate averages
    the runs that record the horizon of the bundle's config.cfg."""
    runs_dir = os.path.join(bundle_dir, "runs")
    datas = [reference_read(os.path.join(runs_dir, n)) for n in sorted(os.listdir(runs_dir))]
    with open(os.path.join(bundle_dir, "config.cfg"), encoding="utf-8") as fh:
        horizon = parse_config(fh.read()).run["horizon"]
    out = {"mean_err_sq": [], "mean_state_sq": [], "mean_cmi_bits": []}
    for t in range(max(len(d["t"]) for d in datas)):
        at_t = [d for d in datas if len(d["t"]) > t]
        for key, col in (("mean_err_sq", "err_norm_sq"), ("mean_state_sq", "state_norm_sq"),
                         ("mean_cmi_bits", "cmi_bits")):
            out[key].append(math.fsum(d[col][t] for d in at_t) / len(at_t))
    full = [d for d in datas if len(d["t"]) == horizon]
    out["di_rate_bits_per_step"] = (
        math.fsum(d["di_cum_bits"][-1] for d in full) / len(full) / horizon if full else None
    )
    return out


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def particle_ctx():
    model = SystemModel([[2.0]], [[1.0]])
    dec = decompose(model)
    return RunContext(
        model=model, decomp=dec,
        channel=make_channel("tanh-gaussian", scale=1.0, R=[[0.01]]),
        prior=GaussianPrior([0.0], [[0.04]]), filter_kind="particle",
        gain=design_gain(dec, method="lqr"), controller_mode="update",
        horizon=5, n_particles=256,
    )


def bundled_ctx(name, **changes):
    return replace(build_context(load_bundled(name)), **changes)


class TestWriter:
    def assert_reference(self, records):
        for rec in records:
            assert run_csv_text(rec, rec.run_index) == reference_csv_text(rec, rec.run_index)

    def test_kalman_block(self):
        block = run_block(bundled_ctx("kalman-baseline", horizon=20), 3, range(4))
        self.assert_reference(block)
        # the block's runs share one ledger: a second pass reads its memo
        assert all(r.ledger is block[0].ledger for r in block)
        self.assert_reference(block)

    def test_grid(self):
        self.assert_reference([run_closed_loop(bundled_ctx("sign-threshold-easy", horizon=6), 2, 1)])

    def test_particle(self):
        self.assert_reference([run_closed_loop(particle_ctx(), 4, 0)])

    def test_halted_runs(self):
        ctx = bundled_ctx("shrinking-noise", divergence_guard=30.0)
        block = run_block(ctx, 77, range(3, 11))
        assert any(0 < r.steps < ctx.horizon for r in block)
        self.assert_reference(block)
        ref = run_closed_loop(ctx, 77, next(r.run_index for r in block if r.outcome == "halted"))
        assert ref.outcome == "halted"
        self.assert_reference([ref])
        # the runs that end together share one ledger, the others do not
        for a in block:
            for b in block:
                assert (a.ledger is b.ledger) == (a.steps == b.steps)
        self.assert_reference(block)

    def test_signed_zero_and_numpy_scalars(self):
        rec = run_block(bundled_ctx("kalman-baseline", horizon=2), 1, range(1))[0]
        ledger = InfoLedger(r_exp=1.0)
        ledger.h_pred = [np.float64(-0.0), np.float64(2.5)]
        ledger.h_post = [0.0, -1e16]
        ledger.cmi = [-0.0, float("inf")]
        ledger.di_cum = [np.float64(1e-300), float("nan")]
        rec = replace(rec, state_norm_sq=np.array([-0.0, 0.1]),
                      err_norm_sq=np.array([1e-5, -0.0]), ledger=ledger)
        text = run_csv_text(rec, 12)
        assert text == reference_csv_text(rec, 12)
        assert text.splitlines()[1] == "0,12,-0.0,1e-05,-0.0,0.0,-0.0,1e-300"

    def test_memo_follows_the_ledger(self):
        """A step recorded after the cells were formatted gets its own cell,
        and a pickled ledger gives the same cells."""
        ledger = InfoLedger(r_exp=1.0)
        ledger._append(1.0, 0.5)
        assert ledger.csv_cells() == ["1.0,0.5,0.5,0.5"]
        ledger._append(np.float64(2.0), 1.25)
        assert ledger.csv_cells() == ["1.0,0.5,0.5,0.5", "2.0,1.25,0.75,1.25"]
        assert pickle.loads(pickle.dumps(ledger)).csv_cells() == ledger.csv_cells()


class TestReadBack:
    @pytest.fixture
    def bundle(self, tmp_path):
        out = tmp_path / "b"
        run_experiment(load_bundled("kalman-baseline"), out_dir=str(out), seed=3, runs=3,
                       horizon=100)
        return out

    @pytest.mark.parametrize("name", bundled_names())
    def test_read_back_equals_summary_exactly(self, name, tmp_path):
        """The read-back and summary.json come from one reduction, so they
        agree with ==, not to a tolerance, at every bundled experiment."""
        out = tmp_path / "b"
        run_experiment(load_bundled(name), out_dir=str(out), runs=4)
        stored = json.loads((out / "summary.json").read_text())
        got = recompute_summary_from_csvs(str(out))
        ens = stored["ensemble"]
        assert got == {
            "n_runs": stored["n_runs"], "horizon": stored["horizon"],
            "mean_err_sq": ens["mean_err_sq"], "mean_state_sq": ens["mean_state_sq"],
            "mean_cmi_bits": ens["mean_cmi_bits"], "alive": ens["alive"],
            "di_rate_bits_per_step": stored["di_rate_bits_per_step"],
        }

    def test_columns_equal_reference(self, bundle):
        path = bundle / "runs" / "run_00001.csv"
        got, want = read_run_csv(path), reference_read(path)
        for c in CSV_COLUMNS:
            assert bits(got[c]) == bits(want[c]), c

    def test_halted_bundle_means_equal_reference(self, tmp_path):
        cfg = load_bundled("shrinking-noise")
        cfg.run["divergence_guard"] = 30.0
        bundle = run_experiment(cfg, out_dir=str(tmp_path / "h"), seed=77, runs=12)
        assert 0 < bundle.summary["n_halted"] < 12
        got = recompute_summary_from_csvs(str(tmp_path / "h"))
        want = reference_recompute(str(tmp_path / "h"))
        for key, value in want.items():
            assert bits(got[key]) == bits(value), key
        assert len(got["mean_err_sq"]) == 60

    def test_bundle_where_every_run_halts(self, tmp_path, capsys):
        """No CSV reaches the horizon, so the read-back keeps the config's
        horizon and, as summary.json does, gives no DI rate."""
        out = tmp_path / "hard"
        assert main(["run", "--experiment", "sign-threshold-hard", "--runs", "6",
                     "--workers", "1", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_halted"] == 6 and summary["di_rate_bits_per_step"] is None
        assert len(summary["ensemble"]["alive"]) < 60
        capsys.readouterr()
        assert main(["report", "--bundle", str(out)]) == 0
        assert "matches" in capsys.readouterr().out
        recomputed = recompute_summary_from_csvs(str(out))
        assert (recomputed["horizon"], recomputed["di_rate_bits_per_step"]) == (60, None)

    @pytest.mark.parametrize("edit", ["missing", "non-numeric", "missing-and-extra",
                                      "non-utf8"])
    def test_malformed_row_names_the_file(self, bundle, edit, capsys):
        path = bundle / "runs" / "run_00002.csv"
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[3].rstrip("\n").split(",")
        if edit == "missing":
            lines[3] = ",".join(cells[:-1]) + "\n"
        elif edit == "non-numeric":
            lines[3] = ",".join(cells[:4] + ["n/a"] + cells[5:]) + "\n"
        elif edit == "missing-and-extra":
            lines[3] = ",".join(cells[:-1]) + "\n"
            lines[5] = lines[5].rstrip("\n") + ",0.0\n"
        else:
            lines.append("\xff\xfe")  # encoded as latin-1: not UTF-8
        path.write_text("".join(lines), encoding="latin-1")
        with pytest.raises(SenseboundError, match="run_00002.csv"):
            read_run_csv(path)
        assert main(["report", "--bundle", str(bundle)]) == 1
        assert "run_00002.csv" in capsys.readouterr().err

    def test_single_short_row_names_the_file(self, tmp_path):
        path = tmp_path / "run_00000.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n0,0,1.0,2.0\n")
        with pytest.raises(SenseboundError, match="run_00000.csv"):
            read_run_csv(path)

    def test_wrong_header_rejected(self, bundle, capsys):
        path = bundle / "runs" / "run_00000.csv"
        text = path.read_text()
        path.write_text(text.replace("err_norm_sq", "error", 1))
        with pytest.raises(SenseboundError, match="unexpected CSV columns"):
            read_run_csv(path)
        assert main(["report", "--bundle", str(bundle)]) == 1

    def test_header_only_file_is_an_empty_run(self, tmp_path):
        path = tmp_path / "run_00000.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n")
        data = read_run_csv(path)
        assert all(data[c].shape == (0,) for c in CSV_COLUMNS)

    def test_bundle_of_empty_runs_has_no_rate(self, tmp_path):
        """Runs that went degenerate at t = 0 leave header-only CSVs; the
        horizon is still the config's."""
        (tmp_path / "runs").mkdir()
        (tmp_path / "config.cfg").write_text("[system]\nA = [[2.0]]\n[run]\nhorizon = 8\n")
        for i in range(2):
            (tmp_path / "runs" / f"run_{i:05d}.csv").write_text(",".join(CSV_COLUMNS) + "\n")
        (tmp_path / "outcomes.csv").write_text(
            "run_id,outcome,terminal_h_pred_bits\n0,degenerate,\n1,degenerate,\n")
        got = recompute_summary_from_csvs(str(tmp_path))
        assert (got["n_runs"], got["horizon"], got["di_rate_bits_per_step"]) == (2, 8, None)
        assert got["mean_err_sq"] == got["mean_cmi_bits"] == []
