"""Batch front-end.

Subcommands: decompose, run, sweep, audit, report. Exit codes: 0 success,
1 operational error (including usage errors), 2 acceptance-invariant
violation (a bounded run whose information rate falls short of the
expansion rate). The master seed can also be supplied through the
SENSEBOUND_SEED environment variable; an explicit --seed wins.
"""

import argparse
import json
import os
import sys

import numpy as np

from .config import build_system, parse_config
from .errors import SenseboundError, ValidationError
from .experiments import bundled_names, bundled_text
from .report import (
    read_back_summary,
    read_bundle_config,
    run_experiment,
    run_sweep,
    summary_mismatches,
    to_jsonable,
)

SEED_ENV_VAR = "SENSEBOUND_SEED"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems are operational errors (exit 1); exit code 2 is
    # reserved for acceptance-invariant violations
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="sensebound", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_source(sp):
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--config", help="path to an experiment config file")
        group.add_argument(
            "--experiment",
            choices=bundled_names(),
            help="name of a bundled experiment",
        )

    def add_common(sp):
        add_source(sp)
        sp.add_argument("--seed", type=int, default=None, help="master seed, a whole number >= 0")
        sp.add_argument("--runs", type=int, default=None, help="override run count")
        sp.add_argument("--horizon", type=int, default=None, help="override horizon")
        sp.add_argument("--out", default=None, help="output bundle directory")
        sp.add_argument(
            "--workers", type=int, default=os.cpu_count() or 1,
            help="worker processes: a 1-D grid ensemble runs as one block per "
            "worker (two workers ran 200 sign-threshold-easy runs 1.7x faster "
            "than one on 2 cores), particle and 2-D grid runs are spread over "
            "the workers, and a Kalman ensemble always runs as one in-process "
            "block, because its Riccati steps are shared by every run and each "
            "worker would repeat them",
        )

    sp = sub.add_parser("decompose", help="print the mode decomposition of a system")
    add_source(sp)

    sp = sub.add_parser("run", help="run one experiment and write its bundle")
    add_common(sp)

    sp = sub.add_parser("sweep", help="vary one parameter over a list of values")
    add_common(sp)
    sp.add_argument("--param", required=True, help="dotted parameter path, e.g. channel.R")
    sp.add_argument(
        "--values", required=True,
        help='comma-separated JSON values, read as one JSON list: "0.5,1.0" or '
        '"[[0.25]],[[1.0]]"',
    )

    sp = sub.add_parser("audit", help="run with assumption audits enabled")
    add_common(sp)

    sp = sub.add_parser(
        "report", help="re-derive a bundle's summary.json from its files and compare it")
    sp.add_argument("--bundle", required=True, help="existing bundle directory")
    return p


def _config_text(args) -> str:
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            return fh.read()
    return bundled_text(args.experiment)


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"{SEED_ENV_VAR} = {env!r} is not a whole number",
                              field="run.seed") from None


def _cmd_decompose(args) -> int:
    _, decomp = build_system(parse_config(_config_text(args)))
    out = {
        "n": decomp.n,
        "n_u": decomp.n_u,
        "r_exp_bits_per_step": decomp.r_exp,
        "eigenvalues": decomp.eigenvalues,
        "A_u": decomp.A_u,
        "A_s": decomp.A_s,
        "B_u": decomp.B_u,
        "B_s": decomp.B_s,
        "T": decomp.T,
        "cond_T": float(np.linalg.cond(decomp.T)),
    }
    print(json.dumps(to_jsonable(out), indent=2, sort_keys=True))
    return 0


def _cmd_run(args, force_audit: bool = False) -> int:
    cfg = parse_config(_config_text(args))
    if force_audit:
        cfg.run["audit"] = True
    bundle = run_experiment(
        cfg,
        out_dir=args.out,
        seed=_resolve_seed(args),
        runs=args.runs,
        horizon=args.horizon,
        workers=max(1, args.workers),
    )
    s = bundle.summary
    print(f"experiment: {s['experiment']}")
    print(f"bundle:     {bundle.out_dir}")
    print(f"r_exp:      {s['r_exp_bits_per_step']:.6f} bits/step")
    if s["di_rate_bits_per_step"] is not None:
        print(f"di rate:    {s['di_rate_bits_per_step']:.6f} bits/step")
    oc = s["outcome"]
    print(
        "outcome:    bounded_state={ms_bounded_state} bounded_error={ms_bounded_error} "
        "asymptotic_error={asymptotic_error}".format(**oc)
    )
    if s.get("necessity"):
        nec = s["necessity"]
        status = "vacuous" if not nec["applicable"] else ("pass" if nec["passed"] else "FAIL")
        print(f"necessity:  {status} ({nec['detail']})")
    if s.get("audits"):
        for name, v in s["audits"]["verdicts"].items():
            state = "n/a" if not v["applicable"] else ("pass" if v["passed"] else "fail")
            print(f"{name}: {state} ({v['detail']})")
        acc = s["audits"].get("accumulation")
        if acc:
            print(
                f"hessian accumulation: first_negative_t={acc['first_negative_t']} "
                f"(threshold {acc['threshold']}, {acc['n_positive']} positive steps)"
            )
    if bundle.acceptance_violation:
        print("ACCEPTANCE VIOLATION: bounded run with deficient information rate",
              file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args) -> int:
    text = _config_text(args)
    try:
        values = json.loads("[" + args.values + "]")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"--values must be comma-separated JSON values: {exc}")
    if not values:
        raise _UsageError("--values is empty")
    out = args.out or "out/sweep"
    result = run_sweep(
        text, args.param, values, out, seed=_resolve_seed(args), runs=args.runs,
        horizon=args.horizon, workers=max(1, args.workers),
    )
    for row in result["rows"]:
        print(
            f"{args.param}={row['value']}: di_rate={row['di_rate_bits_per_step']} "
            f"bounded_error={row['ms_bounded_error']} halted={row['n_halted']}"
        )
    print(f"sweep bundle: {out}")
    return 2 if result["violation"] else 0


def _cmd_report(args) -> int:
    bundle_dir = args.bundle
    cfg = read_bundle_config(bundle_dir)
    derived = read_back_summary(bundle_dir, cfg)
    summary_path = os.path.join(bundle_dir, "summary.json")
    if not os.path.exists(summary_path):
        print("MISMATCH: summary.json missing", file=sys.stderr)
        return 1
    status = 0
    for key, detail in summary_mismatches(summary_path, derived):
        print(f"MISMATCH in {key}: {detail}", file=sys.stderr)
        status = 1
    if status == 0:
        print("summary.json matches the summary re-derived from the bundle")
    return status


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "audit":
            return _cmd_run(args, force_audit=True)
        if args.command == "report":
            return _cmd_report(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SenseboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
