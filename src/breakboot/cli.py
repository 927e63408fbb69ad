"""Command line interface.

Verbs:
  gen       generate one scenario dataset and write it as CSV
  simulate  run one Monte Carlo cell and write its rejection-rate rows
  table     run a grid of cells from a config file
  test      run one structural-change test on user data

A JSON config file (--config) may supply any flag by its long name;
explicit flags override the file.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dgp
from .bootstrap import SCHEMES, BootstrapConfig
from .estimation import make_design
from .exceptions import BootstrapFailureError, BreakbootError, ConfigError
from .harness import McConfig, run_cell, run_table, test_dataset
from .model import Dataset, ModelSpec
from .stats import STATISTICS


def _parse_alphas(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --alpha list {text!r}") from exc


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file supplying any flag by long name")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)


def _add_cell_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", choices=list(dgp.SCENARIOS), default="h0m0")
    p.add_argument("--case", choices=list(dgp.ERROR_CASES), default="A")
    p.add_argument("--T", type=int, default=240)
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument("--N", type=int, default=1000)
    p.add_argument("--B", type=int, default=399)
    p.add_argument("--alpha", default="0.10,0.05,0.01")
    p.add_argument("--test", choices=STATISTICS, default="supwald")
    p.add_argument("--scheme", choices=SCHEMES, default="wr")
    p.add_argument("--eps", type=float, default=0.15)
    p.add_argument("--threads", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="breakboot",
        description="Bootstrap structural-change tests for 2SLS models",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", help="generate a scenario dataset as CSV")
    gen.add_argument("--scenario", choices=list(dgp.SCENARIOS), default="h0m0")
    gen.add_argument("--case", choices=list(dgp.ERROR_CASES), default="A")
    gen.add_argument("--T", type=int, default=240)
    gen.add_argument("--g", type=float, default=0.0)
    gen.add_argument("--burn-in", type=int, default=200)
    _add_common(gen)

    sim = sub.add_parser("simulate", help="run one Monte Carlo cell")
    _add_cell_flags(sim)
    _add_common(sim)

    tbl = sub.add_parser("table", help="run a grid of Monte Carlo cells")
    _add_cell_flags(tbl)
    tbl.add_argument(
        "--grid",
        help="JSON file with a list of per-cell flag overrides",
    )
    _add_common(tbl)

    tst = sub.add_parser("test", help="test user data for parameter change")
    tst.add_argument("--data", required=False, help="dataset CSV (y,x1..,r1..)")
    tst.add_argument("--spec", required=False, help="model spec JSON")
    tst.add_argument("--null-breaks", type=int, default=0)
    tst.add_argument("--alt-breaks", type=int, default=1)
    tst.add_argument("--B", type=int, default=399)
    tst.add_argument("--alpha", default="0.10,0.05,0.01")
    tst.add_argument("--test", choices=STATISTICS, default="supwald")
    tst.add_argument("--scheme", choices=SCHEMES, default="wr")
    tst.add_argument("--eps", type=float, default=0.15)
    tst.add_argument(
        "--rf-breaks",
        default="auto",
        help="'auto' for the sequential pre-test or an integer count",
    )
    _add_common(tst)
    return parser


def _apply_config_file(args: argparse.Namespace, argv: list[str] | None):
    """Fill the flags argv does not give from the JSON config; explicit flags win.

    A flag counts as given when argv names it, even with its default value.
    A file value goes through its flag's type and choices, as the same
    value typed on the command line would; one that does not convert is a
    ConfigError.
    """
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config) as fh:
            file_values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(file_values, dict):
        raise ConfigError("config file must hold a JSON object")
    parser = build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in verbs.choices[args.verb]._actions if a.dest in vars(args)}
    for flag in flags.values():  # parse argv again to see which flags it gives
        flag.default = argparse.SUPPRESS
    given = vars(parser.parse_args(argv))
    for key, value in file_values.items():
        attr = key.replace("-", "_")
        if attr not in flags:
            raise ConfigError(f"config key {key!r} is not a flag of '{args.verb}'")
        flag = flags[attr]
        if attr in given:
            continue
        if not isinstance(value, (str, int, float)):
            raise ConfigError(f"config key {key!r} takes one value, got {value!r}")
        try:
            value = (flag.type or str)(str(value))
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"config key {key!r}: bad value {value!r}") from exc
        if flag.choices is not None and value not in flag.choices:
            raise ConfigError(f"config key {key!r}: {value!r} is not one of {list(flag.choices)}")
        setattr(args, attr, value)
    return args


def _cmd_gen(args) -> int:
    cfg = dgp.ScenarioConfig(
        scenario=args.scenario,
        error_case=args.case,
        T=args.T,
        g=args.g,
        burn_in=args.burn_in,
        seed=args.seed,
    )
    data, _ = dgp.generate(cfg)
    out = args.out or "data.csv"
    data.to_csv(out)
    print(f"wrote {data.T} rows to {out}")
    return 0


def _mc_config(args) -> McConfig:
    return McConfig(
        scenario=args.scenario,
        error_case=args.case,
        T=args.T,
        g=args.g,
        N=args.N,
        B=args.B,
        alphas=_parse_alphas(args.alpha),
        test=args.test,
        scheme=args.scheme,
        eps=args.eps,
        master_seed=args.seed,
        threads=args.threads,
    )


def _cmd_simulate(args) -> int:
    cfg = _mc_config(args)
    if args.out:
        run_table(cfg, [{}], args.out, progress=sys.stderr)
        print(f"wrote {args.out}")
        return 0
    cell = run_cell(cfg, progress=sys.stderr)
    for a in cfg.alphas:
        print(f"alpha={a:g}: rejection rate {cell.rates[a]:.4f}")
    return 0


def _cmd_table(args) -> int:
    if not args.grid:
        raise ConfigError("table requires --grid")
    try:
        with open(args.grid) as fh:
            grid = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read grid {args.grid}: {exc}") from exc
    if not isinstance(grid, list) or not all(isinstance(c, dict) for c in grid):
        raise ConfigError("grid file must hold a JSON list of objects")
    base = _mc_config(args)
    out = args.out or "table.csv"
    run_table(base, grid, out, progress=sys.stderr)
    print(f"wrote {out}")
    return 0


def _cmd_test(args) -> int:
    if not args.data or not args.spec:
        raise ConfigError("test requires --data and --spec")
    try:
        spec = ModelSpec.from_json(args.spec)
        data = Dataset.from_csv(args.data)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    rf = args.rf_breaks
    if rf != "auto":
        try:
            rf = int(rf)
        except ValueError:
            raise ConfigError("--rf-breaks must be 'auto' or an integer") from None
    _, report = test_dataset(
        make_design(spec, data),
        BootstrapConfig(args.scheme, args.B, args.seed),
        null_breaks=args.null_breaks,
        alt_breaks=args.alt_breaks,
        statistic=args.test,
        eps=args.eps,
        alphas=_parse_alphas(args.alpha),
        rf_breaks=rf,
    )
    print(report)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(args, argv)
        if args.verb == "gen":
            return _cmd_gen(args)
        if args.verb == "simulate":
            return _cmd_simulate(args)
        if args.verb == "table":
            return _cmd_table(args)
        return _cmd_test(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BootstrapFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BreakbootError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
