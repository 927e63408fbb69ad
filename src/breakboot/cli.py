"""Command line interface.

Verbs:
  gen       generate one scenario dataset and write it as CSV
  simulate  run one Monte Carlo cell and write its rejection-rate rows
  table     run a grid of cells, one per entry of a JSON grid file
  test      run one structural-change test on user data

Each setting has one name, its flag's long name.  :func:`_flag_values`
converts a JSON object of such names as the same text on the command line
would be.  ``--config`` supplies the verb's defaults, so explicit flags
win; each ``--grid`` entry overrides the command line's values for one
cell.  Exit codes: 0 success, 2 configuration error, 3 numerical failure
cap exceeded.
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


def _alpha_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _rf_breaks(text: str) -> str | int:
    return text if text == "auto" else int(text)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command line parser, and each verb's own parser by verb."""
    parser = argparse.ArgumentParser(
        prog="breakboot",
        description="Bootstrap structural-change tests for 2SLS models",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    gen = sub.add_parser("gen", help="generate a scenario dataset as CSV")
    sim = sub.add_parser("simulate", help="run one Monte Carlo cell")
    tbl = sub.add_parser("table", help="run a grid of Monte Carlo cells")
    tst = sub.add_parser("test", help="test user data for parameter change")
    for p in (gen, sim, tbl):  # the generated dataset
        p.add_argument("--scenario", choices=list(dgp.SCENARIOS), default="h0m0")
        p.add_argument("--case", choices=list(dgp.ERROR_CASES), default="A")
        p.add_argument("--T", type=int, default=240)
        p.add_argument("--g", type=float, default=0.0)
    gen.add_argument("--burn-in", type=int, default=200)
    for p in (sim, tbl):  # the Monte Carlo cell
        p.add_argument("--N", type=int, default=1000)
        p.add_argument("--threads", type=int, default=1)
    tbl.add_argument("--grid", help="JSON file with a list of per-cell flag overrides")
    tst.add_argument("--data", help="dataset CSV (y,x1..,r1..)")
    tst.add_argument("--spec", help="model spec JSON")
    tst.add_argument("--null-breaks", type=int, default=0)
    tst.add_argument("--alt-breaks", type=int, default=None,
                     help="alternative break count (default: --null-breaks + 1)")
    tst.add_argument("--rf-breaks", type=_rf_breaks, default="auto",
                     help="'auto' for the sequential pre-test or an integer count")
    for p in (sim, tbl, tst):  # the bootstrap test
        p.add_argument("--B", type=int, default=399)
        p.add_argument("--alpha", type=_alpha_list, default="0.10,0.05,0.01")
        p.add_argument("--test", choices=STATISTICS, default="supwald")
        p.add_argument("--scheme", choices=SCHEMES, default="wr")
        p.add_argument("--eps", type=float, default=0.15)
    verbs = {"gen": gen, "simulate": sim, "table": tbl, "test": tst}
    for p in verbs.values():
        p.add_argument("--config", help="JSON file supplying any flag by long name")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
    return parser, verbs


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _flag_values(verb: argparse.ArgumentParser, settings, source: str) -> dict:
    """The verb's flag values, by destination, from a JSON object of settings.

    Each key must be a flag of the verb ("rf-breaks" or "rf_breaks"), and
    each value one string or number that converts by the flag's type and
    choices; anything else is a ConfigError.
    """
    if not isinstance(settings, dict):
        raise ConfigError(f"{source} must be a JSON object of flag values")
    flags = {a.dest: a for a in verb._actions if a.dest != "help"}
    values = {}
    for key, value in settings.items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            raise ConfigError(f"{source} key {key!r} is not a flag of '{verb.prog}'")
        if not isinstance(value, (str, int, float)):
            raise ConfigError(f"{source} key {key!r} takes one value, got {value!r}")
        try:
            values[flag.dest] = (flag.type or str)(str(value))
        except ValueError as exc:
            raise ConfigError(f"{source} key {key!r}: bad value {value!r}") from exc
        if flag.choices is not None and values[flag.dest] not in flag.choices:
            raise ConfigError(f"{source} key {key!r}: {value!r} is not one of {flag.choices}")
    return values


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
        alphas=args.alpha,
        test=args.test,
        scheme=args.scheme,
        eps=args.eps,
        master_seed=args.seed,
        threads=args.threads,
    )


def _cmd_simulate(args) -> int:
    cfg = _mc_config(args)
    if args.out:
        run_table([cfg], args.out, progress=sys.stderr)
        print(f"wrote {args.out}")
        return 0
    cell = run_cell(cfg, progress=sys.stderr)
    for a in cfg.alphas:
        print(f"alpha={a:g}: rejection rate {cell.rates[a]:.4f}")
    return 0


def _cmd_table(args, verb: argparse.ArgumentParser) -> int:
    if not args.grid:
        raise ConfigError("table requires --grid")
    grid = _read_json(args.grid, "grid")
    if not isinstance(grid, list):
        raise ConfigError("grid file must hold a JSON list of objects")
    cells = [
        _mc_config(argparse.Namespace(**vars(args) | _flag_values(verb, e, f"grid entry {i}")))
        for i, e in enumerate(grid)
    ]
    out = args.out or "table.csv"
    run_table(cells, out, progress=sys.stderr)
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
    _, report = test_dataset(
        make_design(spec, data),
        BootstrapConfig(args.scheme, args.B, args.seed),
        null_breaks=args.null_breaks,
        alt_breaks=args.null_breaks + 1 if args.alt_breaks is None else args.alt_breaks,
        statistic=args.test,
        eps=args.eps,
        alphas=args.alpha,
        rf_breaks=args.rf_breaks,
    )
    print(report)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser, verbs = build_parser()
    args = parser.parse_args(argv)
    verb = verbs[args.verb]
    try:
        if args.config:  # the file's values become defaults, so explicit flags win
            verb.set_defaults(**_flag_values(verb, _read_json(args.config, "config"), "config"))
            args = parser.parse_args(argv)
        if args.verb == "gen":
            return _cmd_gen(args)
        if args.verb == "simulate":
            return _cmd_simulate(args)
        if args.verb == "table":
            return _cmd_table(args, verb)
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
