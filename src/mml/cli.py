"""Command-line front end.

Subcommands:
    balance    read a market file, compute its balanced form, report it
    run        run a config-driven experiment and write result files
    enumerate  sample one latent-value draw from a market and list all stable
               matchings
    summarize  aggregate a previously written trials.csv

Every subcommand runs numpy's BLAS calls on the calling thread, as trials do,
so that `balance --out` writes the same bytes on any machine.

Exit codes: 0 on success (and all experiment checks passing), 1 when an
experiment ran but a check failed, 2 on bad input or usage, or when memory
runs out.
"""
from __future__ import annotations

import argparse
import os
import sys

from .errors import MmlError, ShapeMismatch
from .market import read_market, sinkhorn_balance, write_matrix_pair
from .matching import Side, deferred_acceptance, enumerate_stable
from .experiments import (
    format_stats,
    format_summary,
    load_config,
    records_from_csv,
    run_experiment,
    summarize,
    summarize_experiment,
    write_outputs,
)
from .rng import single_threaded_blas
from .sampling import sample_latent


def _cmd_balance(args: argparse.Namespace) -> int:
    market = read_market(args.market)
    bal = sinkhorn_balance(market, tol=args.tol, max_iters=args.max_iters)
    print(f"n: {bal.n}")
    print(f"iterations: {bal.sinkhorn_iters}")
    print(f"residual: {bal.residual:.3e}")
    print(f"contiguity constant: {float(bal.c_bound)!r}")
    print(f"fitness (men):   min {float(bal.phi.min())!r}  max {float(bal.phi.max())!r}")
    print(f"fitness (women): min {float(bal.psi.min())!r}  max {float(bal.psi.max())!r}")
    if args.out is not None:
        write_matrix_pair(args.out, bal.A, bal.B)
        print(f"balanced scores written to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    # An --out that cannot be a directory fails here, before any trial runs;
    # a run refused with exit 2 leaves no directory behind.  ``made`` lists
    # the directories makedirs creates, deepest first and each once by its
    # real path: it splits the path as given, so "x/../y" makes x, a "." or
    # ".." component names none, and "a/../a" names a again.
    made = []
    path = args.out
    while path and not os.path.isdir(path):
        head, tail = os.path.split(path)
        if not tail:  # a trailing separator
            head, tail = os.path.split(head)
        real = os.path.realpath(path)
        if tail not in (os.curdir, os.pardir) and real not in made:
            made.append(real)
        path = head
    os.makedirs(args.out, exist_ok=True)
    try:
        summary, records = run_experiment(cfg)
    except (MmlError, MemoryError):
        for path in made:
            os.rmdir(path)
        raise
    write_outputs(args.out, cfg, summary, records)
    sys.stdout.write(format_summary(summary))
    print(f"outputs written to {args.out}")
    if summary.get("interrupted"):
        return 130
    return 0 if summary["passed"] else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    market = read_market(args.market)
    values = sample_latent(market, args.seed)
    stable = enumerate_stable(values)
    man_optimal, _ = deferred_acceptance(values, Side.MEN)
    woman_optimal, _ = deferred_acceptance(values, Side.WOMEN)
    print(f"stable matchings: {len(stable)}")
    for idx, matching in enumerate(stable, start=1):
        tags = []
        if matching == man_optimal:
            tags.append("man-optimal")
        if matching == woman_optimal:
            tags.append("woman-optimal")
        suffix = f" ({', '.join(tags)})" if tags else ""
        print(f"# {idx} of {len(stable)}{suffix}")
        text = matching.to_text()
        if text:
            print(text)
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    try:
        with open(args.trials, "r", encoding="utf-8") as fh:
            records = records_from_csv(fh.read())
    except (ShapeMismatch, UnicodeDecodeError) as exc:
        raise ShapeMismatch(f"{args.trials}: {exc}") from None
    if args.config is not None:
        cfg = load_config(args.config)
        summary = summarize_experiment(cfg, records)
        sys.stdout.write(format_summary(summary))
        return 0 if summary["passed"] else 1
    print(f"records: {len(records)}")
    sys.stdout.write(format_stats(summarize(records)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mml", description="Matching markets with logit preferences."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_balance = sub.add_parser("balance", help="balance a market's score matrices")
    p_balance.add_argument("market", help="market file (canonical or raw scores)")
    p_balance.add_argument("--tol", type=float, default=1e-10)
    p_balance.add_argument("--max-iters", type=int, default=10_000)
    p_balance.add_argument("--out", default=None, help="write balanced scores here")
    p_balance.set_defaults(func=_cmd_balance)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config", help="experiment config file (key = value lines)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_enum = sub.add_parser(
        "enumerate", help="enumerate stable matchings of one sampled draw"
    )
    p_enum.add_argument("market", help="market file")
    p_enum.add_argument("--seed", type=int, required=True)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_sum = sub.add_parser("summarize", help="summarize a trials.csv")
    p_sum.add_argument("trials", help="trials.csv from a previous run")
    p_sum.add_argument(
        "--config", default=None, help="re-apply this config's pass checks"
    )
    p_sum.set_defaults(func=_cmd_summarize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with single_threaded_blas():
            return args.func(args)
    except (MmlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
