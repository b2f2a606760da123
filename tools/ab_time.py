"""Time whole trials of one config in two trees of ``mml``, alternating in one process.

Usage:
    python tools/ab_time.py [--rounds R] [--trials K] [--threads T]
                            [--stage trial|matchings] REV|PATH CONFIG

Side A is ``src/mml`` at git revision REV, exported with ``git archive``,
or the ``src/mml`` of the tree at PATH (PATH may also be an ``mml``
package directory).  Side B is this tree's ``src/mml``.  Both are imported
into this process under the package names ``mml_a`` and ``mml_b``, so they
share the interpreter, the allocator and the host's load; timings of two
trees in separate processes carry offsets of their own.

First both sides run trial 0 of CONFIG, and the script exits 1 unless they
give the same records.  Then each of R rounds (default 12) runs trials
0 .. K-1 (default 3) through each side's ``run_trial`` under its
``thread_budget(T)`` (default 1), the side that goes first alternating
from round to round, and takes each side's CPU time (``process_time``,
every thread's) and wall time (``perf_counter``).  It prints:

    records equal: trial 0, N records
    cpu median RATIO interval LOW HIGH level LEVEL a_s SECONDS b_s SECONDS
    wall median RATIO interval LOW HIGH level LEVEL a_s SECONDS b_s SECONDS

RATIO is the median over rounds of B's time over A's (below 1: B is
faster), and a_s and b_s each side's median seconds a round.  LOW and HIGH
are the sign test's interval for the median ratio: the ratios of ranks k
and R + 1 - k, k the largest whose coverage LEVEL is at least 95 % (k = 3,
LEVEL 0.961 at R = 12; at R < 6 no k reaches it, and k = 1).  An interval
that holds 1 shows no difference; at R = 12 one that excludes it needs 10
rounds on one side of 1.

``--stage matchings`` times one layer instead of whole trials: each side's
``experiments._optimal_matchings`` (both latent passes and both deferred
acceptance walks) on the markets of trials 0 .. K-1, which each side
builds once, before any round, and trial t's seed.  CONFIG must then be a
``value_dist``, ``rank_dist`` or ``hyperbola`` config, and the first line
reads ``matchings equal: trial 0, N matchings``: both sides' matchings,
values, ranks and proposal counts of trial 0, compared as bytes.  On a
C-bounded config the stage also times the market's build and balance:
a C-bounded trial screens each side's values in the pass that builds
that side's part of the balancing kernel, so the build does not stand
apart from the matchings.  A side whose ``experiments`` has
``_cbounded_matchings`` is timed on it; an older tree, on
``_trial_market`` then ``_optimal_matchings``.
"""
from __future__ import annotations

import argparse
import functools
import gc
import importlib
import importlib.util
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def package_dir(tree: str, scratch: Path) -> Path:
    """The ``mml`` package of a tree path, or of a revision exported into ``scratch``."""
    path = Path(tree)
    if path.is_dir():
        return path / "src" / "mml" if (path / "src" / "mml").is_dir() else path
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", tree, "src/mml"], capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(scratch)], input=archive, check=True)
    return scratch / "src" / "mml"


def load(name: str, package: Path):
    """Import the package directory ``package`` as ``name``; its experiments and rng modules."""
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.experiments"), importlib.import_module(f"{name}.rng")


def sign_interval(ratios: list[float], alpha: float = 0.05) -> tuple[float, float, float]:
    """The sign test's interval for the median of ``ratios``: (low, high, coverage)."""
    ordered, m = sorted(ratios), len(ratios)

    def tail(k: int) -> float:  # P(Binomial(m, 1/2) < k)
        return sum(math.comb(m, i) for i in range(k)) / 2**m

    k = max((k for k in range(1, m // 2 + 1) if 2 * tail(k) <= alpha), default=1)
    return ordered[k - 1], ordered[m - k], 1 - 2 * tail(k)


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", metavar="REV|PATH")
    parser.add_argument("config", type=Path, metavar="CONFIG")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--stage", choices=("trial", "matchings"), default="trial")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        sides = [load("mml_a", package_dir(args.tree, Path(scratch))),
                 load("mml_b", ROOT / "src" / "mml")]
        compare(sides, args)


# The experiments whose trials solve both optimal matchings of one draw.
MATCHING_EXPERIMENTS = ("value_dist", "rank_dist", "hyperbola")


def solved_bytes(solved: list) -> list:
    """``_optimal_matchings``'s matchings and outcomes, as comparable values."""
    return [
        (matching.mu, outcome.value_men.tobytes(), outcome.value_women.tobytes(),
         None if outcome.rank_men is None else outcome.rank_men.tobytes(),
         outcome.proposal_count)
        for matching, outcome in solved
    ]


def stage_calls(side: tuple, config, stage: str, count: int) -> list:
    """The timed calls of trials 0 .. count-1 of one side: whole trials, or their
    matchings (with the market's build and balance, on a C-bounded config)."""
    experiments, rng = side
    if stage == "trial":
        return [functools.partial(experiments.run_trial, config, t) for t in range(count)]
    seeds = [rng.stream_key(config.master_seed, "trial", t) for t in range(count)]
    if config.market.value == "cbounded":
        def built(t, seed):
            with rng.single_threaded_blas():
                fused = getattr(experiments, "_cbounded_matchings", None)
                if fused is not None:
                    return fused(config, t, seed)[1]
                return experiments._optimal_matchings(experiments._trial_market(config, t), seed)

        return [functools.partial(built, t, seed) for t, seed in enumerate(seeds)]
    with rng.single_threaded_blas():
        markets = [experiments._trial_market(config, t) for t in range(count)]

    def matchings(bal, seed):
        with rng.single_threaded_blas():
            return experiments._optimal_matchings(bal, seed)

    return [functools.partial(matchings, bal, seed) for bal, seed in zip(markets, seeds)]


def compare(sides: list, args: argparse.Namespace) -> None:
    """Check trial 0's results on both sides, then time and print the rounds."""
    configs = [experiments.load_config(args.config) for experiments, _ in sides]
    if args.stage == "matchings" and configs[1].experiment.value not in MATCHING_EXPERIMENTS:
        sys.exit(f"--stage matchings needs a {', '.join(MATCHING_EXPERIMENTS)} config")
    calls = [stage_calls(side, config, args.stage, args.trials)
             for side, config in zip(sides, configs)]

    def trials(side: int, count: int) -> tuple[float, float, list]:
        """CPU and wall seconds of side's calls 0 .. count-1, and call 0's result."""
        _, rng = sides[side]
        gc.collect()
        with rng.thread_budget(args.threads):
            cpu, wall = time.process_time(), time.perf_counter()
            results = [call() for call in calls[side][:count]]
            return time.process_time() - cpu, time.perf_counter() - wall, results[0]

    first = [trials(side, 1)[2] for side in (0, 1)]
    if args.stage == "trial":
        if sides[0][0].records_to_csv(first[0]) != sides[1][0].records_to_csv(first[1]):
            sys.exit("records differ: the two trees give trial 0 different records")
        print(f"records equal: trial 0, {len(first[0])} records", flush=True)
    else:
        if solved_bytes(first[0]) != solved_bytes(first[1]):
            sys.exit("matchings differ: the two trees give trial 0 different matchings")
        print(f"matchings equal: trial 0, {len(first[0])} matchings", flush=True)
    seconds: list[list[tuple[float, float]]] = [[], []]
    for round_ in range(args.rounds):
        for side in (0, 1) if round_ % 2 == 0 else (1, 0):
            seconds[side].append(trials(side, args.trials)[:2])
    for clock, name in enumerate(("cpu", "wall")):
        a, b = ([times[clock] for times in seconds[side]] for side in (0, 1))
        ratios = [y / x for x, y in zip(a, b)]
        low, high, level = sign_interval(ratios)
        print(f"{name} median {statistics.median(ratios):.4f} interval {low:.4f} {high:.4f} "
              f"level {level:.3f} a_s {statistics.median(a):.4f} b_s {statistics.median(b):.4f}")


if __name__ == "__main__":
    main(sys.argv[1:])
