"""Benchmark of mml's trial runner on two shipped experiment configs.

    python3 mmlbench/run.py --workload hyperbola_uniform_n2000 \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  A workload is a shipped config with
master_seed = --seed; its trial count is sized so the serial pass takes about
--seconds on a 2-core machine, with at least MIN_TIMED_TRIALS timed trials.

--trace 0 prints the end-to-end metrics: fresh processes time set-up, a
serial process times trials one by one, and run_experiment runs the same
trials on all cores.  --trace 1 adds a traced serial process and prints the
per-layer metrics (see spans.py).  Both check that every trials.csv is
byte-identical (serial, pool, traced, and the pin in pins.json at the pinned
seed and trial count) and that every record satisfies the invariants in
child.py; they exit 1 if any check fails or a trial raised.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_out")

# name -> (shipped config, nominal serial trials/s on the reference machine).
WORKLOADS = {
    "hyperbola_uniform_n2000": ("configs/hyperbola_uniform.cfg", 0.6),
    "rank_dist_cbounded_n1000": ("configs/rank_dist_cbounded.cfg", 2.0),
}
# The tail percentile needs ten timed trials beyond it.
MIN_TIMED_TRIALS = 11
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result (missing files, a child died)."""


def trial_count(rate: float, seconds: float) -> int:
    return 1 + max(MIN_TIMED_TRIALS, math.ceil(rate * seconds))


def run_child(argv: list[str], deadline: float) -> tuple[float | None, dict]:
    """Run one child to completion; (seconds until its READY line, its JSON result).

    The child gets its own process group so that a timeout also stops the
    pool workers it started.
    """
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before starting a child")
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          start_new_session=True) as proc:
        timer = threading.Timer(remaining, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            ready_s, last = None, ""
            for line in proc.stdout:
                if line.strip() == "READY" and ready_s is None:
                    ready_s = perf_counter() - t0
                elif line.strip():
                    last = line
            proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
        finally:
            timer.cancel()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited with {proc.returncode}")
    return ready_s, json.loads(last)


def import_seconds(deadline: float) -> float:
    """Median time to import mml in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import mml; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, text=True,
                             stdout=subprocess.PIPE, timeout=max(1.0, deadline - perf_counter()))
        samples.append(float(out.stdout))
    return statistics.median(samples)


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:  # no git program
        return None
    return out.stdout.strip() or None


def check_tree(config: str) -> None:
    for path in ("src/mml/__init__.py", config):
        if not os.path.isfile(os.path.join(ROOT, path)):
            raise BenchError(f"{path} not found: run from the root of an mml checkout")


def measure(args, pin: dict) -> tuple[dict, dict]:
    config, rate = WORKLOADS[args.workload]
    check_tree(config)
    trials = trial_count(rate, args.seconds)
    deadline = perf_counter() + DEADLINE_S

    def argv(role: str, *extra: str) -> list[str]:
        return [sys.executable, os.path.join(HERE, "child.py"), role, "--config", config,
                "--seed", str(args.seed), "--trials", str(trials), *extra]

    setup_s = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_s.append(run_child(argv("setup"), deadline)[0])
    ready, serial = run_child(argv("serial"), deadline)
    setup_s.append(ready)
    _, pooled = run_child(argv("pool"), deadline)
    hashes = {"serial": serial["sha256"], "pool": pooled["sha256"]}
    traced = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.npz")
        _, traced = run_child(argv("serial", "--trace", "--spans", spans_path), deadline)
        hashes["traced"] = traced["sha256"]
    if args.seed == pin["seed"] and trials == pin["trials"]:
        hashes["pinned"] = pin["sha256"]

    passes = [res for res in (serial, pooled, traced) if res is not None]
    attempted = sum(res["attempted"] for res in passes)
    failed = sum(res["failed"] for res in passes)
    problems = list(serial["invariant_errors"])
    if len(set(hashes.values())) != 1:
        problems.append(f"trials.csv hashes differ: {hashes}")

    with open(os.path.join(ROOT, config), "rb") as fh:
        config_sha = hashlib.sha256(fh.read()).hexdigest()
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "trials": trials, "config": config,
        "config_sha256": config_sha, "git_commit": git_commit(),
        **serial["provenance"], "pool_workers": pooled["workers"],
        "trials_csv_sha256": hashes, "problems": problems,
        "attempted": attempted, "failed": failed,
        "trial_error_rate": failed / attempted,
    }
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "trials_per_s": (serial["timed_trials"] / serial["loop_wall_s"], "trials/s"),
            "trial_s_p50": (serial["trial_s_p50"], "s"),
            "pool_trials_per_s": (trials / pooled["wall_s"], "trials/s"),
            "peak_rss_mb": (serial["maxrss_mb"], "MB"),
        }
        info["setup_samples_s"] = setup_s
        info["trial_s_tail"] = serial["trial_s_tail"]
        info["trial_s_tail_is"] = (f"p{serial['tail_pct']:.4g} of "
                                   f"{serial['timed_trials']} timed trials")
    else:
        layers = traced["layers"]
        layers["experiments.pool_efficiency"] = (
            serial["trial_seconds_sum"] / (pooled["workers"] * pooled["wall_s"]))
        layers["cli.import_s"] = import_seconds(deadline)
        layers["trace.trials_per_s"] = traced["timed_trials"] / traced["loop_wall_s"]
        with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = {name: (layers[name], unit) for name, unit in units.items()}
        info["untraced_trials_per_s"] = serial["timed_trials"] / serial["loop_wall_s"]
    return info, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="master_seed of the config (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
            pin = json.load(fh)[args.workload]
        if args.seed is None:
            args.seed = pin["seed"]
        info, metrics = measure(args, pin)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>16.6g} {unit}")
    print(f"{'trial_error_rate':<28} {info['trial_error_rate']:>16.6g} fraction "
          f"({info['failed']} of {info['attempted']} trials)")
    if args.trace:
        print("probability layer: unmeasured (no trial body of this workload calls it)")
    else:
        print(f"{'trial_s_tail':<28} {info['trial_s_tail']:>16.6g} s "
              f"({info['trial_s_tail_is']})")
    for problem in info["problems"]:
        print(f"FAILED CHECK: {problem}")
    print("provenance: " + json.dumps(info))
    correct = not info["problems"] and info["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
