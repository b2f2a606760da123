"""Peak resident memory of one trial process per config, beside the memory model.

Usage:
    python tools/peak_memory.py [--trials T] [--threads N[,N...]] [CONFIG ...]

Runs each config (default: every ``configs/*.cfg``) in a fresh interpreter
that imports ``mml`` from this tree's ``src/``, with ``MML_WORKERS=1``: its
first T trials (default 5) through ``run_experiment``, on a budget of N
row-block threads for each N given (default: one, as a pool worker on 2
cores runs, and every usable core, as a serial run does).  The runs go one
at a time, and each prints one line:

    config threads peak_MiB model_MiB

The peak is the process's VmHWM, so this needs Linux; the model is
``experiments.memory_estimate`` for that config and budget.  These are the
numbers of README's "Memory and scale" tables and of the model's fits.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Prints VmHWM and the model in bytes.  VmHWM rather than ru_maxrss, which
# keeps the high-water mark of the process that started this one.
CHILD = """
import dataclasses, re, sys
from mml import experiments, rng
cfg = experiments.load_config(sys.argv[1])
cfg = dataclasses.replace(cfg, trials=min(cfg.trials, int(sys.argv[2])))
threads = int(sys.argv[3])
with rng.thread_budget(threads):
    experiments.run_experiment(cfg)
with open("/proc/self/status") as fh:
    peak = 1024 * int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
print(peak, experiments.memory_estimate(cfg, threads))
"""


def peak_memory(config: Path, trials: int, threads: int) -> tuple[int, int]:
    """(VmHWM, model) in bytes of one process running config's first trials."""
    env = dict(os.environ, MML_WORKERS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", CHILD, str(config), str(trials), str(threads)],
        env=env, capture_output=True, text=True,
    )
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        sys.exit(f"{config} on {threads} thread(s) exited {run.returncode}")
    peak, model = map(int, run.stdout.split())
    return peak, model


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="*", type=Path, metavar="CONFIG")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--threads", type=lambda text: [int(n) for n in text.split(",")])
    args = parser.parse_args(argv)
    configs = args.configs or sorted((ROOT / "configs").glob("*.cfg"))
    budgets = args.threads or sorted({1, len(os.sched_getaffinity(0))})
    for config in configs:
        for threads in budgets:
            peak, model = peak_memory(config, args.trials, threads)
            print(f"{config.stem} {threads} {peak / 2**20:.1f} {model / 2**20:.1f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
