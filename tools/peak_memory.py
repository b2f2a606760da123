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
``experiments.memory_estimate`` for that config and budget.  A first line,
``import-only - peak_MiB -``, gives the floor under them all: a process
that imports ``mml`` and runs no trial.  These are the numbers of README's
"Memory and scale" tables and of the model's fits.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Prints VmHWM and the model in bytes, or "-" for the model of a process
# given no config.  VmHWM rather than ru_maxrss, which keeps the high-water
# mark of the process that started this one.
CHILD = """
import dataclasses, re, sys
from mml import experiments, rng
model = "-"
if len(sys.argv) > 1:
    cfg = experiments.load_config(sys.argv[1])
    cfg = dataclasses.replace(cfg, trials=min(cfg.trials, int(sys.argv[2])))
    threads = int(sys.argv[3])
    with rng.thread_budget(threads):
        experiments.run_experiment(cfg)
    model = experiments.memory_estimate(cfg, threads)
with open("/proc/self/status") as fh:
    peak = 1024 * int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
print(peak, model)
"""


def peak_memory(*run_args: str) -> tuple[int, int | None]:
    """(VmHWM, model) in bytes of one process.

    Given ``config, trials, threads`` it runs config's first trials on that
    budget; given nothing it only imports ``mml``, and has no model.
    """
    env = dict(os.environ, MML_WORKERS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", CHILD, *run_args], env=env, capture_output=True, text=True,
    )
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        sys.exit(f"{' '.join(run_args) or 'import-only'} exited {run.returncode}")
    peak, model = run.stdout.split()
    return int(peak), None if model == "-" else int(model)


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="*", type=Path, metavar="CONFIG")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--threads", type=lambda text: [int(n) for n in text.split(",")])
    args = parser.parse_args(argv)
    configs = args.configs or sorted((ROOT / "configs").glob("*.cfg"))
    budgets = args.threads or sorted({1, len(os.sched_getaffinity(0))})
    print(f"import-only - {peak_memory()[0] / 2**20:.1f} -", flush=True)
    for config in configs:
        for threads in budgets:
            peak, model = peak_memory(str(config), str(args.trials), str(threads))
            print(f"{config.stem} {threads} {peak / 2**20:.1f} {model / 2**20:.1f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
