"""Hash every output file of configs run at one and at two worker processes.

Usage:
    python tools/output_hashes.py [--against FILE] [CONFIG ...]

Runs each config (default: every ``configs/*.cfg`` and
``tests/configs/*.cfg``) through ``mml run`` from this tree's ``src/``,
with ``MML_WORKERS=1`` and ``=2``, each into a new temporary directory,
and prints one line per output file, sorted:

    config workers file sha256

Diff this output between two trees to check that a change keeps every
output byte, or save it from one tree and pass it to the other with
``--against FILE``.  The script then compares its lines with the saved
lines of the configs it ran, prints each line found on one side only,
marked ``saved`` or ``now``, then one line per config whose bytes moved
and how many configs match:

    moved config: file ...
    matched of ran configs match FILE

and exits 1 if a line differs; else it prints how many lines match.  A
run that exits 1 (a check failed) still writes its files and is hashed;
any other exit code stops the script, which prints the run's error
output and exits 1.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = ("1", "2")


def output_hashes(config: Path, workers: str) -> list[str]:
    """The ``config workers file sha256`` lines of one run of ``config``."""
    env = dict(os.environ, MML_WORKERS=workers)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as out:
        run = subprocess.run(
            [sys.executable, "-m", "mml.cli", "run", str(config), "--out", out],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if run.returncode not in (0, 1):
            sys.stderr.write(run.stderr)
            sys.exit(f"{config} at MML_WORKERS={workers} exited {run.returncode}")
        return [
            f"{config.name} {workers} {path.name} "
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}"
            for path in Path(out).iterdir()
        ]


def differences(saved: list[str], lines: list[str]) -> list[str]:
    """The saved lines of the configs in ``lines`` that these lines do not
    repeat, and the lines the saved ones lack, each marked with its side."""
    configs = {line.split()[0] for line in lines}
    saved_set = {line for line in saved if line.split()[0] in configs}
    now = set(lines)
    return sorted(
        [f"saved {line}" for line in saved_set - now] + [f"now {line}" for line in now - saved_set],
        key=lambda line: line.split(maxsplit=1)[1],
    )


def moved(differ: list[str]) -> list[str]:
    """One ``moved config: file ...`` line per config of the marked lines."""
    files: dict[str, set[str]] = {}
    for line in differ:
        _, config, _, name, _ = line.split()
        files.setdefault(config, set()).add(name)
    return [f"moved {config}: {' '.join(sorted(names))}" for config, names in sorted(files.items())]


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="*", type=Path, metavar="CONFIG")
    parser.add_argument("--against", type=Path, metavar="FILE")
    args = parser.parse_args(argv)
    configs = args.configs or [
        *sorted((ROOT / "configs").glob("*.cfg")), *sorted((ROOT / "tests/configs").glob("*.cfg"))
    ]
    lines = sorted(line for cfg in configs for w in WORKERS for line in output_hashes(cfg, w))
    if args.against is None:
        print("\n".join(lines))
        return
    saved = args.against.read_text(encoding="utf-8").splitlines()
    differ = differences([line for line in saved if line.strip()], lines)
    if differ:
        closing = moved(differ)
        ran = len({line.split()[0] for line in lines})
        print("\n".join([*differ, *closing]))
        print(f"{ran - len(closing)} of {ran} configs match {args.against}")
        sys.exit(1)
    print(f"{len(lines)} lines match {args.against}")


if __name__ == "__main__":
    main(sys.argv[1:])
