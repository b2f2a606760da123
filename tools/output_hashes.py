"""Hash every output file of configs run at one and at two worker processes.

Usage:
    python tools/output_hashes.py [CONFIG ...]

Runs each config (default: every ``configs/*.cfg``) through ``mml run`` from
this tree's ``src/``, with ``MML_WORKERS=1`` and ``=2``, each into a new
temporary directory, and prints one line per output file, sorted:

    config workers file sha256

Diff this output between two trees to check that a change keeps every
output byte.  A run that exits 1 (a check failed) still writes its files
and is hashed; any other exit code stops the script, which prints the
run's error output and exits 1.
"""
from __future__ import annotations

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


def main(argv: list[str]) -> None:
    configs = [Path(arg) for arg in argv] or sorted((ROOT / "configs").glob("*.cfg"))
    lines = [line for cfg in configs for w in WORKERS for line in output_hashes(cfg, w)]
    print("\n".join(sorted(lines)))


if __name__ == "__main__":
    main(sys.argv[1:])
