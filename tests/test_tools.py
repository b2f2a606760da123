"""The scripts under tools/, run as a user runs them."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_output_hashes_agree_across_worker_counts():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_hashes.py"),
         str(ROOT / "configs" / "value_dist_small.cfg")],
        capture_output=True, text=True, check=True,
    )
    hashes: dict[str, dict[str, str]] = {}
    for line in run.stdout.splitlines():
        config, workers, name, digest = line.split()
        assert config == "value_dist_small.cfg"
        hashes.setdefault(name, {})[workers] = digest
    assert sorted(hashes) == ["summary.json", "summary.txt", "trials.csv", "trials.jsonl"]
    for name, by_workers in hashes.items():
        assert sorted(by_workers) == ["1", "2"], name
        assert len(set(by_workers.values())) == 1, name


def test_output_hashes_against_a_saved_run_fails_on_a_doctored_line(tmp_path):
    def hashes(*args):
        return subprocess.run(
            [sys.executable, str(ROOT / "tools" / "output_hashes.py"), *args,
             str(ROOT / "configs" / "value_dist_small.cfg")],
            capture_output=True, text=True,
        )

    saved = tmp_path / "saved.txt"
    saved.write_text(hashes().stdout, encoding="utf-8")
    run = hashes("--against", str(saved))
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout == f"8 lines match {saved}\n"
    lines = saved.read_text(encoding="utf-8").splitlines()
    config, workers, name, digest = lines[2].split()
    doctored = f"{config} {workers} {name} {'0' if digest[0] != '0' else '1'}{digest[1:]}"
    saved.write_text("\n".join([*lines[:2], doctored, *lines[3:]]) + "\n", encoding="utf-8")
    run = hashes("--against", str(saved))
    assert run.returncode == 1
    assert sorted(run.stdout.splitlines()) == sorted([f"now {lines[2]}", f"saved {doctored}"])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
def test_peak_memory_prints_the_peak_beside_the_model():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "peak_memory.py"), "--trials", "1",
         "--threads", "1,2", str(ROOT / "configs" / "value_dist_small.cfg")],
        capture_output=True, text=True, check=True,
    )
    floor, *lines = [line.split() for line in run.stdout.splitlines()]
    assert floor[:2] == ["import-only", "-"] and floor[3] == "-"
    assert [line[:2] for line in lines] == [["value_dist_small", "1"], ["value_dist_small", "2"]]
    for _, _, peak, model in lines:
        assert 0.0 < float(floor[2]) <= float(peak) <= float(model)
