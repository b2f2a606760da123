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
    out = run.stdout.splitlines()
    assert sorted(out[:2]) == sorted([f"now {lines[2]}", f"saved {doctored}"])
    assert out[2:] == [f"moved {config}: {name}", f"0 of 1 configs match {saved}"]


def test_output_hashes_names_each_config_whose_bytes_moved(tmp_path):
    # The same config under a second name, so that one config matches and
    # one moves: two of its files at one worker count, one of them at both.
    twin = tmp_path / "twin.cfg"
    twin.write_text((ROOT / "configs" / "value_dist_small.cfg").read_text(encoding="utf-8"),
                    encoding="utf-8")

    def hashes(*args):
        return subprocess.run(
            [sys.executable, str(ROOT / "tools" / "output_hashes.py"), *args,
             str(ROOT / "configs" / "value_dist_small.cfg"), str(twin)],
            capture_output=True, text=True,
        )

    lines = hashes().stdout.splitlines()
    doctored = []
    for line in lines:
        config, workers, name, digest = line.split()
        if config == "twin.cfg" and (name, workers) in {("trials.csv", "1"), ("trials.csv", "2"),
                                                        ("summary.json", "2")}:
            line = f"{config} {workers} {name} {'0' if digest[0] != '0' else '1'}{digest[1:]}"
        doctored.append(line)
    saved = tmp_path / "saved.txt"
    saved.write_text("\n".join(doctored) + "\n", encoding="utf-8")
    run = hashes("--against", str(saved))
    assert run.returncode == 1, run.stdout + run.stderr
    out = run.stdout.splitlines()
    assert len(out) == 2 * 3 + 2
    assert {line.split()[0] for line in out[:6]} == {"now", "saved"}
    assert out[6:] == ["moved twin.cfg: summary.json trials.csv", f"1 of 2 configs match {saved}"]


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


TINY_CONFIG = """
experiment = hyperbola
market = uniform
n = 60
trials = 2
master_seed = 3
"""


def ab_time(tree, config, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_time.py"), *args, str(tree), str(config)],
        capture_output=True, text=True,
    )


def test_ab_time_of_the_tree_against_itself_prints_its_report(tmp_path):
    # The interval is not checked: an A/A interval misses 1 by chance.
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    run = ab_time(ROOT, config, "--rounds", "3", "--trials", "1", "--threads", "2")
    assert run.returncode == 0, run.stderr
    records, *clocks = run.stdout.splitlines()
    assert records == "records equal: trial 0, 2 records" and len(clocks) == 2
    for name, line in zip(("cpu", "wall"), clocks):
        fields = line.split()
        assert [fields[i] for i in (0, 1, 3, 6, 8, 10)] == [
            name, "median", "interval", "level", "a_s", "b_s"
        ]
        median, low, high, level, a_s, b_s = (float(fields[i]) for i in (2, 4, 5, 7, 9, 11))
        assert 0 < low <= median <= high and 0 < a_s and 0 < b_s
        assert level == 0.75  # three rounds: the whole range, 1 - 2 / 2**3


def test_ab_time_refuses_trees_whose_records_differ(tmp_path):
    package = tmp_path / "mml"
    package.mkdir()
    for source in (ROOT / "src" / "mml").glob("*.py"):
        text = source.read_text(encoding="utf-8")
        if source.name == "rng.py":
            text = text.replace("0x9E3779B97F4A7C15", "0x9E3779B97F4A7C17")
        (package / source.name).write_text(text, encoding="utf-8")
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    run = ab_time(package, config, "--rounds", "1")
    assert run.returncode == 1
    assert "records differ" in run.stderr and run.stdout == ""
