"""One measured process of the benchmark; run.py starts one per role.

    python3 mmlbench/child.py <setup|serial|pool> --config configs/X.cfg \
        --seed N --trials T [--trace] [--spans PATH]

Run from the repository root; mml is imported from ./src.  `setup` and
`serial` print "READY" once the first trial's records exist (the parent times
process start to that line).  `setup` then stops; `serial` runs trials
1..T-1 one at a time; `pool` runs all T trials through run_experiment with
MML_WORKERS set to the number of usable cores.  Every role ends by printing
one JSON line.
"""
from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")


def import_mml():
    sys.path.insert(0, SRC)
    import mml
    from mml import experiments

    if os.path.dirname(os.path.dirname(os.path.abspath(mml.__file__))) != SRC:
        raise SystemExit(f"mml was imported from {mml.__file__}, not from {SRC}")
    return experiments


def load_config(experiments, args):
    with open(args.config, encoding="utf-8") as fh:
        cfg = experiments.parse_config(fh.read())
    return dataclasses.replace(cfg, master_seed=args.seed, trials=args.trials)


def csv_sha256(experiments, records) -> str:
    records = sorted(records, key=lambda r: (r.trial_id, r.matching_kind))
    return hashlib.sha256(experiments.records_to_csv(records).encode("utf-8")).hexdigest()


def invariant_errors(cfg, records) -> list[str]:
    """Facts every correct trial record satisfies, whatever the seed."""
    by_trial: dict[int, list[str]] = {}
    errors = []
    for r in records:
        by_trial.setdefault(r.trial_id, []).append(r.matching_kind)
        fields = (r.lambda_fit, r.lambda_ysum, r.ks_fit, r.ks_ysum, r.hyperbola,
                  r.dispersion, r.rank_ratio_frac)
        if any(v is None or not math.isfinite(v) for v in fields):
            errors.append(f"trial {r.trial_id} {r.matching_kind}: missing or non-finite statistic")
        elif not (0.0 <= r.ks_fit <= 1.0 and 0.0 <= r.ks_ysum <= 1.0
                  and r.lambda_fit > 0.0 and r.hyperbola > 0.0):
            errors.append(f"trial {r.trial_id} {r.matching_kind}: statistic out of range")
        # Square DA makes between n and n(n-1)+1 proposals.
        if not (cfg.n <= (r.proposal_count or 0) <= cfg.n * (cfg.n - 1) + 1):
            errors.append(f"trial {r.trial_id} {r.matching_kind}: proposal_count {r.proposal_count}")
    if sorted(by_trial) != list(range(cfg.trials)):
        errors.append(f"records cover {len(by_trial)} trials, expected {cfg.trials}")
    errors += [f"trial {t}: record kinds {sorted(k)}" for t, k in by_trial.items()
               if sorted(k) != ["mosm", "wosm"]]
    return errors


def blas_threads():
    """OpenBLAS's thread count, asked from the library numpy loaded, or None."""
    import ctypes

    import numpy as np

    lib_dir = os.path.dirname(os.path.dirname(np.__file__))
    for path in glob.glob(os.path.join(lib_dir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_one(experiments, cfg, t, tracer):
    """(seconds, records); records is None when the trial raised."""
    if tracer is not None:
        tracer.current_trial = t
    t0 = perf_counter()
    try:
        records = experiments.run_trial(cfg, t)
    except Exception:  # a failed trial is counted, and the run goes on
        traceback.print_exc()
        records = None
    return perf_counter() - t0, records


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it."""
    k = len(times) - 10
    if k < 1:
        raise ValueError(f"{len(times)} samples leave no percentile with ten beyond it")
    return 100.0 * k / len(times), sorted(times)[k - 1]


def serial(experiments, cfg, args) -> dict:
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    times, records, failed = [], [], 0
    for t in range(cfg.trials):
        seconds, recs = run_one(experiments, cfg, t, tracer)
        times.append(seconds)
        failed += recs is None
        records += recs or []
        if t == 0:
            print("READY", flush=True)
            loop_start = perf_counter()
    loop_wall = perf_counter() - loop_start
    timed = times[1:]
    tail_pct, tail_s = tail(timed)
    out = {
        "attempted": cfg.trials,
        "failed": failed,
        "timed_trials": len(timed),
        "loop_wall_s": loop_wall,
        "trial_s_p50": statistics.median(timed),
        "trial_s_tail": tail_s,
        "tail_pct": tail_pct,
        "trial_seconds_sum": sum(times),
        "sha256": csv_sha256(experiments, records),
        "invariant_errors": invariant_errors(cfg, records)[:20],
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(),
    }
    if tracer is not None:
        out["layers"] = traced_extras(experiments, cfg, records, tracer, args.spans)
    return out


def traced_extras(experiments, cfg, records, tracer, spans_path) -> dict:
    import spans

    layers = spans.layer_metrics(tracer, first_trial=1, n_trials=cfg.trials - 1)
    records = sorted(records, key=lambda r: (r.trial_id, r.matching_kind))
    t0 = perf_counter()
    summary = experiments.summarize_experiment(cfg, records)
    layers["experiments.summarize_s"] = perf_counter() - t0
    out_dir = os.path.join(os.path.dirname(spans_path), f"outputs-{os.getpid()}")
    try:
        t0 = perf_counter()
        experiments.write_outputs(out_dir, cfg, summary, records)
        layers["experiments.serialize_s"] = perf_counter() - t0
        layers["experiments.bytes_written"] = float(sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    tracer.save(spans_path)
    return layers


def pool(experiments, cfg) -> dict:
    workers = len(os.sched_getaffinity(0))
    os.environ["MML_WORKERS"] = str(workers)
    t0 = perf_counter()
    try:
        _, records = experiments.run_experiment(cfg)
    except Exception:  # the pool stops at its first failed trial
        traceback.print_exc()
        records = None
    wall = perf_counter() - t0
    return {
        "attempted": cfg.trials,
        "failed": cfg.trials if records is None else 0,
        "workers": workers,
        "wall_s": wall,
        "sha256": None if records is None else csv_sha256(experiments, records),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "serial", "pool"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="where --trace writes the spans")
    args = parser.parse_args()
    experiments = import_mml()
    cfg = load_config(experiments, args)
    if args.role == "setup":
        _, recs = run_one(experiments, cfg, 0, None)
        print("READY", flush=True)
        result = {"attempted": 1, "failed": int(recs is None)}
    elif args.role == "serial":
        result = serial(experiments, cfg, args)
    else:
        result = pool(experiments, cfg)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
