"""Run one workload of the devratio benchmark and print its metrics.

    python3 bench/run.py --workload paper-tables --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` of the same checkout and nowhere else. The run times the import of
devratio in three fresh interpreters, sets up its inputs from the seed
(three times, to time set-up by a median), then runs whole
rounds of the workload's tasks, as many as fit in ``--seconds`` and at least
one, checking every answer after its task. The last line of standard output is
one JSON object::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the calls into devratio are timed per layer and the per-layer metrics are
printed instead. Standard error gets a summary line with the end-to-end
metrics in both modes.
"""
import argparse
import gc
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

# one thread of computation: no BLAS or OpenMP pools beside the interpreter
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
#: set-ups, and fresh interpreters timed on import, per run; setup_s adds
#: the median of each
SETUPS = 3

UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "task_p50_ms": "ms",
         "peak_rss_mb": "MB"}


def import_workloads():
    """Import devratio from this checkout's ``src/`` (never from an
    installed copy), then the workloads built on it."""
    sys.path.insert(0, str(SRC))
    try:
        import devratio
    except ImportError as exc:
        raise SystemExit(f"error: cannot import devratio from {SRC}: {exc}")
    if not Path(devratio.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: devratio imported from {devratio.__file__},"
                         f" not from {SRC}")
    import workloads
    return workloads


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that starts and imports
    devratio and the workloads, over SETUPS interpreters. The import cannot
    be repeated in this process, and one sample of it is as noisy as the
    rest of set-up together."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            "import workloads")
    times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return median(times)


def measure(workloads, name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, import_s: float = 0.0) -> tuple[dict, dict]:
    """Set up and run one workload; returns (result, end-to-end metrics)."""
    api = workloads.Api(trace)
    out_dir = OUT / f"{name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_times, setup_buckets = [], []
    round_walls, round_cpus, round_buckets = [], [], []
    #: task index -> its wall time in each round, in ms
    task_ms: dict[int, list[float]] = {}
    attempted = failed = 0
    correct = True

    def report(task_name: str, what: str) -> None:
        print(f"bench: {name} seed={seed} {task_name}: {what}",
              file=sys.stderr)

    try:
        for _ in range(SETUPS):
            api.bucket = dict.fromkeys(workloads.PER_LAYER, 0.0)
            start = time.perf_counter()
            workload = workloads.WORKLOADS[name](api, seed, out_dir, tiny)
            workloads.warm_up(api, out_dir)
            setup_times.append(time.perf_counter() - start)
            setup_buckets.append(api.bucket)
        # a burst of noise on the shared host then slows a few tasks of each
        # size, not all of them
        random.Random(seed).shuffle(workload.tasks)
        # the inputs live through the run; keep the collector from scanning
        # them again and again inside the timed calls
        gc.collect()
        gc.freeze()

        start = time.perf_counter()
        while True:
            api.bucket = dict.fromkeys(workloads.PER_LAYER, 0.0)
            wall = cpu = 0.0
            done = []
            for index, task in enumerate(workload.tasks):
                attempted += 1
                out = None
                w0, c0 = time.perf_counter(), time.process_time()
                try:
                    out = task.run()
                except Exception:
                    failed += 1
                    report(task.name, traceback.format_exc(limit=-3))
                finally:
                    w = time.perf_counter() - w0
                    wall += w
                    cpu += time.process_time() - c0
                    task_ms.setdefault(index, []).append(1e3 * w)
                if out is None:
                    continue
                # any error in a check, not only a rejection, fails the task:
                # malformed output makes the checks' own parsing raise
                try:
                    task.check(out)
                    done.append((task, out))
                except Exception as exc:
                    failed += 1
                    correct = False
                    report(task.name, f"check failed: {exc!r}")
            if workload.check_round and len(done) == len(workload.tasks):
                try:
                    workload.check_round(done)
                except Exception as exc:
                    correct = False
                    report("round", f"check failed: {exc!r}")
            round_walls.append(wall)
            round_cpus.append(cpu)
            round_buckets.append(api.bucket)
            # whole rounds only: another one starts if, at the mean pace so
            # far, it ends within the run's time
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(round_walls) > seconds:
                break
    finally:
        gc.unfreeze()
        shutil.rmtree(out_dir, ignore_errors=True)

    end_to_end = {
        "setup_s": import_s + median(setup_times),
        "wall_s": median(round_walls),
        "cpu_s": median(round_cpus),
        # a task's time is its fastest round: the shared host runs this
        # process at one of two speeds, 1.7x apart, for stretches of 1 to
        # 20 s, and the median of all samples jumped between the two
        "task_p50_ms": median(min(ts) for ts in task_ms.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if trace:
        # a layer's figure: its time (or count) in one set-up plus one round
        metrics = {m: {"value": median(b[m] for b in setup_buckets)
                       + median(b[m] for b in round_buckets),
                       "unit": "s" if m.endswith("_s") else "count"}
                   for m in workloads.PER_LAYER}
    else:
        metrics = {m: {"value": v, "unit": UNITS[m]}
                   for m, v in end_to_end.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    summary = dict(end_to_end, import_s=import_s, rounds=len(round_walls),
                   tasks_per_round=len(workload.tasks))
    return result, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-tables", "solve-ladder", "dominance",
                                 "induce-crosscheck"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    workloads = import_workloads()
    import_s = import_seconds()
    result, summary = measure(workloads, args.workload, args.seed,
                              args.seconds, bool(args.trace),
                              import_s=import_s)
    print(f"bench: {args.workload} seed={args.seed} trace={args.trace} "
          f"end-to-end {json.dumps(summary)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
