"""Evidence for the bounds in BENCHMARK.json: run every workload in two
separate sets of runs of the same code and compare the sets.

    python3 bench/steadiness.py                    # both sets, then traced runs
    python3 bench/steadiness.py --sets 0 --traced 3  # traced runs only

Each run is a fresh ``python3 bench/run.py`` process of BENCHMARK.json's
``run_seconds``, started one at a time from the checkout root, on every
workload of BENCHMARK.json. Set k uses seeds 100*k + 1 ... 100*k + 10. For each
end-to-end metric the table gives each set's median and quartiles, the
spread (q3 - q1) / median and the change of the median from set 1 to set 2,
next to the metric's bound. With ``--traced N`` it then runs, per workload
and for N seeds, an untraced and a traced run back to back, plus one more
traced run of the first seed; it reports the tracing overhead on wall_s and
whether the per-layer counts repeated exactly. Raw figures go to
bench/out/steadiness.json.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNTS = ("equilibrium.wardrop_iterations", "inducibility.oracle_agree")
#: runs per workload and set
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = [line for line in proc.stderr.splitlines()
               if " end-to-end " in line][-1]
    result["end_to_end"] = json.loads(summary.split(" end-to-end ", 1)[1])
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--traced", type=int, default=3)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    raw: dict = {"seconds": seconds, "sets": {}, "traced": {}}
    for k in range(1, args.sets + 1):
        for workload in names:
            runs = [run_once(workload, 100 * k + i, seconds, 0)
                    for i in range(1, RUNS + 1)]
            raw["sets"].setdefault(workload, []).append(runs)
            print(f"set {k} {workload}: done", file=sys.stderr)

    ok = True
    for workload, sets in raw["sets"].items():
        print(f"\n{workload}")
        print(f"  {'metric':<12} {'set':>3} {'median':>10} {'q1':>10} "
              f"{'q3':>10} {'spread':>7} {'change':>7} {'bound':>6}")
        for metric, bound in bounds.items():
            first = None
            for k, runs in enumerate(sets, 1):
                values = [r["metrics"][metric]["value"] for r in runs]
                q1, q2, q3, s = spread(values)
                change = 0.0 if first is None else q2 / first - 1.0
                first = q2 if first is None else first
                print(f"  {metric:<12} {k:>3} {q2:>10.4f} {q1:>10.4f} "
                      f"{q3:>10.4f} {s:>7.3f} {change:>+7.3f} {bound:>6}")
                if s > bound or change > bound:
                    ok = False
        shares = {(sum(r["failed"] for r in runs),
                   sum(r["attempted"] for r in runs)) for runs in sets}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"  failed/attempted per set: {sorted(shares)}; "
              f"all correct: {correct}")
        ok = ok and correct and all(f == 0 for f, _ in shares)

    if args.traced:
        print("\ntracing overhead on wall_s (untraced and traced run back to "
              "back on each seed)")
        for workload in names:
            seeds = [100 + i for i in range(1, args.traced + 1)]
            pairs = [(run_once(workload, s, seconds, 0),
                      run_once(workload, s, seconds, 1)) for s in seeds]
            repeat = run_once(workload, seeds[0], seconds, 1)
            same = all(pairs[0][1]["metrics"][c]["value"]
                       == repeat["metrics"][c]["value"] for c in COUNTS)
            plain = [p["metrics"]["wall_s"]["value"] for p, _ in pairs]
            traced = [t["end_to_end"]["wall_s"] for _, t in pairs]
            shares = [t / p - 1.0 for p, t in zip(plain, traced)]
            raw["traced"][workload] = {"pairs": pairs, "repeat": repeat}
            print(f"  {workload:<18} untraced {median(plain):.4f} s, traced "
                  f"{median(traced):.4f} s, per seed "
                  + " ".join(f"{x:+.1%}" for x in shares)
                  + f"; counts repeat exactly: {same}")
            ok = ok and same

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(raw, indent=1))
    print(f"\nwithin bounds: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
