"""Run every workload over ten seeds, check steadiness, record a baseline.

    python3 bench/baseline.py              # seeds 1..10, every workload
    python3 bench/baseline.py --record     # also writes bench/baseline.json

Each run calls run.py as a separate process, exactly as BENCHMARK.json
describes it (same --seconds).  The table gives, per workload, the median
and quartiles over the runs of every end-to-end metric, its spread
(q3 - q1) / median, and failed_frac over every job attempted.  A metric is
steady when its spread is below a third of its bound; the exit code is 1
if any metric on any workload is not.  With --record, one traced run per
workload adds the per-layer metrics, and the whole table is written to
bench/baseline.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import jobs
import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    table = {}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"why": jobs.WORKLOAD_WHY[workload], "runs": len(SEEDS),
                 "failed_frac": run.failed_frac(failed, attempted), "end_to_end": {}}
        print(f"{workload}: {len(SEEDS)} runs, {attempted} jobs, "
              f"failed_frac {entry['failed_frac']:.4f} ratio")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = run.summarize(values)
            s["spread"] = (s["q3"] - s["q1"]) / s["median"]
            s["unit"] = results[0]["metrics"][name]["unit"]
            s["values"] = values
            entry["end_to_end"][name] = s
            ok = s["spread"] < bound / 3
            steady = steady and ok
            print(f"  {name:12s} median {s['median']:.6g} {s['unit']}  quartiles "
                  f"{s['q1']:.6g} .. {s['q3']:.6g}  spread {s['spread']:.4f} "
                  f"(bound {bound}) {'ok' if ok else 'WIDE'}")
        if args.record:
            entry["per_layer"] = run_once(workload, 1, seconds, 1)["metrics"]
        table[workload] = entry

    if args.record:
        out = {"commit": run.git_commit(ROOT), "machine": run.machine_block(),
               "run_seconds": seconds, "seeds": list(SEEDS),
               "workloads": table}
        (BENCH / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
