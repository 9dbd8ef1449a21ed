"""Run one dp4jigsaw benchmark workload and print its metrics.

    python3 bench/run.py --workload geometry --seed 1 --seconds 40 --trace 0

Workloads are defined in jobs.py.  Each pass of a workload runs in a fresh
child process (child.py), one job at a time: a closed loop with a single
client and no concurrency, so on two cores the child has one to itself.
Passes repeat while another one still fits in --seconds (at least one pass).

--trace 0 prints the end-to-end metrics: wall_s (median pass time, set-up
excluded), setup_s (median over 2 x SETUP_SAMPLES set-ups taken at both ends
of the run, from process start until dp4jigsaw.cli is imported) and
peak_rss_mb (median of each child's own peak resident memory).  --trace 1
runs an untraced, a traced and (time allowing) another untraced pass and
prints the per-layer metrics from layers.py, with proc.cpu_s (mean of the
untraced passes), trace.overhead_frac (traced wall time over the mean
untraced one, minus 1) and trace.accounted_frac (self time of the wrapped
layers over the traced wall time).  Either way the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics, and the full record
(run manifest, machine block, every sample, artifact digests, span tree) is
written under bench/out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_SAMPLES = 12       # set-up-only children before, and again after, the passes
RUN_LIMIT_S = 170        # every child is stopped by then; a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def summarize(values):
    """Median, quartiles and sample count, quartiles as statistics.quantiles."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def failed_frac(failed, attempted):
    if attempted < 1:
        raise BenchError("no job was attempted")
    return failed / attempted


def git_commit(root):
    """The checked-out commit; None outside a git repository or without git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def machine_block():
    meminfo = _read("/proc/meminfo") or ""
    mem_total = next((line.split(":", 1)[1].strip() for line in meminfo.splitlines()
                      if line.startswith("MemTotal:")), None)
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    loadavg = _read("/proc/loadavg")
    return {
        "nproc": os.cpu_count(),
        "mem_total": mem_total,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "loadavg_at_start": loadavg.strip() if loadavg else None,
    }


def spawn(deadline, workdir, *args):
    """Run child.py to completion, killed at the deadline; return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), repr(launched), workdir,
             *map(str, args)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - launched, 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} ran past the {RUN_LIMIT_S} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def count_jobs(passes):
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for job in p["jobs"] if job["problems"])
    return attempted, failed


def measure(workload, seed, seconds, deadline, workdir):
    """Untraced samples: set-up children, passes while one still fits, set-ups.

    Set-up is sampled at both ends of the run so that its median spans the
    host's state over the whole run, not over the first few seconds.
    """
    start = time.monotonic()
    setups = [spawn(deadline, workdir)["setup_s"] for _ in range(SETUP_SAMPLES)]
    reserve = time.monotonic() - start     # for the set-ups after the passes
    passes, durations = [], []
    while not passes or (time.monotonic() - start + statistics.median(durations)
                         + reserve <= seconds):
        began = time.monotonic()
        passes.append(spawn(deadline, workdir, workload, seed, 0))
        durations.append(time.monotonic() - began)
    setups += [spawn(deadline, workdir)["setup_s"] for _ in range(SETUP_SAMPLES)]
    setups += [p["setup_s"] for p in passes]
    summaries = {
        "wall_s": summarize(p["wall_s"] for p in passes),
        "setup_s": summarize(setups),
        "peak_rss_mb": summarize(p["peak_rss_mb"] for p in passes),
    }
    return passes, setups, summaries


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "manifest": {"workload": workload, "seed": seed, "seconds": seconds,
                     "trace": trace, "commit": git_commit(ROOT),
                     "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())},
        "machine": machine_block(),
    }
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if trace:
            # An untraced pass on each side of the traced one, so that a
            # steady drift of the host's speed cancels out of the overhead;
            # the second is left out when it might not end before the deadline.
            began = time.monotonic()
            plain = [spawn(deadline, workdir, workload, seed, 0)]
            pass_s = time.monotonic() - began
            traced = spawn(deadline, workdir, workload, seed, 1)
            if deadline - time.monotonic() > 1.5 * pass_s:
                plain.append(spawn(deadline, workdir, workload, seed, 0))
            passes = [plain[0], traced, *plain[1:]]
            metrics = traced["layers"]
            metrics["proc.cpu_s"] = {
                "value": statistics.mean(p["cpu_s"] for p in plain), "unit": "s"}
            plain_wall_s = statistics.mean(p["wall_s"] for p in plain)
            metrics["trace.overhead_frac"] = {
                "value": traced["wall_s"] / plain_wall_s - 1, "unit": "ratio"}
            metrics["trace.accounted_frac"] = {
                "value": traced["accounted_frac"], "unit": "ratio"}
            record["missing_wrappers"] = traced["missing"]
            record["span_tree"] = traced.pop("tree")
        else:
            passes, setups, summaries = measure(workload, seed, seconds, deadline, workdir)
            metrics = {name: {"value": s["median"], "unit": END_TO_END_UNITS[name]}
                       for name, s in summaries.items()}
            record["summaries"] = summaries
            record["setup_samples"] = setups
    attempted, failed = count_jobs(passes)
    record["passes"] = passes
    record["failed_frac"] = failed_frac(failed, attempted)
    record["metrics"] = metrics
    record_name = f"{workload}-seed{seed}-trace{trace}.json"
    (OUT / record_name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for p in passes:
        for job in p["jobs"]:
            for problem in job["problems"]:
                print(f"FAILED {job['job']}: {problem}")
    print(f"workload {workload}, seed {seed}: {len(passes)} pass(es), "
          f"{attempted} jobs attempted, {failed} failed; record in bench/out/{record_name}")
    print(f"  {'failed_frac':32s} {record['failed_frac']:.4f} ratio")
    for name, m in metrics.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        extra = ""
        if not trace:
            s = summaries[name]
            extra = f"  (median of {s['n']}; quartiles {s['q1']:.6g} .. {s['q3']:.6g})"
        print(f"  {name:32s} {value} {m['unit']}{extra}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dp4jigsaw" / "cli.py").is_file():
        print(f"no dp4jigsaw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in jobs.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(jobs.WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
