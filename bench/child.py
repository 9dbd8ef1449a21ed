"""One benchmark child process, started fresh by run.py for every sample.

    child.py LAUNCHED WORKDIR                      set-up sample only
    child.py LAUNCHED WORKDIR WORKLOAD SEED TRACE  set up, then one pass

LAUNCHED is the parent's time.monotonic() just before it started this
process; the system-wide monotonic clock makes set-up time comparable across
the two processes.  The pass runs the workload's jobs one at a time (a closed
loop with one client), verifies each, and prints one JSON object as the last
line of stdout.
"""

import sys
import time

LAUNCHED = float(sys.argv[1])

from dp4jigsaw import cli  # noqa: E402  (timed: this is the set-up)

SETUP_S = time.monotonic() - LAUNCHED

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import jobs  # noqa: E402
import layers  # noqa: E402


def run_job(job, outdir, rec):
    """Run and verify one job; return the list of problems (empty = pass)."""
    if rec is not None:
        rec.enter("bench.job")
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                status = job.run(outdir, cli)
            except SystemExit as exc:  # argparse rejects a malformed argv this way
                status = exc.code
        return job.check(outdir, status)
    except Exception:  # a crashing job is a failed check; the pass goes on
        return [traceback.format_exc()]
    finally:
        if rec is not None:
            rec.exit()


def one_pass(workload, seed, traced, workdir):
    rec = missing = None
    if traced:
        rec = layers.Recorder()
        missing = layers.install(rec)
    outdirs = []
    results = []
    cpu0 = os.times()
    start = time.perf_counter()
    for job in jobs.jobs_for(workload, seed):
        outdir = tempfile.mkdtemp(dir=workdir)
        outdirs.append(outdir)
        began = time.perf_counter()
        problems = run_job(job, outdir, rec)
        results.append({"job": job.name, "seconds": time.perf_counter() - began,
                        "problems": problems})
    wall_s = time.perf_counter() - start
    cpu1 = os.times()
    for result, outdir in zip(results, outdirs):
        result["digests"] = jobs.digests(outdir)
        shutil.rmtree(outdir)
    out = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if traced:
        out["layers"] = layers.layer_metrics(rec, missing)
        out["missing"] = sorted(missing)
        out["accounted_frac"] = layers.accounted_s(rec) / wall_s
        out["tree"] = rec.root.to_json_dict()
    return out


def main(argv):
    workdir = argv[2]
    if len(argv) == 3:
        result = {"setup_s": SETUP_S}
    else:
        workload, seed, traced = argv[3], int(argv[4]), argv[5] == "1"
        result = one_pass(workload, seed, traced, workdir)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
