"""Benchmark workloads: the jobs each one runs and the exact check of each job.

Every job is a ``dp4`` subcommand called through ``dp4jigsaw.cli.main`` (or,
for the pyramid identity, the public pyramid functions), run in a fresh
output directory.  A job passes only when it exits 0 and every exact value
it produces equals the paper's value; artifact bytes are hashed for
information and never gate anything.

The inputs are fixed by the paper; the seed only permutes the job order
inside a workload, so every seed does the same work.
"""

import hashlib
import json
import math
import os
import random
from fractions import Fraction

#: Paper values at unit rank q = 0..3: alpha = 1/(q!(q+2)!) and vol(P).
ALPHA = {0: Fraction(1, 2), 1: Fraction(1, 6), 2: Fraction(1, 48), 3: Fraction(1, 720)}
UNION_VOLUME = {0: Fraction(1, 6), 1: Fraction(1, 30), 2: Fraction(1, 336),
                3: Fraction(1, 6480)}

#: The q = 1 slice census at a1 = 1/5, 2/5, 3/5: positive pieces per slice.
CENSUS = {Fraction(1, 5): 7, Fraction(2, 5): 11, Fraction(3, 5): 11}

TORSOR_BOUND = "3e7"
TORSOR_COUNT = 13756575832  # N(3e7)

#: 12/pi^2 over Q.  The log-quadratic fit over 20 bounds in [1e4, 1e7] lands
#: within 6e-6 of it; 1e-4 leaves room for floating-point reordering only.
C_Q = 12 / math.pi ** 2
FIT_REL_TOL = 1e-4
CATALAN = 0.915965594177219015054603514932384110774
C_QI = 3 * math.pi / (4 * CATALAN)
CONSTANT_REL_TOL = 1e-9

#: Why each workload exists.  Each one runs for about half a minute, so a
#: timed pass spans more of the host's speed swings than a shorter one would.
WORKLOAD_WHY = {
    "geometry": "exact polytopes: many small ones on the brute-force LP route "
                "(q <= 1, slices) and few large ones on the double-description "
                "route (q = 2, 3, pyramids); no counting",
    "counting": "integer counts: the memory-bound torsor count at B = 3e7, many "
                "moderate torsor counts, the direct divisor kernel, constants "
                "and CSV output; no geometry",
}


class Job:
    """One unit of work: a name, how to run it, and how to check it."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run        # run(outdir, cli) -> exit status
        self.check = check    # check(outdir, status) -> list of problems


def _cli_job(name, argv, check):
    def run(outdir, cli):
        # Resolve cli.main at call time, so a traced run sees its wrapper.
        return cli.main(["--output", outdir, *argv])
    return Job(name, run, check)


def _read_json(outdir, name):
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _exit_ok(outdir, status):
    return [] if status == 0 else [f"exit status {status}"]


def _check_jigsaw(q):
    def check(outdir, status):
        problems = _exit_ok(outdir, status)
        report = _read_json(outdir, "jigsaw.json")
        if Fraction(report["alpha_sum"]) != ALPHA[q]:
            problems.append(f"alpha_sum {report['alpha_sum']} != {ALPHA[q]}")
        if Fraction(report["union_volume"]) != UNION_VOLUME[q]:
            problems.append(f"union volume {report['union_volume']} != {UNION_VOLUME[q]}")
        if report["disjointness_verified"] is not True:
            problems.append("disjointness not verified")
        if report["degenerate_report"]["oracles_agree"] is not True:
            problems.append("degenerate-face oracles disagree")
        return problems
    return check


def _check_slices(outdir, status):
    problems = _exit_ok(outdir, status)
    censuses = _read_json(outdir, "slices.json")["censuses"]
    seen = {Fraction(c["a1"]): c for c in censuses}
    if set(seen) != set(CENSUS):
        return problems + [f"census slices {sorted(map(str, seen))}"]
    for a1, census in seen.items():
        if census["positive_count"] != CENSUS[a1]:
            problems.append(f"a1={a1}: {census['positive_count']} pieces != {CENSUS[a1]}")
        if Fraction(census["total_area"]) != a1:
            problems.append(f"a1={a1}: total area {census['total_area']}")
        if census["union_verified"] is not True:
            problems.append(f"a1={a1}: union check failed")
    return problems


def _pyramid_job(q):
    def run(outdir, cli):
        from dp4jigsaw import jigsaw
        apex = jigsaw.pyramid_polytope(q).volume()
        base = jigsaw.pyramid_base_polytope(q).volume()
        with open(os.path.join(outdir, "pyramid.json"), "w", encoding="utf-8") as fh:
            json.dump({"q": q, "volume": str(apex), "base_volume": str(base)}, fh)
        return 0

    def check(outdir, status):
        result = _read_json(outdir, "pyramid.json")
        apex, base = Fraction(result["volume"]), Fraction(result["base_volume"])
        problems = []
        if apex != base / (2 * q + 3):
            problems.append(f"vol(P')={apex} != vol(P'_0)/(2q+3) = {base}/{2 * q + 3}")
        if apex != UNION_VOLUME[q]:
            problems.append(f"vol(P')={apex} != {UNION_VOLUME[q]}")
        return problems
    return Job(f"pyramid --q {q}", run, check)


def _check_torsor(outdir, status):
    problems = _exit_ok(outdir, status)
    counts = _read_json(outdir, "counts.json")["counts"]
    if [c["count"] for c in counts] != [TORSOR_COUNT]:
        problems.append(f"N({TORSOR_BOUND}) = {[c['count'] for c in counts]}")
    return problems


def _check_fit(outdir, status):
    problems = _exit_ok(outdir, status)
    c2 = _read_json(outdir, "fit.json")["c2"]
    if abs(c2 - C_Q) > FIT_REL_TOL * C_Q:
        problems.append(f"fit c2 = {c2!r} not within {FIT_REL_TOL} of 12/pi^2")
    if len(_read_json(outdir, "counts.json")["counts"]) != 20:
        problems.append("fit did not report 20 bounds")
    return problems


def _check_constant(expected):
    def check(outdir, status):
        problems = _exit_ok(outdir, status)
        c = _read_json(outdir, "constants.json")["c"]
        if abs(c - expected) > CONSTANT_REL_TOL * expected:
            problems.append(f"c = {c!r} != {expected!r}")
        return problems
    return check


def _jigsaw_cli(q):
    return _cli_job(f"jigsaw --q {q}", ["jigsaw", "--q", str(q)], _check_jigsaw(q))


WORKLOADS = {
    "geometry": lambda: [
        *[_jigsaw_cli(q) for q in range(4)],
        _cli_job("slices", ["slices"], _check_slices),
        *[_pyramid_job(q) for q in range(4)],
    ],
    "counting": lambda: [
        _cli_job(f"torsor-count --bound {TORSOR_BOUND}",
                 ["torsor-count", "--bound", TORSOR_BOUND], _check_torsor),
        _cli_job("fit", ["fit", "--bmin", "1e4", "--bmax", "1e7", "--samples", "20"],
                 _check_fit),
        _cli_job("compare --bound 2000", ["compare", "--bound", "2000"], _exit_ok),
        _cli_job("modp", ["modp"], _exit_ok),
        _cli_job("constant --field Q", ["constant", "--field", "Q"], _check_constant(C_Q)),
        _cli_job("constant --field Q(i)", ["constant", "--field", "Q(i)"],
                 _check_constant(C_QI)),
    ],
}


def jobs_for(workload, seed):
    """The workload's jobs in the order the seed picks."""
    jobs = WORKLOADS[workload]()
    random.Random(seed).shuffle(jobs)
    return jobs


def digests(outdir):
    """sha256 prefix of every artifact a job wrote: information, not a gate."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()[:16]
    return out
