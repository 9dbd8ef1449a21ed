"""Command-line harness: counting experiments, jigsaw checks, reports.

Outputs under --output use fixed file names (counts.csv, jigsaw.json,
slices.json, constants.json, fit.json) and are byte-identical across runs
for a fixed configuration; pass --timings to fill the elapsed_s column.
count, torsor-count, fit and compare time each counting call once, and every
row of that call carries its time.  count, torsor-count and fit count all
their bounds in one call (one histogram, or one sweep that splits the moduli
a1, not the bounds, across forked workers), so a row's elapsed is the time
of the whole call, not of that bound alone; compare makes one call per
counter, checks the two cumulative histograms at every B <= bound, and
reports them at B = 1, 2, 5, 10, ... and the bound; count --points leaves
the listing of the points out.  Only reporting writes the artifact files,
the point and tuple streams included.

Only the subcommands that count import numpy and the numpy-backed modules
(constants, surface, torsor), in their own handlers; jigsaw, alpha and
slices start and finish without them.

Exit codes, so that CI can treat the status as the verdict:

    0  every identity the subcommand checks holds;
    1  an identity or a published value it gates on fails;
    2  a malformed or out-of-range value, or an artifact that cannot be
       written (argparse rejects the value before any work, or the handler
       raises a Dp4Error that is not IdentityFailed, IoFailure included).
"""

import argparse
import itertools
import math
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from . import jigsaw, reporting
from .errors import ConfigInvalid, Dp4Error, IdentityFailed, OutOfRange

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2

FORMATS = ("csv", "json", "svg")

#: modp also evaluates the forms at every Z normal-form point of height up
#: to this bound.
MODP_POINT_BOUND = 20


# ---------------------------------------------------------------------------
# Argument types: argparse turns a ValueError or ArgumentTypeError into exit 2
# ---------------------------------------------------------------------------

def _positive(convert):
    """An argparse type: convert, then require a finite value > 0."""
    def parse(text):
        try:
            value = convert(text)
        except ZeroDivisionError:   # Fraction("1/0")
            raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
        return value
    parse.__name__ = convert.__name__
    return parse


def _whole(text):
    """An argparse type: a value as --bound takes it ("2e7" too) that is a whole number."""
    value = _positive(Fraction)(text)
    if value.denominator != 1:
        raise argparse.ArgumentTypeError(f"must be a whole number, got {text!r}")
    return int(value)


def _formats(text):
    formats = tuple(text.split(","))
    bad = set(formats) - set(FORMATS)
    if bad:
        raise argparse.ArgumentTypeError(f"unknown formats: {sorted(bad)}")
    return formats


def _ring(text):
    from . import surface
    try:
        return surface.parse_ring(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _ascending(bounds):
    if sorted(bounds) != list(bounds):
        raise ConfigInvalid("bounds must be ascending")
    return bounds


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _report_counts(args, bounds, counters, predictor=None):
    """Count every bound with each (method, count) and write the count report.

    count(bounds) returns the counts in bound order, as a list or an array.
    Each call is timed once, so under --timings every row of a method
    carries the time of its whole call; without it the column is 0.0.
    With several counters the rows interleave them bound by bound, one row
    per bound and counter, and the report is written whole.  Returns each
    counter's counts.
    """
    tables, rows = [], []
    for method, count in counters:
        start = time.perf_counter()
        counts = count(bounds)
        elapsed = time.perf_counter() - start if args.timings else 0.0
        tables.append(counts)
        rows.append(reporting.count_rows(bounds, counts, method, predictor, elapsed))
    reporting.emit_report(list(itertools.chain.from_iterable(zip(*rows))), args.format,
                          args.output)
    return tables


def _leading_over_q():
    from . import constants
    return constants.leading_constant(constants.get_field("Q"))


def _print_counts(bounds, counts, method):
    for bound, count in zip(bounds, counts):
        print(f"B={bound}: {count} ({method})")


def _cmd_count(args):
    from . import surface
    bounds = _ascending(args.bound)
    keyed = None
    if args.points_file:  # the counts are read off the listed points' heights
        keyed = surface.direct_points_with_heights(bounds[-1], ring=args.ring)
    [counts] = _report_counts(
        args, bounds,
        [("direct-divisor", lambda bs: surface.direct_counts(bs, ring=args.ring, keyed=keyed))],
        _leading_over_q().predicted_count if args.ring == surface.INTEGERS else None)
    _print_counts(bounds, counts, "direct-divisor")
    if args.points_file:
        reporting.write_lines(args.points_file, (f"{pt},{h}" for h, pt in keyed))
    return EXIT_OK


def _cmd_torsor_count(args):
    from . import torsor
    bounds = _ascending(args.bound)
    # the tuples' bound is checked before any count
    points = torsor.enumerate_normalized(bounds[-1]) if args.points_file else None
    [counts] = _report_counts(args, bounds, [("torsor-fast", torsor.torsor_counts)],
                              _leading_over_q().predicted_count)
    _print_counts(bounds, counts, "torsor-fast")
    if points is not None:
        reporting.write_lines(args.points_file, points)
    return EXIT_OK


def _report_grid(bound):
    """B = 1, 2, 5, 10, 20, 50, ... <= bound, and bound itself."""
    grid = [m * 10 ** e for e in range(len(str(bound))) for m in (1, 2, 5)
            if m * 10 ** e <= bound]
    return grid if grid[-1] == bound else grid + [bound]


def _cmd_compare(args):
    import numpy as np

    from . import surface, torsor
    bound = int(args.bound)
    if bound < 1:
        raise ConfigInvalid(f"compare needs a bound of at least 1, got {args.bound}")
    hists = []  # each counter's cumulative histogram: N(b) at b, for every b <= bound

    def read_at_grid(histogram):
        def count(grid):
            hists.append(histogram(bound))
            return hists[-1][grid]
        return count
    _report_counts(args, _report_grid(bound), [
        ("direct-divisor", read_at_grid(surface.direct_height_counts)),
        ("torsor-lifted", read_at_grid(torsor.torsor_height_counts))])
    direct, lifted = hists
    mismatches = np.flatnonzero(direct != lifted)[:10].tolist()
    if mismatches:
        print(f"MISMATCH at B in {mismatches} (showing up to 10)")
        return EXIT_IDENTITY
    print(f"direct and torsor counts agree for every integer B <= {bound}")
    return EXIT_OK


def _cmd_modp(args):
    from . import surface
    status = EXIT_OK
    for p in args.p or [2, 3, 5, 7, 11, 13]:
        observed = surface.count_mod_p(p)
        expected = p * p + p
        ok = "ok" if observed == expected else "FAIL"
        if observed != expected:
            status = EXIT_IDENTITY
        print(f"{p},{observed},{expected},{ok}")
    # p^2 + p cannot see a sign flip or a scaling of one term (a rescaling
    # of coordinates), so the forms must also vanish exactly on points over Z.
    bad = [pt for pt in surface.direct_points(MODP_POINT_BOUND)
           if not surface.on_surface(pt)]
    if bad:
        status = EXIT_IDENTITY
    print(f"Z points of height <= {MODP_POINT_BOUND} on the surface: "
          f"{f'FAIL, {len(bad)} off it, first {bad[0]}' if bad else 'ok'}")
    return status


def _cmd_jigsaw(args):
    report = jigsaw.jigsaw_check(args.q)
    payload = report.to_json_dict()
    degenerate = payload["degenerate_report"] = jigsaw.degenerate_face_report(
        args.q, report.rows)
    if "json" in args.format:
        reporting.write_file(args.output, "jigsaw.json", reporting.dump_json(payload))
    print(f"q={args.q}: {4 ** (args.q + 1)} faces, alpha_sum = "
          f"{report.alpha_sum} = {report.alpha_closed} (closed form), "
          f"union volume {report.union_volume}")
    if not degenerate["oracles_agree"]:
        print(f"degenerate multisets FAIL: volume zero {degenerate['volume_zero_multisets']}, "
              f"strict feasibility zero {degenerate['strict_feasibility_zero_multisets']}")
        return EXIT_IDENTITY
    return EXIT_OK


def _cmd_alpha(args):
    total = jigsaw.alpha_sum(args.q)    # checks q before the factorials below
    closed = jigsaw.alpha_closed_form(args.q)
    print(f"alpha({args.q}) = {closed}; jigsaw sum = {total}")
    return EXIT_OK if total == closed else EXIT_IDENTITY


def _cmd_slices(args):
    jigsaw.edge_fan()  # the census pieces' rows are derived from the fan's rays
    rows = jigsaw.census_rows()
    payload = []
    ok = True
    for a1 in args.a1 or list(jigsaw.PUBLISHED_PIECE_COUNTS):
        census = jigsaw.slice_census(a1, rows)
        payload.append(census.to_json_dict())
        ok = ok and census.union_verified
        print(f"a1={a1}: {census.positive_count} positive pieces, "
              f"area {census.total_area}, union {'ok' if census.union_verified else 'FAIL'}")
        published = jigsaw.PUBLISHED_PIECE_COUNTS.get(a1, census.positive_count)
        if census.positive_count != published:
            print(f"a1={a1}: FAIL, the published census has {published} positive pieces")
            ok = False
    if "json" in args.format:
        reporting.write_file(args.output, "slices.json",
                             reporting.dump_json({"censuses": payload}))
    return EXIT_OK if ok else EXIT_IDENTITY


def _cmd_constant(args):
    from . import constants
    inv = (constants.load_field(args.field_json) if args.field_json
           else constants.get_field(args.field))
    breakdown = constants.leading_constant(inv)
    euler = constants.finite_density_product(inv, args.prime_bound)
    payload = breakdown.to_json_dict()
    payload["field"] = inv.to_json_dict()
    payload["euler_product"] = asdict(euler)
    if "json" in args.format:
        reporting.write_file(args.output, "constants.json",
                             reporting.dump_json(payload))
    print(f"{inv.label}: c = {breakdown.c!r} ({breakdown.symbolic['c']}), "
          f"exponent of log B = {breakdown.log_exponent}")
    consistent = euler.limit_low <= breakdown.finite_product <= euler.limit_high
    return EXIT_OK if consistent else EXIT_IDENTITY


def _cmd_fit(args):
    import numpy as np

    from . import torsor
    lo, hi = _ascending([args.bmin, args.bmax])
    if args.samples > torsor.MAX_SWEEP_BOUNDS:
        raise OutOfRange(f"--samples must be <= {torsor.MAX_SWEEP_BOUNDS}, got {args.samples}")
    if hi > torsor.MAX_TORSOR_BOUND:     # int64 would wrap in the grid below
        raise OutOfRange(f"--bmax must be <= {torsor.MAX_TORSOR_BOUND}, got {args.bmax:g}")
    # the distinct rounded bounds, ascending (sorted in Python: np.unique's
    # first call alone added 0.5 MB to the peak RSS)
    grid = sorted(set(np.round(np.logspace(np.log10(lo), np.log10(hi),
                                           args.samples)).astype(np.int64).tolist()))
    reporting.check_fit_bounds(grid)
    breakdown = _leading_over_q()
    [counts] = _report_counts(args, grid, [("torsor-fast", torsor.torsor_counts)],
                              breakdown.predicted_count)
    fit = reporting.fit_log_quadratic(list(zip(grid, counts)))
    if "json" in args.format:
        reporting.write_file(args.output, "fit.json",
                             reporting.dump_json(fit.to_json_dict()))
    rel = abs(fit.c2 - breakdown.c) / breakdown.c
    print(f"fit over {len(grid)} bounds in [{grid[0]}, {grid[-1]}]: "
          f"c2 = {fit.c2:.6f} vs c = {breakdown.c:.6f} (rel dev {rel:.3f})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dp4",
        description="Exact jigsaw identities and integral-point counts on a "
                    "singular quartic del Pezzo surface.")
    parser.add_argument("--output", default=".", help="output directory")
    parser.add_argument("--format", type=_formats, default="csv,json",
                        help="comma-separated: csv,json,svg")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock columns (breaks byte determinism)")
    sub = parser.add_subparsers(dest="command", required=True)
    bound = _positive(Fraction)

    p = sub.add_parser("count", help="direct point count over Z or Z[i]")
    p.add_argument("--bound", action="append", type=bound, required=True)
    p.add_argument("--ring", type=_ring, default="Z")  # argparse runs _ring on it
    p.add_argument("--points", dest="points_file", help="write the point stream here")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("torsor-count", help="count via the torsor parameterization")
    p.add_argument("--bound", action="append", type=bound, required=True)
    p.add_argument("--tuples", dest="points_file", help="write normalized tuples here")
    p.set_defaults(handler=_cmd_torsor_count)

    p = sub.add_parser("compare", help="direct vs torsor counts for every B <= bound")
    p.add_argument("--bound", type=bound, default=Fraction(2000))
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("modp", help="brute-force point counts modulo p")
    p.add_argument("--p", action="append", type=int)
    p.set_defaults(handler=_cmd_modp)

    p = sub.add_parser("jigsaw", help="verify the jigsaw partition at unit rank q "
                                      f"<= {jigsaw.MAX_JIGSAW_RANK}")
    p.add_argument("--q", type=int, default=1)
    p.set_defaults(handler=_cmd_jigsaw)

    p = sub.add_parser("alpha", help="closed form vs the fan-certified multiset sum at "
                                     f"unit rank q <= {jigsaw.MAX_ALPHA_RANK}")
    p.add_argument("--q", type=int, default=1)
    p.set_defaults(handler=_cmd_alpha)

    p = sub.add_parser("slices", help="cross-section census at q = 1")
    p.add_argument("--a1", action="append", type=_positive(Fraction))
    p.set_defaults(handler=_cmd_slices)

    p = sub.add_parser("constant", help="leading constant for a number field")
    p.add_argument("--field", default="Q")
    p.add_argument("--field-json")
    p.add_argument("--prime-bound", type=_whole, default=10 ** 6)
    p.set_defaults(handler=_cmd_constant)

    p = sub.add_parser("fit", help="log-quadratic fit of real torsor counts")
    p.add_argument("--bmin", type=_positive(float), default=1e4)
    p.add_argument("--bmax", type=_positive(float), default=1e7)
    p.add_argument("--samples", type=_positive(int), default=20)
    p.set_defaults(handler=_cmd_fit)

    return parser


def main(argv=None):
    """Run dp4 on argv and return the exit status, argparse's own included."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.handler(args)
    except IdentityFailed as exc:
        print(f"identity failed: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except Dp4Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
