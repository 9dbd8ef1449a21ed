"""Command-line harness: counting experiments, jigsaw checks, reports.

Outputs under --output use fixed file names (counts.csv, jigsaw.json,
slices.json, constants.json, fit.json) and are byte-identical across runs
for a fixed configuration; pass --timings to include wall-clock columns.
count, torsor-count and fit count all their bounds in one shared sweep that
completes every bound at once (torsor-count and fit split the moduli a1,
not the bounds, across forked workers), so there every row's elapsed is the
time of the whole sweep, not the time of that bound alone.

Exit codes, so that CI can treat the status as the verdict:

    0  every identity the subcommand checks holds;
    1  an identity or a published value it gates on fails;
    2  a malformed or out-of-range value (argparse rejects it before any
       work, or the handler raises a Dp4Error that is not IdentityFailed).
"""

import argparse
import math
import sys
from fractions import Fraction

import numpy as np

from . import constants, jigsaw, reporting, surface, torsor
from .errors import ConfigInvalid, Dp4Error, IdentityFailed

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
        value = convert(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
        return value
    parse.__name__ = convert.__name__
    return parse


def _formats(text):
    formats = tuple(text.split(","))
    bad = set(formats) - set(FORMATS)
    if bad:
        raise argparse.ArgumentTypeError(f"unknown formats: {sorted(bad)}")
    return formats


def _ring(text):
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

def _cmd_count(args):
    bounds = _ascending(args.bound)
    keyed = None
    if args.points_file:  # the counts are read off the listed points' heights
        keyed = surface.direct_points_with_heights(bounds[-1], ring=args.ring)
    results = surface.direct_counts(bounds, ring=args.ring, keyed=keyed)
    predictor = None
    if args.ring == surface.INTEGERS:
        predictor = constants.leading_constant(constants.get_field("Q")).predicted_count
    rows = reporting.make_rows(results, predictor=predictor, timings=args.timings)
    reporting.emit_report(rows, args.format, args.output)
    for row in rows:
        print(f"B={row.bound}: {row.count} ({row.method})")
    if args.points_file:
        with open(args.points_file, "w", encoding="utf-8") as fh:
            surface.write_point_stream(keyed, fh)
    return EXIT_OK


def _cmd_torsor_count(args):
    bounds = _ascending(args.bound)
    results = torsor.torsor_counts(bounds)
    breakdown = constants.leading_constant(constants.get_field("Q"))
    rows = reporting.make_rows(results, predictor=breakdown.predicted_count,
                               timings=args.timings)
    reporting.emit_report(rows, args.format, args.output)
    for row in rows:
        print(f"B={row.bound}: {row.count} ({row.method})")
    if args.points_file:
        with open(args.points_file, "w", encoding="utf-8") as fh:
            torsor.write_tuple_stream(torsor.enumerate_normalized(bounds[-1]), fh)
    return EXIT_OK


def _cmd_compare(args):
    bound = int(args.bound)
    direct = surface.direct_height_counts(bound)
    lifted = torsor.torsor_height_counts(bound)
    mismatches = [b for b in range(1, bound + 1) if direct[b] != lifted[b]]
    rows = []
    for b in range(1, bound + 1):
        rows.append(reporting.CountRow(bound=Fraction(b), count=int(direct[b]),
                                       predicted=None, ratio=None,
                                       method="direct-divisor", elapsed=0.0))
        rows.append(reporting.CountRow(bound=Fraction(b), count=int(lifted[b]),
                                       predicted=None, ratio=None,
                                       method="torsor-lifted", elapsed=0.0))
    reporting.emit_report(rows, args.format, args.output)
    if mismatches:
        print(f"MISMATCH at B in {mismatches[:10]} (showing up to 10)")
        return EXIT_IDENTITY
    print(f"direct and torsor counts agree for every integer B <= {bound}")
    return EXIT_OK


def _cmd_modp(args):
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
        args.q, report.per_face)
    if "json" in args.format:
        reporting.write_file(args.output, "jigsaw.json", reporting.dump_json(payload))
    print(f"q={args.q}: {4 ** (args.q + 1)} faces, alpha_sum = "
          f"{report.alpha_sum} = {report.alpha_closed} (closed form), "
          f"union volume {report.union_volume}")
    if not degenerate["oracles_agree"]:
        print(f"degenerate faces FAIL: volume zero {degenerate['volume_zero_faces']}, "
              f"strict feasibility zero {degenerate['strict_feasibility_zero_faces']}")
        return EXIT_IDENTITY
    return EXIT_OK


def _cmd_alpha(args):
    closed = jigsaw.alpha_closed_form(args.q)
    total = jigsaw.alpha_sum(args.q)
    print(f"alpha({args.q}) = {closed}; jigsaw sum = {total}")
    return EXIT_OK if total == closed else EXIT_IDENTITY


def _cmd_slices(args):
    payload = []
    ok = True
    for a1 in args.a1 or list(jigsaw.PUBLISHED_PIECE_COUNTS):
        a0 = args.a0 if args.a0 is not None else (1 + a1) / 2
        census = jigsaw.slice_census(a1, a0)
        payload.append(census.to_json_dict())
        ok = ok and census.union_verified
        print(f"a1={a1}, a0={a0}: {census.positive_count} positive pieces, "
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
    inv = (constants.load_field(args.field_json) if args.field_json
           else constants.get_field(args.field))
    breakdown = constants.leading_constant(inv)
    euler = constants.finite_density_product(inv, args.prime_bound)
    payload = breakdown.to_json_dict()
    payload["field"] = inv.to_json_dict()
    payload["euler_product"] = {
        "prime_bound": euler.prime_bound,
        "value": euler.value,
        "factor_count": euler.factor_count,
        "tail_log_bound": euler.tail_log_bound,
        "limit_low": euler.limit_low,
        "limit_high": euler.limit_high,
    }
    if "json" in args.format:
        reporting.write_file(args.output, "constants.json",
                             reporting.dump_json(payload))
    print(f"{inv.label}: c = {breakdown.c!r} ({breakdown.symbolic['c']}), "
          f"exponent of log B = {breakdown.log_exponent}")
    consistent = euler.limit_low <= breakdown.finite_product <= euler.limit_high
    return EXIT_OK if consistent else EXIT_IDENTITY


def _cmd_fit(args):
    lo, hi = _ascending([args.bmin, args.bmax])
    grid = np.unique(np.round(np.logspace(np.log10(lo), np.log10(hi),
                                          args.samples)).astype(np.int64))
    results = torsor.torsor_counts([int(b) for b in grid])
    fit = reporting.fit_log_quadratic([(r.bound, r.count) for r in results])
    breakdown = constants.leading_constant(constants.get_field("Q"))
    rows = reporting.make_rows(results, predictor=breakdown.predicted_count,
                               timings=args.timings)
    reporting.emit_report(rows, args.format, args.output)
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
    p.add_argument("--ring", type=_ring, default=surface.INTEGERS)
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

    p = sub.add_parser("alpha", help="closed form vs the fan-certified multiset sum")
    p.add_argument("--q", type=int, default=1)
    p.set_defaults(handler=_cmd_alpha)

    p = sub.add_parser("slices", help="cross-section census at q = 1")
    p.add_argument("--a1", action="append", type=Fraction)
    p.add_argument("--a0", type=Fraction)
    p.set_defaults(handler=_cmd_slices)

    p = sub.add_parser("constant", help="leading constant for a number field")
    p.add_argument("--field", default="Q")
    p.add_argument("--field-json")
    p.add_argument("--prime-bound", type=int, default=10 ** 6)
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
