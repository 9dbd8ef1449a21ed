"""Command-line harness: counting experiments, jigsaw checks, reports.

Every subcommand that verifies an identity exits nonzero when the identity
fails, so CI can treat the exit status as the verdict.  Outputs under
--output use fixed file names (counts.csv, jigsaw.json, slices.json,
constants.json, fit.json) and are byte-identical across runs for a fixed
configuration; pass --timings to include wall-clock columns.
"""

import argparse
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import constants, jigsaw, reporting, surface, torsor
from .errors import ConfigInvalid, Dp4Error, IdentityFailed

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2

#: modp also evaluates the forms at every Z normal-form point of height up
#: to this bound.
MODP_POINT_BOUND = 20


@dataclass
class RunConfig:
    command: str
    bounds: list = field(default_factory=list)
    q: int = 0
    ring: surface.GroundRing = surface.INTEGERS
    field_label: str = "Q"
    field_json: str = None
    output: str = "."
    formats: tuple = ("csv", "json")
    timings: bool = False
    primes: list = field(default_factory=list)
    prime_bound: int = 10 ** 6
    a1_values: list = field(default_factory=list)
    a0_value: Fraction = None
    samples: int = 20
    points_file: str = None
    allow_large: bool = False

    def validate(self):
        if any(b <= 0 for b in self.bounds):
            raise ConfigInvalid("bounds must be positive")
        if sorted(self.bounds) != self.bounds:
            raise ConfigInvalid("bounds must be ascending")
        bad = set(self.formats) - {"csv", "json", "svg"}
        if bad:
            raise ConfigInvalid(f"unknown formats: {sorted(bad)}")


def _field(config):
    if config.field_json:
        return constants.load_field(config.field_json)
    return constants.get_field(config.field_label)


def _predictor(config):
    inv = _field(config)
    breakdown = constants.leading_constant(inv)

    def predict(b):
        import math
        return breakdown.c * b * math.log(b) ** breakdown.log_exponent

    return predict


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_count(config):
    results = [surface.direct_count(b, ring=config.ring) for b in config.bounds]
    rows = reporting.make_rows(results, predictor=_predictor(config)
                               if config.ring == surface.INTEGERS else None,
                               timings=config.timings)
    reporting.emit_report(rows, config.formats, config.output)
    for row in rows:
        print(f"B={row.bound}: {row.count} ({row.method})")
    if config.points_file:
        pts = surface.direct_points(config.bounds[-1], ring=config.ring)
        with open(config.points_file, "w", encoding="utf-8") as fh:
            surface.write_point_stream(pts, fh)
    return EXIT_OK


def _cmd_torsor_count(config):
    results = [torsor.torsor_count(b) for b in config.bounds]
    rows = reporting.make_rows(results, predictor=_predictor(config),
                               timings=config.timings)
    reporting.emit_report(rows, config.formats, config.output)
    for row in rows:
        print(f"B={row.bound}: {row.count} ({row.method})")
    if config.points_file:
        with open(config.points_file, "w", encoding="utf-8") as fh:
            torsor.write_tuple_stream(torsor.enumerate_normalized(config.bounds[-1]), fh)
    return EXIT_OK


def _cmd_compare(config):
    bound = int(config.bounds[-1]) if config.bounds else 2000
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
    reporting.emit_report(rows, config.formats, config.output)
    if mismatches:
        print(f"MISMATCH at B in {mismatches[:10]} (showing up to 10)")
        return EXIT_IDENTITY
    print(f"direct and torsor counts agree for every integer B <= {bound}")
    return EXIT_OK


def _cmd_modp(config):
    ps = config.primes or [2, 3, 5, 7, 11, 13]
    status = EXIT_OK
    for p in ps:
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


def _cmd_jigsaw(config):
    report = jigsaw.jigsaw_check(config.q, allow_large=config.allow_large)
    payload = report.to_json_dict()
    payload["degenerate_report"] = jigsaw.degenerate_face_report(
        config.q, allow_large=config.allow_large)
    if "json" in config.formats:
        reporting.write_file(config.output, "jigsaw.json", reporting.dump_json(payload))
    print(f"q={config.q}: {4 ** (config.q + 1)} faces, alpha_sum = "
          f"{report.alpha_sum} = {report.alpha_closed} (closed form), "
          f"union volume {report.union_volume}")
    return EXIT_OK


def _cmd_alpha(config):
    closed = jigsaw.alpha_closed_form(config.q)
    total = jigsaw.alpha_sum(config.q)
    print(f"alpha({config.q}) = {closed}; jigsaw sum = {total}")
    return EXIT_OK if total == closed else EXIT_IDENTITY


def _cmd_slices(config):
    a1_values = config.a1_values or [Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)]
    payload = []
    ok = True
    for a1 in a1_values:
        a0 = config.a0_value if config.a0_value is not None else (1 + a1) / 2
        census = jigsaw.slice_census(a1, a0)
        payload.append(census.to_json_dict())
        ok = ok and census.union_verified
        print(f"a1={a1}, a0={a0}: {census.positive_count} positive pieces, "
              f"area {census.total_area}, union {'ok' if census.union_verified else 'FAIL'}")
    if "json" in config.formats:
        reporting.write_file(config.output, "slices.json",
                             reporting.dump_json({"censuses": payload}))
    return EXIT_OK if ok else EXIT_IDENTITY


def _cmd_constant(config):
    inv = _field(config)
    breakdown = constants.leading_constant(inv)
    euler = constants.finite_density_product(inv, config.prime_bound)
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
    if "json" in config.formats:
        reporting.write_file(config.output, "constants.json",
                             reporting.dump_json(payload))
    print(f"{inv.label}: c = {breakdown.c!r} ({breakdown.symbolic['c']}), "
          f"exponent of log B = {breakdown.log_exponent}")
    consistent = euler.limit_low <= breakdown.finite_product <= euler.limit_high
    return EXIT_OK if consistent else EXIT_IDENTITY


def _cmd_fit(config):
    lo = float(config.bounds[0]) if config.bounds else 1e4
    hi = float(config.bounds[-1]) if config.bounds else 1e7
    grid = np.unique(np.round(np.logspace(np.log10(lo), np.log10(hi),
                                          config.samples)).astype(np.int64))
    results = [torsor.torsor_count(int(b)) for b in grid]
    fit = reporting.fit_log_quadratic([(r.bound, r.count) for r in results])
    rows = reporting.make_rows(results, predictor=_predictor(config),
                               timings=config.timings)
    reporting.emit_report(rows, config.formats, config.output)
    if "json" in config.formats:
        reporting.write_file(config.output, "fit.json",
                             reporting.dump_json(fit.to_json_dict()))
    breakdown = constants.leading_constant(_field(config))
    rel = abs(fit.c2 - breakdown.c) / breakdown.c
    print(f"fit over {len(grid)} bounds in [{grid[0]}, {grid[-1]}]: "
          f"c2 = {fit.c2:.6f} vs c = {breakdown.c:.6f} (rel dev {rel:.3f})")
    return EXIT_OK


_COMMANDS = {
    "count": _cmd_count,
    "torsor-count": _cmd_torsor_count,
    "compare": _cmd_compare,
    "modp": _cmd_modp,
    "jigsaw": _cmd_jigsaw,
    "alpha": _cmd_alpha,
    "slices": _cmd_slices,
    "constant": _cmd_constant,
    "fit": _cmd_fit,
}


def run(config):
    """Dispatch a validated RunConfig; returns the process exit status."""
    config.validate()
    return _COMMANDS[config.command](config)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dp4",
        description="Exact jigsaw identities and integral-point counts on a "
                    "singular quartic del Pezzo surface.")
    parser.add_argument("--output", default=".", help="output directory")
    parser.add_argument("--format", default="csv,json",
                        help="comma-separated: csv,json,svg")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock columns (breaks byte determinism)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="direct point count over Z or Z[i]")
    p.add_argument("--bound", action="append", required=True)
    p.add_argument("--ring", default="Z")
    p.add_argument("--points", dest="points_file", help="write the point stream here")

    p = sub.add_parser("torsor-count", help="count via the torsor parameterization")
    p.add_argument("--bound", action="append", required=True)
    p.add_argument("--tuples", dest="points_file", help="write normalized tuples here")

    p = sub.add_parser("compare", help="direct vs torsor counts for every B <= bound")
    p.add_argument("--bound", default="2000")

    p = sub.add_parser("modp", help="brute-force point counts modulo p")
    p.add_argument("--p", action="append", type=int, default=None)

    p = sub.add_parser("jigsaw", help="verify the jigsaw partition at unit rank q")
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--allow-large", action="store_true")

    p = sub.add_parser("alpha", help="closed form vs the fan-certified multiset sum")
    p.add_argument("--q", type=int, default=1)

    p = sub.add_parser("slices", help="cross-section census at q = 1")
    p.add_argument("--a1", action="append", default=None)
    p.add_argument("--a0", default=None)

    p = sub.add_parser("constant", help="leading constant for a number field")
    p.add_argument("--field", default="Q")
    p.add_argument("--field-json", default=None)
    p.add_argument("--prime-bound", type=int, default=10 ** 6)

    p = sub.add_parser("fit", help="log-quadratic fit of real torsor counts")
    p.add_argument("--bmin", default="1e4")
    p.add_argument("--bmax", default="1e7")
    p.add_argument("--samples", type=int, default=20)

    return parser


def _config_from_args(args):
    config = RunConfig(command=args.command)
    config.output = args.output
    config.formats = tuple(args.format.split(","))
    config.timings = args.timings
    if args.command in ("count", "torsor-count"):
        config.bounds = [Fraction(b) for b in args.bound]
        config.points_file = args.points_file
        if args.command == "count":
            config.ring = surface.parse_ring(args.ring)
    elif args.command == "compare":
        config.bounds = [Fraction(args.bound)]
    elif args.command == "modp":
        config.primes = args.p or []
    elif args.command == "jigsaw":
        config.q = args.q
        config.allow_large = args.allow_large
    elif args.command == "alpha":
        config.q = args.q
    elif args.command == "slices":
        config.a1_values = [Fraction(a) for a in (args.a1 or [])]
        config.a0_value = Fraction(args.a0) if args.a0 else None
    elif args.command == "constant":
        config.field_label = args.field
        config.field_json = args.field_json
        config.prime_bound = args.prime_bound
    elif args.command == "fit":
        config.bounds = [Fraction(float(args.bmin)), Fraction(float(args.bmax))]
        config.samples = args.samples
    return config


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        status = run(config)
    except ConfigInvalid as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IdentityFailed as exc:
        print(f"identity failed: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except Dp4Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return status


if __name__ == "__main__":
    sys.exit(main())
