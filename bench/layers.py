"""Outside-in tracing of the dp4jigsaw layers, for the traced benchmark run.

Wrappers are installed from here, at the name each caller resolves at call
time (a module attribute or a class attribute); nothing under ``src/`` knows
about them.  Spans are aggregated in memory into one tree keyed by the path
of span names and written out once, at the end of the run.  A wrapped name
that no longer exists is skipped, and every metric that depends on it is
reported as absent instead of failing the run.
"""

import functools
import importlib
import time


class Node:
    """Aggregate of every span with the same path of names from the root."""

    __slots__ = ("name", "calls", "total_s", "self_s", "children")

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.children = {}

    def to_json_dict(self):
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "children": [c.to_json_dict() for c in self.children.values()],
        }

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()


class Recorder:
    """Nested span timer and counters.

    A span's self time is its duration minus the durations of the spans
    opened inside it.  Wrapped calls are synchronous, so child spans never
    overlap and their durations simply add.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.root = Node("run")
        self.counts = {}
        self._stack = [[self.root, 0.0, 0.0]]  # [node, start, time in children]

    def enter(self, name):
        parent = self._stack[-1][0]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = Node(name)
        self._stack.append([node, self.clock(), 0.0])

    def exit(self):
        node, start, in_children = self._stack.pop()
        duration = self.clock() - start
        node.calls += 1
        node.total_s += duration
        node.self_s += duration - in_children
        self._stack[-1][2] += duration

    def current(self):
        return self._stack[-1][0].name

    def add(self, counter, amount=1):
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def peak(self, counter, value):
        self.counts[counter] = max(self.counts.get(counter, 0), value)

    def calls(self, name):
        return sum(n.calls for n in self.root.walk() if n.name == name)

    def self_s(self, prefix):
        """Self time of every span whose name is ``prefix`` or ``prefix.*``."""
        return sum(n.self_s for n in self.root.walk()
                   if n.name == prefix or n.name.startswith(prefix + "."))

    def inclusive_s(self, name):
        """Time inside spans of this name, not counting one nested in another."""
        def total(node):
            if node.name == name:
                return node.total_s
            return sum(total(c) for c in node.children.values())
        return total(self.root)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def cache_probe(counter, table):
    """Count lookups on a _FaceCache method, and hits: calls that add no entry."""
    def install(rec, fn):
        @functools.wraps(fn)
        def wrapper(self, *args):
            size = len(getattr(self, table))
            result = fn(self, *args)
            rec.add(counter + ".lookups")
            if len(getattr(self, table)) == size:
                rec.add(counter + ".hits")
            return result
        return wrapper
    return install


def as_span(name, after=None):
    """Time each call as a span; after(rec, args, result) may count its work."""
    def install(rec, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit()
            if after is not None:
                after(rec, args, result)
            return result
        return wrapper
    return install


def as_count(counter, before=None):
    """Count each call without a span; its time stays with the caller's span."""
    def install(rec, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.add(counter)
            if before is not None:
                before(rec)
            return fn(*args, **kwargs)
        return wrapper
    return install


def _count_vertices(rec, args, result):
    rec.add("polytope.vertices", len(result))


def _count_rays(rec, args, result):
    rec.add("dd.rays", len(result[1]))


def _count_kernel(rec, args, result):
    rec.add("torsor.kernel_elements", len(args[1]))
    rec.peak("torsor.kernel_peak_elements", len(args[1]))


def _count_inverse(rec, args, result):
    rec.add("torsor.inverse_entries", args[0])


def _count_bytes(rec, args, result):
    rec.add("reporting.bytes", len(args[2].encode("utf-8")))


def _count_simplex(rec):
    if rec.current() == "polytope.volume":
        rec.add("polytope.simplices")


#: (module, attribute path, installer).  The attribute is the name the
#: caller resolves: jigsaw.py imports interiors_disjoint into its own
#: namespace, so that is where it is wrapped, while _simplex.feasible looks
#: solve_lp up in its module, so one wrapper there sees every LP.
WRAPPERS = [
    ("dp4jigsaw.cli", "main", as_span("cli")),
    ("dp4jigsaw.jigsaw", "jigsaw_check", as_span("jigsaw.check")),
    ("dp4jigsaw.jigsaw", "degenerate_face_report", as_span("jigsaw.report")),
    ("dp4jigsaw.jigsaw", "slice_census", as_span("jigsaw.census")),
    ("dp4jigsaw.jigsaw", "face_polytope", as_count("jigsaw.faces_built")),
    ("dp4jigsaw.jigsaw", "_FaceCache.volume", cache_probe("jigsaw.volume", "volumes")),
    ("dp4jigsaw.jigsaw", "_FaceCache.pair_disjoint", cache_probe("jigsaw.pair", "disjoint")),
    ("dp4jigsaw.jigsaw", "interiors_disjoint", as_span("polytope.disjoint")),
    ("dp4jigsaw.jigsaw", "strictly_feasible", as_span("polytope.strict_feasible")),
    ("dp4jigsaw.jigsaw", "cone_contains_line", as_span("polytope.cone_line")),
    ("dp4jigsaw.geometry.polytope", "_enumerate",
     as_span("polytope.enumerate", _count_vertices)),
    ("dp4jigsaw.geometry.polytope", "_vertices_brute", as_span("polytope.brute")),
    ("dp4jigsaw.geometry.polytope", "dd_cone", as_span("dd", _count_rays)),
    ("dp4jigsaw.geometry.polytope", "_volume", as_span("polytope.volume")),
    ("dp4jigsaw.geometry.polytope", "frac_det",
     as_count("intlinalg.det", _count_simplex)),
    ("dp4jigsaw.geometry.polytope", "int_rank", as_count("intlinalg.rank")),
    ("dp4jigsaw.geometry.polytope", "affine_rank", as_count("intlinalg.rank")),
    ("dp4jigsaw.geometry._simplex", "solve_lp", as_span("simplex")),
    ("dp4jigsaw.torsor", "torsor_count", as_span("torsor.count")),
    ("dp4jigsaw.torsor", "_pair_counts_fast", as_span("torsor.kernel", _count_kernel)),
    ("dp4jigsaw.torsor", "_inverse_table", as_span("torsor.inverse", _count_inverse)),
    ("dp4jigsaw.torsor", "torsor_height_counts", as_span("torsor.height_counts")),
    ("dp4jigsaw.surface", "direct_height_counts", as_span("surface.direct")),
    ("dp4jigsaw.surface", "count_mod_p", as_span("surface.modp")),
    ("dp4jigsaw.constants", "leading_constant", as_span("constants.leading")),
    ("dp4jigsaw.constants", "finite_density_product", as_span("constants.euler")),
    ("dp4jigsaw.reporting", "emit_report", as_span("reporting.emit")),
    ("dp4jigsaw.reporting", "write_file", as_span("reporting.write", _count_bytes)),
    ("dp4jigsaw.reporting", "fit_log_quadratic", as_span("reporting.fit")),
]


def _resolve(module_name, path):
    """(owner object, attribute name), or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def install(rec, wrappers=WRAPPERS):
    """Install every wrapper that resolves; return the set of missing names."""
    missing = set()
    for module_name, path, installer in wrappers:
        target = _resolve(module_name, path)
        if target is None:
            missing.add(f"{module_name}.{path}")
            continue
        owner, attr = target
        setattr(owner, attr, installer(rec, getattr(owner, attr)))
    return missing


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num, den):
    """num/den, or 0.0 when nothing was attempted (the base is reported too)."""
    return num / den if den else 0.0


_P = "dp4jigsaw.geometry.polytope."
_J = "dp4jigsaw.jigsaw."
_T = "dp4jigsaw.torsor."

#: name -> (unit, wrapped names it needs, value from the recorder).  The
#: run-level metrics proc.cpu_s and trace.overhead_frac come from run.py.
LAYER_METRICS = {
    "simplex.calls": ("count", ["dp4jigsaw.geometry._simplex.solve_lp"],
                      lambda r: r.calls("simplex")),
    "simplex.self_s": ("s", ["dp4jigsaw.geometry._simplex.solve_lp"],
                       lambda r: r.self_s("simplex")),
    "dd.calls": ("count", [_P + "dd_cone"], lambda r: r.calls("dd")),
    "dd.self_s": ("s", [_P + "dd_cone"], lambda r: r.self_s("dd")),
    "dd.rays_out": ("count", [_P + "dd_cone"], lambda r: r.counts.get("dd.rays", 0)),
    "polytope.builds": ("count", [_P + "_enumerate"],
                        lambda r: r.calls("polytope.enumerate")),
    "polytope.enumerate_self_s": ("s", [_P + "_enumerate"],
                                  lambda r: r.self_s("polytope.enumerate")),
    "polytope.vertices_out": ("count", [_P + "_enumerate"],
                              lambda r: r.counts.get("polytope.vertices", 0)),
    "polytope.brute_calls": ("count", [_P + "_vertices_brute"],
                             lambda r: r.calls("polytope.brute")),
    "polytope.brute_self_s": ("s", [_P + "_vertices_brute"],
                              lambda r: r.self_s("polytope.brute")),
    "polytope.volume_calls": ("count", [_P + "_volume"],
                              lambda r: r.calls("polytope.volume")),
    "polytope.volume_self_s": ("s", [_P + "_volume"],
                               lambda r: r.self_s("polytope.volume")),
    "polytope.simplices": ("count", [_P + "_volume", _P + "frac_det"],
                           lambda r: r.counts.get("polytope.simplices", 0)),
    "polytope.disjoint_calls": ("count", [_J + "interiors_disjoint"],
                                lambda r: r.calls("polytope.disjoint")),
    "polytope.strict_feasible_calls": ("count", [_J + "strictly_feasible"],
                                       lambda r: r.calls("polytope.strict_feasible")),
    "polytope.cone_line_calls": ("count", [_J + "cone_contains_line"],
                                 lambda r: r.calls("polytope.cone_line")),
    "polytope.self_s": ("s", [_P + "_enumerate"], lambda r: r.self_s("polytope")),
    "intlinalg.rank_calls": ("count", [_P + "int_rank", _P + "affine_rank"],
                             lambda r: r.counts.get("intlinalg.rank", 0)),
    "intlinalg.det_calls": ("count", [_P + "frac_det"],
                            lambda r: r.counts.get("intlinalg.det", 0)),
    "jigsaw.check_s": ("s", [_J + "jigsaw_check"],
                       lambda r: r.inclusive_s("jigsaw.check")),
    "jigsaw.report_s": ("s", [_J + "degenerate_face_report"],
                        lambda r: r.inclusive_s("jigsaw.report")),
    "jigsaw.census_s": ("s", [_J + "slice_census"],
                        lambda r: r.inclusive_s("jigsaw.census")),
    "jigsaw.self_s": ("s", [_J + "jigsaw_check"], lambda r: r.self_s("jigsaw")),
    "jigsaw.faces_built": ("count", [_J + "face_polytope"],
                           lambda r: r.counts.get("jigsaw.faces_built", 0)),
    "jigsaw.pair_checks": ("count", [_J + "_FaceCache.pair_disjoint"],
                           lambda r: r.counts.get("jigsaw.pair.lookups", 0)),
    "jigsaw.pair_cache_hit_ratio": (
        "ratio", [_J + "_FaceCache.pair_disjoint"],
        lambda r: _ratio(r.counts.get("jigsaw.pair.hits", 0),
                         r.counts.get("jigsaw.pair.lookups", 0))),
    "jigsaw.volume_lookups": ("count", [_J + "_FaceCache.volume"],
                              lambda r: r.counts.get("jigsaw.volume.lookups", 0)),
    "jigsaw.volume_cache_hit_ratio": (
        "ratio", [_J + "_FaceCache.volume"],
        lambda r: _ratio(r.counts.get("jigsaw.volume.hits", 0),
                         r.counts.get("jigsaw.volume.lookups", 0))),
    "torsor.count_s": ("s", [_T + "torsor_count"], lambda r: r.inclusive_s("torsor.count")),
    "torsor.kernel_calls": ("count", [_T + "_pair_counts_fast"],
                            lambda r: r.calls("torsor.kernel")),
    "torsor.kernel_self_s": ("s", [_T + "_pair_counts_fast"],
                             lambda r: r.self_s("torsor.kernel")),
    "torsor.kernel_elements": ("count", [_T + "_pair_counts_fast"],
                               lambda r: r.counts.get("torsor.kernel_elements", 0)),
    "torsor.kernel_peak_elements": (
        "count", [_T + "_pair_counts_fast"],
        lambda r: r.counts.get("torsor.kernel_peak_elements", 0)),
    # Computed, not measured: 32 bytes per a2 element, i.e. the four int64
    # arrays of that length the kernel is defined by (a2, lo, hi, counts);
    # its other temporaries are not counted.
    "torsor.kernel_bytes_computed": (
        "bytes", [_T + "_pair_counts_fast"],
        lambda r: 32 * r.counts.get("torsor.kernel_elements", 0)),
    "torsor.inverse_calls": ("count", [_T + "_inverse_table"],
                             lambda r: r.calls("torsor.inverse")),
    "torsor.inverse_self_s": ("s", [_T + "_inverse_table"],
                              lambda r: r.self_s("torsor.inverse")),
    "torsor.inverse_entries": ("count", [_T + "_inverse_table"],
                               lambda r: r.counts.get("torsor.inverse_entries", 0)),
    "torsor.height_counts_s": ("s", [_T + "torsor_height_counts"],
                               lambda r: r.inclusive_s("torsor.height_counts")),
    "torsor.self_s": ("s", [_T + "torsor_count"], lambda r: r.self_s("torsor")),
    "surface.direct_s": ("s", ["dp4jigsaw.surface.direct_height_counts"],
                         lambda r: r.inclusive_s("surface.direct")),
    "surface.modp_calls": ("count", ["dp4jigsaw.surface.count_mod_p"],
                           lambda r: r.calls("surface.modp")),
    "surface.modp_s": ("s", ["dp4jigsaw.surface.count_mod_p"],
                       lambda r: r.inclusive_s("surface.modp")),
    "constants.leading_s": ("s", ["dp4jigsaw.constants.leading_constant"],
                            lambda r: r.inclusive_s("constants.leading")),
    "constants.euler_s": ("s", ["dp4jigsaw.constants.finite_density_product"],
                          lambda r: r.inclusive_s("constants.euler")),
    "reporting.emit_s": ("s", ["dp4jigsaw.reporting.emit_report",
                               "dp4jigsaw.reporting.write_file"],
                         lambda r: r.self_s("reporting.emit") + r.self_s("reporting.write")),
    "reporting.bytes_written": ("bytes", ["dp4jigsaw.reporting.write_file"],
                                lambda r: r.counts.get("reporting.bytes", 0)),
    "reporting.fit_s": ("s", ["dp4jigsaw.reporting.fit_log_quadratic"],
                        lambda r: r.inclusive_s("reporting.fit")),
    "cli.self_s": ("s", ["dp4jigsaw.cli.main"], lambda r: r.self_s("cli")),
    "bench.self_s": ("s", [], lambda r: r.self_s("bench")),
}


def accounted_s(rec):
    """Self time of every wrapped dp4jigsaw layer, cli.main's own included.

    The benchmark's own spans (``bench.*``: running and checking a job) are
    left out, so accounted_s / wall_s shows how much of a pass the layers
    explain.
    """
    return sum(n.self_s for n in rec.root.walk()) - rec.self_s("bench")


def layer_metrics(rec, missing):
    """{name: {"value", "unit"}}; a metric needing a missing name is absent."""
    out = {}
    for name, (unit, needs, value) in LAYER_METRICS.items():
        if any(n in missing for n in needs):
            out[name] = {"value": None, "unit": unit, "absent": True}
        else:
            out[name] = {"value": value(rec), "unit": unit}
    return out
