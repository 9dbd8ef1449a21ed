"""Report emission: CSV tables, JSON mirrors, static SVG charts, fits, and
the point and tuple streams.  Every artifact file dp4 writes is written here.

Outputs are byte-deterministic for a fixed configuration: keys are sorted,
floats go through repr, and timing columns are zeroed unless explicitly
requested.
"""

import json
import math
import os
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateDesignMatrix, IoFailure

CSV_HEADER = "B,count,predicted,ratio,method,elapsed_s"


class CountRow(NamedTuple):
    bound: Fraction     # or the int it equals
    count: int
    predicted: float
    ratio: float
    method: str
    elapsed: float


def count_rows(bounds, counts, method, predictor=None, elapsed=0.0):
    """Yield one CountRow per bound and its count, with the prediction where defined."""
    for bound, count in zip(bounds, counts, strict=True):
        predicted = ratio = None
        if predictor is not None and float(bound) > 1.0:
            predicted = predictor(float(bound))
            ratio = count / predicted if predicted else None
        yield CountRow(bound, int(count), predicted, ratio, method, elapsed)


def _fmt_opt_float(x):
    return "" if x is None else repr(float(x))


def _csv_line(r):
    return (f"{r.bound!s},{r.count},{_fmt_opt_float(r.predicted)},"
            f"{_fmt_opt_float(r.ratio)},{r.method},{float(r.elapsed)!r}")


def dump_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_file(outdir, name, text):
    """Write text to outdir/name, making outdir; an OSError raises IoFailure."""
    path = os.path.join(outdir, name)
    try:
        os.makedirs(outdir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from None
    return path


def write_lines(path, items):
    """Write each item's text one a line, as the items are produced: the point
    stream ('x0:x1:x2:x3:x4,H') and the tuple stream ('a1,...,a9').  An
    OSError becomes IoFailure."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for item in items:
                fh.write(f"{item}\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Least-squares fit of N(B)/B against (log B)^2, log B, 1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    c2: float
    c1: float
    c0: float
    residual: float
    sample_count: int

    def to_json_dict(self):
        return asdict(self)


def fit_log_quadratic(samples):
    """Least-squares fit of N/B ~ c2 (log B)^2 + c1 log B + c0.

    Exact quadratic-in-log data is reproduced with (numerically) zero
    residual.  Requires at least four samples at distinct bounds B > 1.
    """
    import numpy as np  # the only numpy user here; dp4 jigsaw never loads it

    if len(samples) < 4:
        raise DegenerateDesignMatrix("need at least 4 samples")
    bounds = [float(b) for b, _ in samples]
    if len(set(bounds)) != len(bounds) or any(b <= 1.0 for b in bounds):
        raise DegenerateDesignMatrix("bounds must be distinct and > 1")
    ln = np.log(np.array(bounds))
    y = np.array([float(n) for _, n in samples]) / np.array(bounds)
    design = np.vstack([ln ** 2, ln, np.ones_like(ln)]).T
    # lstsq's rank has matrix_rank's default tolerance, from the same SVD
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 3:
        raise DegenerateDesignMatrix("design matrix is rank deficient")
    residual = float(np.linalg.norm(design @ coef - y))
    return FitResult(c2=float(coef[0]), c1=float(coef[1]), c0=float(coef[2]),
                     residual=residual, sample_count=len(samples))


# ---------------------------------------------------------------------------
# Minimal deterministic SVG line chart
# ---------------------------------------------------------------------------

def svg_line_chart(series, title, xlabel, ylabel, width=640, height=400):
    """series: list of (name, [(x, y), ...]); returns SVG text."""
    pad = 50
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if not xs:
        raise IoFailure("nothing to plot")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{height // 2}" font-size="12" transform="rotate(-90 14 {height // 2})" '
        f'text-anchor="middle">{ylabel}</text>',
        f'<text x="{pad}" y="{height - pad + 16}" font-size="10" text-anchor="middle">{x0:.6g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 16}" font-size="10" text-anchor="middle">{x1:.6g}</text>',
        f'<text x="{pad - 4}" y="{height - pad}" font-size="10" text-anchor="end">{y0:.6g}</text>',
        f'<text x="{pad - 4}" y="{pad + 4}" font-size="10" text-anchor="end">{y1:.6g}</text>',
    ]
    for k, (name, pts) in enumerate(series):
        color = colors[k % len(colors)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 14 * k}" font-size="11" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(rows, formats, outdir):
    """Write the count report, a list of CountRows, in the requested formats;
    returns the paths.  Each file's text is built whole: counts.csv by one
    join, counts.json by dump_json, and the SVG chart from the rows' ratios.
    """
    if not rows:
        raise IoFailure("refusing to emit an empty report")
    paths = []
    if "csv" in formats:
        paths.append(write_file(outdir, "counts.csv",
                                "\n".join([CSV_HEADER, *map(_csv_line, rows)]) + "\n"))
    if "json" in formats:
        paths.append(write_file(outdir, "counts.json", dump_json({"counts": [
            {"B": str(r.bound), "count": r.count, "predicted": r.predicted,
             "ratio": r.ratio, "method": r.method, "elapsed_s": r.elapsed}
            for r in rows]})))
    pts = [(math.log(float(r.bound)), r.ratio) for r in rows if r.ratio is not None]
    if "svg" in formats and pts:
        svg = svg_line_chart([("count/predicted", pts)], "ratio vs log B", "log B", "ratio")
        paths.append(write_file(outdir, "counts.svg", svg))
    return paths
