"""Report emission: CSV tables, JSON mirrors, static SVG charts, fits.

Outputs are byte-deterministic for a fixed configuration: keys are sorted,
floats go through repr, and timing columns are zeroed unless explicitly
requested.
"""

import json
import math
import os
from dataclasses import asdict, dataclass
from fractions import Fraction

from .errors import DegenerateDesignMatrix, IoFailure

CSV_HEADER = "B,count,predicted,ratio,method,elapsed_s"


@dataclass(frozen=True)
class CountRow:
    bound: Fraction
    count: int
    predicted: float
    ratio: float
    method: str
    elapsed: float


def make_rows(results, predictor=None, timings=False):
    """CountResults -> CountRows, attaching predictions where defined."""
    rows = []
    for r in results:
        predicted = None
        ratio = None
        if predictor is not None and float(r.bound) > 1.0:
            predicted = predictor(float(r.bound))
            ratio = r.count / predicted if predicted else None
        rows.append(CountRow(bound=Fraction(r.bound), count=r.count,
                             predicted=predicted, ratio=ratio, method=r.method,
                             elapsed=r.elapsed if timings else 0.0))
    return rows


def _fmt_opt_float(x):
    return "" if x is None else repr(float(x))


def emit_counts_csv(rows):
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.bound), str(r.count), _fmt_opt_float(r.predicted),
            _fmt_opt_float(r.ratio), r.method, repr(float(r.elapsed)),
        ]))
    return "\n".join(lines) + "\n"


def rows_to_json_dict(rows):
    return {
        "counts": [
            {"B": str(r.bound), "count": r.count,
             "predicted": r.predicted, "ratio": r.ratio,
             "method": r.method, "elapsed_s": r.elapsed}
            for r in rows
        ]
    }


def dump_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_file(outdir, name, text):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


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
    if np.linalg.matrix_rank(design) < 3:
        raise DegenerateDesignMatrix("design matrix is rank deficient")
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
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
    """Write the count report in the requested formats; returns paths."""
    if not rows:
        raise IoFailure("refusing to emit an empty report")
    paths = []
    if "csv" in formats:
        paths.append(write_file(outdir, "counts.csv", emit_counts_csv(rows)))
    if "json" in formats:
        paths.append(write_file(outdir, "counts.json", dump_json(rows_to_json_dict(rows))))
    if "svg" in formats:
        pts = [(math.log(float(r.bound)), r.ratio)
               for r in rows if r.ratio is not None]
        if pts:
            svg = svg_line_chart([("count/predicted", pts)],
                                 "ratio vs log B", "log B", "ratio")
            paths.append(write_file(outdir, "counts.svg", svg))
    return paths
