"""Report emission: CSV tables, JSON mirrors, static SVG charts, fits, and
the point and tuple streams.  Every artifact file dp4 writes is written here.

Outputs are byte-deterministic for a fixed configuration: keys are sorted,
floats go through repr, and timing columns are zeroed unless explicitly
requested.
"""

import contextlib
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .errors import DegenerateDesignMatrix, IoFailure

CSV_HEADER = "B,count,predicted,ratio,method,elapsed_s"

#: rows per write of the count report, so that its text never exceeds one block
REPORT_BLOCK = 1 << 8


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


def _json_float(x):
    """x as json.dumps writes it: null, or a float by float.__repr__."""
    if x is None:
        return "null"
    x = float(x)
    return repr(x) if math.isfinite(x) else json.dumps(x)


#: One row of counts.json as json.dumps(sort_keys=True, indent=2) writes it.
_JSON_ROW = ('    {{\n      "B": {},\n      "count": {},\n      "elapsed_s": {},\n'
             '      "method": {},\n      "predicted": {},\n      "ratio": {}\n    }}')


def _json_row(r):
    return _JSON_ROW.format(encode_basestring_ascii(str(r.bound)), str(r.count),
                            _json_float(r.elapsed), encode_basestring_ascii(r.method),
                            _json_float(r.predicted), _json_float(r.ratio))


def dump_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_file(outdir, name, text):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def write_lines(path, items):
    """Write each item's text one a line, as the items are produced: the point
    stream ('x0:x1:x2:x3:x4,H') and the tuple stream ('a1,...,a9')."""
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            fh.write(f"{item}\n")


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


#: counts.<format>: (head, row formatter, separator, tail), the parts of the whole text
_REPORT_FILES = {
    "csv": (CSV_HEADER + "\n", _csv_line, "\n", "\n"),
    "json": ('{\n  "counts": [\n', _json_row, ",\n", "\n  ]\n}\n"),
}


def emit_report(rows, formats, outdir):
    """Write the count report in the requested formats; returns paths.

    rows may be any iterable, a generator included.  It is read once,
    REPORT_BLOCK rows at a time, and each block goes to counts.csv and
    counts.json before the next is made, with the bytes of the whole text.
    Only the SVG chart keeps a point per row, as its text does.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        raise IoFailure("refusing to emit an empty report")
    rows = itertools.chain([first], rows)
    fmts = [fmt for fmt in _REPORT_FILES if fmt in formats]
    if fmts:
        os.makedirs(outdir, exist_ok=True)
    paths = [os.path.join(outdir, f"counts.{fmt}") for fmt in fmts]
    pts = []
    with contextlib.ExitStack() as stack:
        out = [(stack.enter_context(open(path, "w", encoding="utf-8")), *_REPORT_FILES[fmt])
               for path, fmt in zip(paths, fmts)]
        for fh, head, _, _, _ in out:
            fh.write(head)
        for i, block in enumerate(iter(lambda: list(itertools.islice(rows, REPORT_BLOCK)), [])):
            for fh, _, fmt, sep, _ in out:
                fh.write((sep if i else "") + sep.join(map(fmt, block)))
            if "svg" in formats:
                pts.extend((math.log(float(r.bound)), r.ratio)
                           for r in block if r.ratio is not None)
        for fh, _, _, _, tail in out:
            fh.write(tail)
    if pts:
        svg = svg_line_chart([("count/predicted", pts)], "ratio vs log B", "log B", "ratio")
        paths.append(write_file(outdir, "counts.svg", svg))
    return paths
