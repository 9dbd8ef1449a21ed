"""The traced torsor counters keep their closed forms.

bench/layers.py counts the torsor kernel by wrapping _pair_counts_fast
(calls, and len of its second positional argument) and the inverse tables
by wrapping _inverse_table (calls, and its first positional argument).  The
kernel runs once per chunk of consecutive rows a1 < K, a1 <= S = max K // 2,
of one bound, and its second argument is the chunk's (rows, x) classes, so
the benchmark's kernel_elements counts rows, not elements.  A kernel that is
renamed, called by keyword, or chunked otherwise changes these counts; the
moduli above S go through the columns and closed forms, which build no table.  The
sweep builds its tables a block of moduli at a time (_class_rows), which
the benchmark does not wrap, so its inverse counters read 0 on a sweep;
TestColumns.test_inverse_tables_only_up_to_s counts the moduli there.  The
wrappers patch the module, so the sweep runs in a child process.

The benchmark's reporting.bytes_written adds up the texts passed to
reporting.write_file, which writes every artifact of the count report.
"""

import json
import os
import pathlib
import subprocess
import sys
from math import isqrt

from dp4jigsaw import torsor as T

ROOT = pathlib.Path(__file__).resolve().parent.parent

BOUNDS = [10 ** 4, 10 ** 5]

CHILD = f"""
import json
import layers
from dp4jigsaw import torsor
rec = layers.Recorder()
missing = layers.install(rec)
torsor.torsor_counts({BOUNDS!r})
metrics = layers.layer_metrics(rec, missing)
print(json.dumps({{name: metrics[name]["value"] for name in (
    "torsor.kernel_calls", "torsor.kernel_elements",
    "torsor.inverse_calls", "torsor.inverse_entries")}}))
"""


def chunk_rows(k, s):
    """The rows of each kernel call for one K: each SHARE_BLOCK block of the
    moduli 2..S takes its rows y < K max(1, ROW_CHUNK // (K - y)) at a time,
    y the chunk's first row."""
    for lo in range(2, s + 1, T.SHARE_BLOCK):
        y, top = lo, min(lo + T.SHARE_BLOCK - 1, s, k - 1)
        while y <= top:
            end = min(y + max(1, T.ROW_CHUNK // (k - y)), top + 1)
            yield end - y
            y = end


def traced_child(code, *args):
    """Run code in a child that imports this tree's dp4jigsaw and bench/layers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=300)


def test_torsor_counters_match_their_closed_forms():
    proc = traced_child(CHILD)
    assert proc.returncode == 0, proc.stderr[-2000:]
    counters = json.loads(proc.stdout.splitlines()[-1])
    ks = [isqrt(b) for b in BOUNDS]
    s = max(ks) // 2
    # every row a1 = 2..min(K - 1, S) in one chunk
    assert sum(sum(chunk_rows(k, s)) for k in ks) == sum(min(k - 1, s) - 1 for k in ks)
    expected = {
        # one kernel call per chunk of rows and bound, its length the chunk's rows
        "torsor.kernel_calls": sum(1 for k in ks for _ in chunk_rows(k, s)),
        "torsor.kernel_elements": sum(sum(chunk_rows(k, s)) for k in ks),
        # no per-modulus table: _inverse_table is off the sweep's path
        "torsor.inverse_calls": 0,
        "torsor.inverse_entries": 0,
    }
    assert expected == {"torsor.kernel_calls": 5, "torsor.kernel_elements": 255,
                        "torsor.inverse_calls": 0, "torsor.inverse_entries": 0}
    assert counters == expected


BYTES_CHILD = """
import json
import sys
import layers
from dp4jigsaw import cli
rec = layers.Recorder()
missing = layers.install(rec)
status = cli.main(["--output", sys.argv[1], "count", "--bound", "10"])
metrics = layers.layer_metrics(rec, missing)
print(json.dumps([status, metrics["reporting.bytes_written"]["value"]]))
"""


def test_traced_bytes_are_the_count_report_sizes(tmp_path):
    proc = traced_child(BYTES_CHILD, str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    status, written = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0
    names = sorted(os.listdir(tmp_path))
    assert names == ["counts.csv", "counts.json"]
    assert written == sum((tmp_path / name).stat().st_size for name in names) > 0
