"""The traced torsor counters keep their closed forms.

bench/layers.py counts the torsor kernel by wrapping _pair_counts_fast
(calls, and len of its second positional argument) and the inverse tables
by wrapping _inverse_table (calls, and its first positional argument).  A
kernel that is renamed, called by keyword, or no longer called once per
(a1, bound) with a1 <= S = max K // 2 changes these counts; the moduli
above S go through the columns and closed forms, which build no table.  The
sweep builds its tables a block of moduli at a time (_class_rows), which
the benchmark does not wrap, so its inverse counters read 0 on a sweep;
TestColumns.test_inverse_tables_only_up_to_s counts the moduli there.  The
wrappers patch the module, so the sweep runs in a child process.
"""

import json
import os
import pathlib
import subprocess
import sys
from math import isqrt

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


def test_torsor_counters_match_their_closed_forms():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    counters = json.loads(proc.stdout.splitlines()[-1])
    ks = [isqrt(b) for b in BOUNDS]
    s = max(ks) // 2
    expected = {
        # one kernel call per (a1, bound), a1 = 2..min(K, S), over the a2 in (a1, K]
        "torsor.kernel_calls": sum(min(k, s) - 1 for k in ks),
        "torsor.kernel_elements": sum(k - a1 for k in ks for a1 in range(2, min(k, s) + 1)),
        # no per-modulus table: _inverse_table is off the sweep's path
        "torsor.inverse_calls": 0,
        "torsor.inverse_entries": 0,
    }
    assert expected == {"torsor.kernel_calls": 256, "torsor.kernel_elements": 41903,
                        "torsor.inverse_calls": 0, "torsor.inverse_entries": 0}
    assert counters == expected
