"""Every name the benchmark wraps still resolves.

bench/layers.py installs its tracing wrappers by module and attribute name,
and a traced run reports every metric of a wrapped name that is gone as
absent.  This test only resolves each entry; it installs nothing, so no
module gets patched.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))

import layers  # noqa: E402


def test_every_wrapped_name_resolves():
    missing = [f"{module}.{path}" for module, path, _ in layers.WRAPPERS
               if layers._resolve(module, path) is None]
    assert missing == []
