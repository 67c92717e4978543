"""The benchmark's layer tracer wraps functions by name; they must all exist.

`bench/tracer.py` looks each name of its TRACED table up in its
`uplane.<layer>` module when a traced run starts, so a renamed or removed
function would only show up as a failed `--trace 1` run.
"""

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench.tracer import TRACED  # noqa: E402


def test_every_traced_name_is_a_module_level_function():
    missing = []
    for layer, names in TRACED.items():
        module = importlib.import_module(f"uplane.{layer}")
        for name in names:
            if not callable(getattr(module, name, None)):
                missing.append(f"uplane.{layer}.{name}")
    assert missing == []

