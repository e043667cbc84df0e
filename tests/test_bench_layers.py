"""Every function the benchmark's tracer wraps is still defined where it is named.

The tracer resolves each `module.function` key of bench/layers.json as an
attribute of the loaded `gotzmann.<module>`, so deleting or renaming one of
them breaks traced benchmark runs.
"""

import json
import sys
from pathlib import Path

import gotzmann.cli  # noqa: F401  (the package __init__ registers the other modules)

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.json"


def test_layer_keys_resolve():
    keys = json.loads(LAYERS.read_text())["functions"]
    missing = []
    for key in keys:
        module, name = key.split(".")
        if not hasattr(sys.modules.get(f"gotzmann.{module}"), name):
            missing.append(key)
    assert keys and not missing, missing
