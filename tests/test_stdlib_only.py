"""The package imports nothing outside the standard library, and a cold CLI
start loads no more of it than the commands need."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "gotzmann").glob("*.py"))


def test_absolute_imports_are_stdlib():
    assert any(p.name == "core.py" for p in SOURCES)
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside


def test_cold_cli_import():
    """A fresh interpreter (-S: no site hooks) importing gotzmann.cli loads
    neither dataclasses nor the selftest module, and does load every module
    bench/worker.py reads out of sys.modules after that import."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import gotzmann.cli; "
            "print(*sorted(sys.modules))")
    loaded = set(subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                                text=True, check=True).stdout.split())
    assert not {"dataclasses", "gotzmann.selftest"} & loaded
    wanted = {f"gotzmann.{name}" for name in
              ("core", "lex", "classify", "decompose", "counting", "series", "textio")}
    assert wanted <= loaded
