"""The package imports nothing outside the standard library, a cold CLI start
executes no more of it than the command needs, and the lazy package still
exports every public name."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gotzmann
from gotzmann.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "gotzmann").glob("*.py"))
COLD = [sys.executable, "-W", "error", "-S"]

# the public API: each name `import gotzmann` exports, by the module that defines it
EXPORTS = {
    "core": ("POLY", "SQF", "InvariantViolation", "MonomialIdeal", "MonomialSpace",
             "RingContext", "binom", "component_space", "minimalize",
             "poly_hilbert_from_sqf", "poly_ring", "shadow_up", "space", "sqf_hilbert",
             "sqf_ring", "unit_ideal", "zero_ideal"),
    "lex": ("is_gotzmann_ideal", "is_gotzmann_space", "is_lex_segment",
            "is_lex_some_order", "lex_segment", "lexify_in_R", "macaulay_rep",
            "minimal_growth", "sqf_lexify_in_S"),
    "classify": ("SupernovaForm", "canonicalize", "recognize_supernova",
                 "supernova_to_ideal"),
    "decompose": ("Decomposition", "alexander_dual_ideal", "alexander_dual_space",
                  "colon_with_n1", "compress", "decompose", "growth_equality", "is_gdual",
                  "pick_variable", "reassemble", "reconstruct"),
    "counting": ("count_table", "count_up_to_symmetry", "enumerate_antichains",
                 "enumerate_gotzmann", "enumerate_osp", "fubini", "osp_to_ideal"),
    "series": ("egf_coefficient",),
}


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
    neither dataclasses, fractions, decimal, json nor the selftest module.
    It registers in sys.modules every module that bench/worker.py reads out
    of it after that import; a command executes only the ones it needs."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import gotzmann.cli; "
            "print(*sorted(sys.modules))")
    loaded = set(subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                                text=True, check=True).stdout.split())
    assert not {"dataclasses", "fractions", "decimal", "json", "gotzmann.selftest"} & loaded
    wanted = {f"gotzmann.{name}" for name in
              ("core", "lex", "classify", "decompose", "counting", "series", "textio")}
    assert wanted <= loaded


@pytest.mark.parametrize("argv", [
    ["check", "--ring", "S", "a,bc"], ["check", "--ring", "R", "ab,ac,bd,cd"],
    ["classify", "a,bc"], ["lexify", "abc,bde,cfg"],
], ids=["check-S", "check-R", "classify", "lexify"])
def test_cold_command_leaves_counting_decompose_and_series_unexecuted(argv):
    # type() reads a lazy module's type without executing it
    snippet = (f"import io, sys, types; sys.path.insert(0, {str(SRC)!r}); import gotzmann.cli; "
               f"sys.stdout = io.StringIO(); code = gotzmann.cli.main({argv!r}); "
               "sys.stdout = sys.__stdout__; "
               "print(code, *sorted(name for name, m in sys.modules.items() "
               "if name.startswith('gotzmann.') and type(m) is types.ModuleType))")
    code, *executed = subprocess.run([*COLD, "-c", snippet], capture_output=True, text=True,
                                     check=True).stdout.split()
    assert code == "0"
    assert executed == [f"gotzmann.{name}" for name in
                        ("classify", "cli", "core", "lex", "textio")]


@pytest.mark.parametrize("argv", [
    ["dual", "--json", "ab,ac,bd,cd"], ["compress", "--var", "c", "ab,ac,ad,bc,de"],
    ["decompose", "--var", "c", "ab,ac,ad,bc,de"], ["count", "--max-n", "3"],
    ["series", "--name", "gotzmann", "--terms", "6"], ["enumerate", "--n", "3"],
], ids=["dual", "compress", "decompose", "count", "series", "enumerate"])
def test_cold_command_prints_what_a_warm_one_does(argv, capsys):
    assert main(argv) == 0
    warm = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cold = subprocess.run([*COLD, "-m", "gotzmann", *argv], capture_output=True, text=True,
                          env=env, check=True)
    assert warm and cold.stdout == warm and cold.stderr == ""


def test_exports_are_their_module_attributes():
    assert sorted(gotzmann.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(gotzmann, name) is getattr(sys.modules[f"gotzmann.{module}"], name)
    from gotzmann import counting, decompose

    assert decompose is sys.modules["gotzmann.decompose"].decompose
    assert counting is sys.modules["gotzmann.counting"]
    with pytest.raises(AttributeError, match="no_such_name"):
        gotzmann.no_such_name
