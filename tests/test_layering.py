"""The package's import structure: stdlib only, and one layer order.

Each module may import only modules earlier in the chain, so the lower
layers never depend on the higher ones (the order the package docstring
states).  Every CLI call is a fresh process, so the runtime also keeps
clear of modules that are slow to import.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drhier"
ORDER = ["slots", "scalars", "diffpoly", "psido", "hamops", "gdhier", "drspin",
         "quantize", "reconstruct", "cli"]


def imports(module: str):
    """(is_relative, top-level name) for every import in the module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield False, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module:
                    yield True, node.module.split(".")[0]
                else:
                    yield from ((True, alias.name) for alias in node.names)
            else:
                yield False, node.module.split(".")[0]


# dataclasses pulls in inspect, ast, dis and tokenize: together they took
# more of a process's start than the rest of importing drhier.cli
SLOW_IMPORTS = {"dataclasses", "inspect", "typing"}


def test_every_module_is_in_the_order():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


@pytest.mark.parametrize("module", ORDER + ["__init__"])
def test_runtime_is_pure_stdlib(module):
    for relative, name in imports(module):
        assert relative or name in sys.stdlib_module_names, \
            f"{module} imports {name}, which is neither stdlib nor relative"


@pytest.mark.parametrize("module", ORDER + ["__init__"])
def test_only_the_weyl_algebra_layers_name_algscalar(module):
    # differential polynomials, operators, t-series and star products are
    # over Q; Q(i) is left to the Weyl-algebra boundary
    text = (PACKAGE / f"{module}.py").read_text()
    if module not in ("scalars", "quantize"):
        assert "AlgScalar" not in text, f"{module} names AlgScalar"


@pytest.mark.parametrize("module", ORDER)
def test_imports_follow_the_layer_order(module):
    earlier = ORDER[:ORDER.index(module)]
    for relative, name in imports(module):
        assert not relative or name in earlier, f"{module} imports {name}, not below it"


@pytest.mark.parametrize("module", ORDER + ["__init__"])
def test_runtime_avoids_slow_imports(module):
    for relative, name in imports(module):
        assert relative or name not in SLOW_IMPORTS, f"{module} imports {name}"


def test_importing_the_cli_loads_no_slow_module():
    # -S: no site hooks, whose own imports are not drhier's
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import drhier.cli; "
             f"print(sorted(sys.modules.keys() & {sorted(SLOW_IMPORTS)!r}))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out == "[]\n"
