import ast
import sys
from pathlib import Path

import qresidue

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qresidue"


def test_package_exports_only_the_public_surface():
    assert sorted(qresidue.__all__) == ["Decision", "GuardError", "QInput", "Verdict", "decide"]
    decision = qresidue.decide(qresidue.QInput(3, (2, 3, 6, 12)))
    assert isinstance(decision, qresidue.Decision)
    assert decision.verdict is qresidue.Verdict.YES


def _foreign_imports(source):
    """Top-level names of imports that are neither stdlib nor from the package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [
        name for name in names
        if name.split(".")[0] not in sys.stdlib_module_names | {"qresidue"}
    ]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        assert _foreign_imports(path.read_text()) == [], path.name
    # the check itself sees imports anywhere in a module, also in a function
    assert _foreign_imports("import os.path\nfrom . import arith\nfrom qresidue.x import y\n") == []
    foreign = _foreign_imports("def f():\n    import numpy.linalg\nfrom sympy import isprime\n")
    assert sorted(foreign) == ["numpy.linalg", "sympy"]
