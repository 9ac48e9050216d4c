import ast
import importlib
import sys
from pathlib import Path

import qresidue

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qresidue"


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


def test_every_traced_name_resolves():
    # The benchmark's tracer wraps these functions by name, so each must stay
    # a callable of its module even when no production path calls it
    # (criterion.skalba_condition_holds, the one-twist definition the oracle
    # is tested against).
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    traced = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    )
    assert "skalba_condition_holds" in traced["criterion"]
    for module, names in traced.items():
        mod = importlib.import_module(f"qresidue.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
