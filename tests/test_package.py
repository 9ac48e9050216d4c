import ast
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qresidue
from qresidue.arith import FactoredInteger
from qresidue.criterion import Decision, SkalbaCertificate, Verdict, decide
from qresidue.primescan import DensityReport, PrimeCheckReport
from qresidue.profiles import QInput, ResidueProfile, TrivialCertificate

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


def test_cli_import_leaves_out_what_only_some_commands_need():
    # A one-shot call pays for every module that importing the CLI loads:
    # dataclasses brings inspect, ast and dis, and primescan (with fractions)
    # serves only scan and census.  Only what the import itself adds counts,
    # as an interpreter's site may load some of these before it.
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import qresidue.cli\n"
        "added = sorted(sys.modules.keys() - before)\n"
        "code = qresidue.cli.main(['census', '--q', '3', '--set', '2,3,6,12', '--bound', '1000'])\n"
        "print(json.dumps([added, code, 'qresidue.primescan' in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                          timeout=60, check=True)
    added, code, census_loaded_primescan = json.loads(proc.stdout.splitlines()[-1])
    assert "qresidue.cli" in added
    assert {"dataclasses", "inspect", "fractions", "qresidue.primescan"}.isdisjoint(added)
    assert code == 0 and census_loaded_primescan


# Each result record, its fields by keyword, the field to change for an
# unequal record, and its repr: the text the frozen dataclasses printed.
RECORDS = [
    (FactoredInteger, {"sign": -1, "factors": ((2, 2), (3, 1))}, ("sign", 1),
     "FactoredInteger(sign=-1, factors=((2, 2), (3, 1)))"),
    (QInput, {"q": 3, "elements": (2, 3)}, ("q", 5),
     "QInput(q=3, elements=(2, 3))"),
    (TrivialCertificate, {"index": 0, "root": 2}, ("root", -2),
     "TrivialCertificate(index=0, root=2)"),
    (ResidueProfile, {"q": 3, "support_primes": (2, 3, 5), "exponents": ((1, 0), (0, 1), (1, 1)),
                      "provenance": {0: 10, 1: 15}, "qfree_values": (10, 15)}, ("q", 5),
     "ResidueProfile(q=3, support_primes=(2, 3, 5), exponents=((1, 0), (0, 1), (1, 1)), "
     "provenance={0: 10, 1: 15}, qfree_values=(10, 15))"),
    (Decision, {"verdict": Verdict.YES, "profile": None, "trivial": None, "covering": None},
     ("verdict", Verdict.NO),
     "Decision(verdict=<Verdict.YES: 'yes'>, profile=None, trivial=None, covering=None)"),
    (SkalbaCertificate, {"c": (1, 1, 1, 1), "f": (2, 2, 1, 0), "product": 216, "root": 6},
     ("root", 7), "SkalbaCertificate(c=(1, 1, 1, 1), f=(2, 2, 1, 0), product=216, root=6)"),
    (PrimeCheckReport, {"p": 7, "splits": True, "per_element": ((2, False), (3, False))},
     ("splits", False),
     "PrimeCheckReport(p=7, splits=True, per_element=((2, False), (3, False)))"),
    (DensityReport, {"bound": 1000, "primes_checked": 166, "excluded_primes": 2,
                     "split_primes": 80, "failing_count": 17, "failing_primes": (13, 19),
                     "empirical_density": Fraction(17, 166), "predicted_density": Fraction(1, 9)},
     ("bound", 999),
     "DensityReport(bound=1000, primes_checked=166, excluded_primes=2, split_primes=80, "
     "failing_count=17, failing_primes=(13, 19), empirical_density=Fraction(17, 166), "
     "predicted_density=Fraction(1, 9))"),
]


@pytest.mark.parametrize("cls, fields, change, text", RECORDS,
                         ids=[record[0].__name__ for record in RECORDS])
def test_records_are_immutable_named_tuples(cls, fields, change, text):
    record = cls(**fields)
    assert record == cls(*fields.values()) == tuple(fields.values())
    assert record._fields == tuple(fields)
    assert repr(record) == text
    assert record != record._replace(**dict([change]))
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_record_properties_and_defaults():
    profile = ResidueProfile(3, (2, 3, 5), ((1, 0), (0, 1), (1, 1)), {0: 10, 1: 15}, (10, 15))
    assert (profile.k, profile.l) == (3, 2)
    assert Decision(Verdict.YES, profile) == Decision(Verdict.YES, profile, None, None)
    assert Decision(Verdict.YES, profile).uncovered is None
    no = decide(QInput(3, (2, 3, 6)))
    assert no.verdict is Verdict.NO and no.uncovered == no.covering.witness == (1, 1)
