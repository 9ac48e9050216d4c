import qresidue


def test_package_exports_only_the_public_surface():
    assert sorted(qresidue.__all__) == ["Decision", "GuardError", "QInput", "Verdict", "decide"]
    decision = qresidue.decide(qresidue.QInput(3, (2, 3, 6, 12)))
    assert isinstance(decision, qresidue.Decision)
    assert decision.verdict is qresidue.Verdict.YES
