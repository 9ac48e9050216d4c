"""Decide whether a finite set of nonzero integers contains a q-th power
residue modulo almost every prime, via hyperplane coverings of F_q^k."""

from .covering import GuardError
from .criterion import Decision, Verdict, decide
from .profiles import QInput

__all__ = ["Decision", "GuardError", "QInput", "Verdict", "decide"]
