"""Decide whether a finite set of nonzero integers contains a q-th power
residue modulo almost every prime, via hyperplane coverings of F_q^k.

The result records are namedtuple subclasses: importing dataclasses (with
inspect, ast and dis) would cost a one-shot CLI call more than its answer."""

from .covering import GuardError
from .criterion import Decision, Verdict, decide
from .profiles import QInput

__all__ = ["Decision", "GuardError", "QInput", "Verdict", "decide"]
