"""Executable logics for pronoun descriptors.

Subpackages by concern: formula syntax (:mod:`pdlogic.linear`,
:mod:`pdlogic.temporal`, :mod:`pdlogic.freelogic`), concrete text syntax
(:mod:`pdlogic.parsing` reads it, and :mod:`pdlogic.notation`, the one
renderer, writes it from the same tables), derivability
(:mod:`pdlogic.prover`), finite-trace monitoring (:mod:`pdlogic.monitoring`),
and document checking (:mod:`pdlogic.textcheck`).
"""

from .atoms import PronounAtom, atom

__all__ = ["PronounAtom", "atom"]
__version__ = "0.1.0"
