"""Exact decision engine and certificate generator for essential surfaces in graph manifolds.

Given a graph manifold described by its Seifert-fibered pieces and gluing tori,
this package decides, in exact rational arithmetic:

- whether the manifold contains an immersed essential surface of negative
  Euler characteristic (the "immersed" property), and
- whether it contains one that lifts to an embedding in a finite cover
  (the "virtually embedded" property),

and backs each positive answer with an independently checkable algebraic
certificate (a singular reduction of the decomposition matrix, a horizontal
curve system, or a finite-cover witness).
"""

from .exact_linalg import Inertia, Rational, SymMatrix, inertia, rational_str, to_rational
from .manifold import DecompositionGraph, GluingTorus, InvalidGraphError, SeifertPiece
from .decision import Branch, Verdict, decide

__all__ = [
    "Branch",
    "DecompositionGraph",
    "GluingTorus",
    "Inertia",
    "InvalidGraphError",
    "Rational",
    "SeifertPiece",
    "SymMatrix",
    "Verdict",
    "decide",
    "inertia",
    "rational_str",
    "to_rational",
]

__version__ = "0.1.0"
