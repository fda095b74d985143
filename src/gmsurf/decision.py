"""Decision procedures for the two surface-existence properties.

Both decisions read off signs of Perron roots, never eigenvalue counts.  A
connected matrix in A-minus form (couplings >= 0: the decomposition matrix
with positive diagonal entries negated, or a principal block of it) has a
Perron root rho, its largest eigenvalue, above that of every proper
principal block (Berman and Plemmons, *Nonnegative Matrices in the
Mathematical Sciences*, ch. 2 and 6; Horn and Johnson, *Matrix Analysis*,
ch. 8):

- "immersed" (property I) holds iff rho of A-minus is positive, or zero
  while all diagonal entries of A share a sign (all >= 0 or all <= 0);
- "virtually embedded" (property VE) holds iff one of the two diagonal blocks,
  the positive-diagonal block with its diagonal negated or the
  negative-diagonal block, fails to be negative definite, that is, has a
  connected component with rho >= 0.  A zero diagonal entry makes whichever
  block receives it non-definite, so any zero diagonal gives VE at once.

VE implies I for every connected input (tested exhaustively downstream), so a
disconnected matrix graph is rejected rather than decided per component.
Each sign comes from :func:`_perron_sign`, asked of A's own rows or those of
a block component (:func:`gmsurf.exact_linalg._component_rows`).  The Perron
search reads a diagonal entry only as its absolute value, so no copy of the
rows in A-minus form is made, and it settles the rare input that no
fixed-point round decides by its own one exact step.

For two-piece manifolds the single rational D = A11*A22 / A12^2 carries both
answers: I holds iff -1 < D <= 1 and VE holds iff 0 <= D <= 1.  That invariant
is exposed as an independent cross-check.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from fractions import Fraction

from .exact_linalg import (
    DisconnectedMatrixError,
    SymMatrix,
    _component_rows,
    _components,
    _perron_search,
    _scaled,
    inertia,  # unused here; bench/tests/test_tracer.py checks the tracer replaces this binding
    matrix_components,
)
from .manifold import split_blocks
from .value import Value, _set


class NotTwoPieceError(ValueError):
    """The matrix is not a two-piece decomposition matrix with a positive coupling."""


class Branch(Enum):
    """Which clause of the immersed-surface criterion fired."""

    POSITIVE_EIGENVALUE = "PositiveEigenvalue"
    SEMIDEFINITE_SAME_SIGN = "SemidefiniteSameSign"
    SEMIDEFINITE_MIXED_SIGN = "SemidefiniteMixedSign"
    NEGATIVE_DEFINITE = "NegativeDefinite"


class Verdict(Value):
    """Joint outcome of both decisions for one matrix, with the sign (1, 0 or -1)
    of A-minus's Perron root and the (positive, negative, zero) diagonal split they read."""

    __slots__ = ("property_i", "property_ve", "branch", "perron_sign", "blocks")

    def __init__(
        self,
        property_i: bool,
        property_ve: bool,
        branch: Branch,
        perron_sign: int,
        blocks: tuple[list[int], list[int], list[int]],
    ):
        _set(self, "property_i", property_i)
        _set(self, "property_ve", property_ve)
        _set(self, "branch", branch)
        _set(self, "perron_sign", perron_sign)
        _set(self, "blocks", blocks)


def _check_input(A: SymMatrix) -> tuple[list[int], list[int], list[int]]:
    """Check A from its nonzero entries; return the diagonal-sign split.

    Raises ValueError on the empty matrix or on the first negative
    off-diagonal entry (row by row), DisconnectedMatrixError if the matrix
    graph is disconnected.
    """
    if A.order == 0:
        raise ValueError("empty matrix")
    if len(matrix_components(A)) > 1:
        raise DisconnectedMatrixError("matrix graph is disconnected")
    return split_blocks(A)


def _perron_sign(rows: Sequence[dict[int, Fraction]]) -> int:
    """The sign (1, 0 or -1) of the Perron root of the A-minus of rows, a connected
    matrix with non-negative couplings: the sign-only Perron search's, which
    reads each diagonal entry as minus its absolute value and, where no
    fixed-point round decides, takes the sign from its one exact step."""
    return _perron_search(_scaled(rows), sign_only=True)[0]


def immersed(sign: int, pos: list[int], neg: list[int]) -> tuple[bool, Branch]:
    """Property I and its branch from the sign of A-minus's Perron root and A's diagonal-sign split."""
    if sign > 0:
        return True, Branch.POSITIVE_EIGENVALUE
    if sign == 0:
        # all diagonal entries >= 0 or all <= 0
        if not pos or not neg:
            return True, Branch.SEMIDEFINITE_SAME_SIGN
        return False, Branch.SEMIDEFINITE_MIXED_SIGN
    return False, Branch.NEGATIVE_DEFINITE


def _virtually_embedded(rows: Sequence[dict[int, Fraction]], sign: int, pos: list, neg: list, zero: list) -> bool:
    # Both diagonal blocks are principal blocks of A-minus: the positive one
    # with its diagonal negated, the negative one as it is in A.  Each is
    # passed as A's own rows, which _perron_sign reads in A-minus form.
    if zero:
        return True
    if not pos or not neg:
        # One block is all of A-minus, whose sign is known; the other is
        # empty, so negative definite vacuously.
        return sign >= 0
    if sign <= 0:
        # Both blocks are proper principal blocks of A-minus, whose Perron
        # root is <= 0: both are negative definite.
        return False
    # A block is negative definite iff each of its components (which hold
    # every neighbour of their vertices in the block) has a negative root.
    for component in (c for idx in (pos, neg) for c in _components(rows, idx)):
        if _perron_sign(_component_rows(rows, component)) >= 0:
            return True
    return False


def decide(A: SymMatrix) -> Verdict:
    """Run both decisions in one pass: one input check, and each sign once.

    The sign of A-minus's Perron root, asked of A's own rows, settles I, and
    VE too unless it is positive with both diagonal blocks non-empty; then
    each component of a block gets its own sign, until one is not negative.
    """
    pos, neg, zero = _check_input(A)
    sign = _perron_sign(A.sparse)
    property_i, branch = immersed(sign, pos, neg)
    return Verdict(
        property_i=property_i,
        property_ve=_virtually_embedded(A.sparse, sign, pos, neg, zero),
        branch=branch,
        perron_sign=sign,
        blocks=(pos, neg, zero),
    )


class TwoPieceInvariant(Value):
    """The rational invariant D = A11*A22 / A12^2 of a two-piece manifold."""

    __slots__ = ("d", "a11", "a22", "a12")

    def __init__(self, d: Fraction, a11: Fraction, a22: Fraction, a12: Fraction):
        _set(self, "d", d)
        _set(self, "a11", a11)
        _set(self, "a22", a22)
        _set(self, "a12", a12)

    @property
    def i_via_d(self) -> bool:
        """Property I in terms of D alone: -1 < D <= 1."""
        return -1 < self.d <= 1

    @property
    def ve_via_d(self) -> bool:
        """Property VE in terms of D alone: 0 <= D <= 1."""
        return 0 <= self.d <= 1

    @property
    def fibers_over_circle(self) -> bool:
        """Informational cross-check: the manifold fibers over the circle
        exactly when D = 1."""
        return self.d == 1

    @property
    def virtually_fibers(self) -> bool:
        """Informational cross-check: virtual fibering holds exactly when
        0 < D <= 1 or both diagonal entries vanish."""
        return (0 < self.d <= 1) or (self.a11 == 0 and self.a22 == 0)


def two_piece_d(A: SymMatrix) -> TwoPieceInvariant:
    """Compute D for a 2x2 decomposition matrix with positive coupling."""
    if A.order != 2:
        raise NotTwoPieceError(f"need a 2x2 matrix, got order {A.order}")
    if A[0, 1] <= 0:
        raise NotTwoPieceError(f"need a positive off-diagonal entry, got {A[0, 1]}")
    d = A[0, 0] * A[1, 1] / (A[0, 1] ** 2)
    return TwoPieceInvariant(d=d, a11=A[0, 0], a22=A[1, 1], a12=A[0, 1])
