"""Decision procedures for the two surface-existence properties.

Both decisions read off the exact inertia of A-minus (the decomposition matrix
with positive diagonal entries negated):

- "immersed" (property I) holds iff A-minus has a positive eigenvalue, or is
  negative semidefinite and singular while all diagonal entries of A share a
  sign (all >= 0 or all <= 0);
- "virtually embedded" (property VE) holds iff one of the two diagonal blocks,
  the positive-diagonal block with its diagonal negated or the
  negative-diagonal block, fails to be negative definite.  A zero diagonal
  entry makes whichever block receives it non-definite, so any zero diagonal
  gives VE immediately.

VE implies I for every connected input (tested exhaustively downstream), so a
disconnected matrix graph is rejected rather than decided per component.

Most inputs need no elimination, by Perron-Frobenius (Berman and Plemmons,
*Nonnegative Matrices in the Mathematical Sciences*, ch. 2; Horn and
Johnson, *Matrix Analysis*, ch. 8).  A-minus has non-negative couplings on a
connected graph, so A-minus + sI is non-negative and irreducible for s large
enough: its largest eigenvalue, the Perron root rho of A-minus, is simple,
and every proper principal block of A-minus has a largest eigenvalue below
rho.  Hence rho < 0 gives the inertia (0, 0, n), rho = 0 gives (0, 1, n - 1),
and either makes every proper principal block negative definite, so with
both diagonal blocks non-empty VE fails.  The exact sign of rho comes from
the package's Perron search (:func:`gmsurf.exact_linalg._perron_search`);
only a positive root, or a search that ends undecided at full precision,
takes the exact inertia of A-minus, whose counts the report prints, and only
then can a diagonal block need its own.

For two-piece manifolds the single rational D = A11*A22 / A12^2 carries both
answers: I holds iff -1 < D <= 1 and VE holds iff 0 <= D <= 1.  That invariant
is exposed as an independent cross-check.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .exact_linalg import (
    DisconnectedMatrixError,
    Inertia,
    SymMatrix,
    _perron_search,
    _scaled,
    inertia,
    matrix_components,
)
from .manifold import a_minus, split_blocks
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
    """Joint outcome of both decisions for one matrix, with the
    (positive, negative, zero) diagonal split they read."""

    __slots__ = ("property_i", "property_ve", "branch", "inertia_of_a_minus", "blocks")

    def __init__(
        self,
        property_i: bool,
        property_ve: bool,
        branch: Branch,
        inertia_of_a_minus: Inertia,
        blocks: tuple[list[int], list[int], list[int]],
    ):
        _set(self, "property_i", property_i)
        _set(self, "property_ve", property_ve)
        _set(self, "branch", branch)
        _set(self, "inertia_of_a_minus", inertia_of_a_minus)
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


def immersed(ine: Inertia, pos: list[int], neg: list[int]) -> tuple[bool, Branch]:
    """Property I and its branch from the inertia of A-minus and A's diagonal-sign split."""
    if ine.n_pos > 0:
        return True, Branch.POSITIVE_EIGENVALUE
    if ine.n_zero > 0:
        # all diagonal entries >= 0 or all <= 0
        if not pos or not neg:
            return True, Branch.SEMIDEFINITE_SAME_SIGN
        return False, Branch.SEMIDEFINITE_MIXED_SIGN
    return False, Branch.NEGATIVE_DEFINITE


def _negative_definite_block(minus: tuple[dict[int, Fraction], ...], idx: list[int]) -> bool:
    # Blocks go through this module's `inertia` binding, like A-minus, so
    # every inertia a decision takes is made under that one name.
    position = {i: r for r, i in enumerate(idx)}
    block = [{position[j]: x for j, x in minus[i].items() if j in position} for i in idx]
    return inertia(block).n_neg == len(idx)


def _virtually_embedded(
    minus: tuple[dict[int, Fraction], ...] | None, ine: Inertia, pos: list[int], neg: list[int], zero: list[int]
) -> bool:
    # Both diagonal blocks are principal blocks of A-minus: the positive one
    # with its diagonal negated, the negative one as it is in A.  A-minus's
    # rows are given on the positive branch only, the one place they are read.
    if zero:
        return True
    if not pos or not neg:
        # One block is all of A-minus, whose inertia is known; the other is
        # empty, so negative definite vacuously.
        return bool(ine.n_pos or ine.n_zero)
    if not ine.n_pos:
        # Both blocks are proper principal blocks of A-minus, whose Perron
        # root is <= 0: both are negative definite.
        return False
    return not _negative_definite_block(minus, pos) or not _negative_definite_block(minus, neg)


def decide(A: SymMatrix) -> Verdict:
    """Run both decisions in one pass: one input check, and each distinct inertia once.

    The exact sign of A-minus's Perron root comes first: a negative root is
    the inertia (0, 0, n) and a zero root (0, 1, n - 1), with no
    elimination.  Only a positive root, or a search undecided at full
    precision, eliminates A-minus, once; a diagonal block is eliminated only
    on the positive branch, when it is a proper part of A-minus.
    """
    pos, neg, zero = _check_input(A)
    n = A.order
    found = _perron_search(_scaled(A.sparse), sign_only=True)
    minus = None
    if found is None or found[0] > 0:
        minus = a_minus(A)
        ine = inertia(minus)
    elif found[0] < 0:
        ine = Inertia(0, 0, n)
    else:
        ine = Inertia(0, 1, n - 1)
    property_i, branch = immersed(ine, pos, neg)
    return Verdict(
        property_i=property_i,
        property_ve=_virtually_embedded(minus, ine, pos, neg, zero),
        branch=branch,
        inertia_of_a_minus=ine,
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
