"""Representations of a structure-constant algebra as matrix tuples.

A representation assigns one m x m matrix to each basis element, subject to
the homomorphism law rho([e_i,e_j]) = rho(e_i)rho(e_j) - rho(e_j)rho(e_i).
Everything downstream (complexes, spectra) consumes this type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .lie_core import (
    Character,
    LieAlgebra,
    NotACharacter,
    NotAnIdeal,
    Subspace,
    algebra_from_json,
    algebra_to_json,
    induced_algebra,
    is_character,
    is_ideal,
    opposite_algebra,
)
from .numeric import (
    EXACT,
    Matrix,
    Scalar,
    VerificationFailure,
    identity,
    inverse,
    kron_sum,
    make_scalar,
    matrix_from_rows,
    scalar_from_json,
    scalar_to_json,
    sc_is_zero,
    sub_diagonal,
    zero_threshold,
    zeros,
)


@dataclass(frozen=True)
class Representation:
    algebra: LieAlgebra
    m: int
    mats: Tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.mats) != self.algebra.n:
            raise VerificationFailure(f"{len(self.mats)} matrices for an algebra of dimension {self.algebra.n}")
        for mat in self.mats:
            if (mat.rows, mat.cols, mat.backend) != (self.m, self.m, self.algebra.backend):
                raise VerificationFailure(
                    f"a {mat.rows}x{mat.cols} {mat.backend} matrix in a {self.m}-dimensional "
                    f"{self.algebra.backend} representation"
                )

    @property
    def backend(self) -> str:
        return self.algebra.backend

    def apply(self, coeffs: Sequence[Scalar]) -> Matrix:
        """Matrix of the algebra element with the given coordinates x_k: the
        Kronecker sum of the x_k (I_1 (x) rho(e_k))."""
        one = identity(1, self.backend)
        return kron_sum([(c, one, mat) for c, mat in zip(coeffs, self.mats) if not sc_is_zero(c)],
                        self.m, self.m, self.backend)


def representation(L: LieAlgebra, mats: Sequence[Sequence[Sequence]], m: Optional[int] = None) -> Representation:
    """Build from nested lists, coercing entries into the algebra backend."""
    if m is None:
        if not mats:
            raise ValueError("need at least one matrix or an explicit dimension")
        m = len(mats[0])
    built = []
    for raw in mats:
        rows = [[make_scalar(x, L.backend) for x in row] for row in raw]
        built.append(matrix_from_rows(rows, L.backend, cols=m))
    return Representation(L, m, tuple(built))


def validate_representation(
    rep: Representation, tol: Optional[float] = None
) -> List[Tuple[Tuple[int, int], Matrix]]:
    """Homomorphism check on all basis pairs.

    Each violation is ((i, j), residual) with residual
    rho(e_i)rho(e_j) - rho(e_j)rho(e_i) - rho([e_i,e_j]); empty list = ok.
    """
    L = rep.algebra

    def scale() -> float:
        mx = max((mat.maxnorm() for mat in rep.mats), default=0.0)
        return max(1.0, mx * mx)

    thr = zero_threshold(rep.backend, tol, scale)
    violations = []
    for i in range(L.n):
        for j in range(i + 1, L.n):
            comm = rep.mats[i] * rep.mats[j] - rep.mats[j] * rep.mats[i]
            residual = comm - rep.apply(L.structure(i, j))
            if not residual.is_zero(thr):
                violations.append(((i, j), residual))
    return violations


def shift(rep: Representation, f: Character, tol: Optional[float] = None) -> Representation:
    """The representation rho - f, matrices rho(e_i) - f(e_i) I.

    Stays a representation because characters vanish on brackets.
    """
    if f.algebra != rep.algebra or not is_character(rep.algebra, f.coeffs, tol):
        raise NotACharacter("shift needs a character of the same algebra")
    mats = tuple(
        sub_diagonal(mat, c) if not sc_is_zero(c) else mat
        for mat, c in zip(rep.mats, f.coeffs)
    )
    return Representation(rep.algebra, rep.m, mats)


def adjoint_rep(rep: Representation) -> Representation:
    """Transposed matrices over the opposite algebra (dual-space action)."""
    return Representation(
        opposite_algebra(rep.algebra),
        rep.m,
        tuple(mat.transpose() for mat in rep.mats),
    )


def restrict_rep(rep: Representation, ideal: Subspace, tol: Optional[float] = None) -> Representation:
    """Representation of the ideal in its own echelon basis."""
    if ideal.algebra != rep.algebra or not is_ideal(rep.algebra, ideal, tol):
        raise NotAnIdeal("restriction target must be an ideal of the same algebra")
    sub = induced_algebra(ideal, tol=tol)
    mats = tuple(rep.apply(b) for b in ideal.basis)
    return Representation(sub, rep.m, mats)


def conjugate_representation(rep: Representation, s: Matrix, tol: Optional[float] = None) -> Representation:
    """Similarity S rho(.) S^{-1}; spectra-invariant by construction."""
    if not s.rows == s.cols == rep.m or s.backend != rep.backend:
        raise ValueError(f"a {s.rows}x{s.cols} {s.backend} matrix cannot conjugate a "
                         f"{rep.m}-dimensional {rep.backend} representation")
    s_inv = inverse(s, tol)
    return Representation(rep.algebra, rep.m, tuple(s * mat * s_inv for mat in rep.mats))


def direct_sum(a: Representation, b: Representation) -> Representation:
    """Block-diagonal sum of two representations of the same algebra."""
    if a.algebra != b.algebra:
        raise ValueError("direct sum of representations of different algebras")
    backend = a.backend
    mats = []
    for ma, mb in zip(a.mats, b.mats):
        top = [list(ma.row(i)) + list(zeros(1, b.m, backend).row(0)) for i in range(a.m)]
        bot = [list(zeros(1, a.m, backend).row(0)) + list(mb.row(i)) for i in range(b.m)]
        mats.append(matrix_from_rows(top + bot, backend, cols=a.m + b.m))
    return Representation(a.algebra, a.m + b.m, tuple(mats))


def adjoint_action(L: LieAlgebra) -> Representation:
    """ad: L -> L(L), ad(e_i)(e_j) = [e_i, e_j]; a representation by Jacobi."""
    mats = []
    for i in range(L.n):
        cols = [L.structure(i, j) for j in range(L.n)]
        rows = [[cols[j][k] for j in range(L.n)] for k in range(L.n)]
        mats.append(matrix_from_rows(rows, L.backend, cols=L.n))
    return Representation(L, L.n, tuple(mats))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def rep_to_json(rep: Representation) -> dict:
    return {
        "algebra": algebra_to_json(rep.algebra),
        "dimX": rep.m,
        "matrices": [
            [[scalar_to_json(mat.at(i, j)) for j in range(rep.m)] for i in range(rep.m)]
            for mat in rep.mats
        ],
    }


def rep_from_json(obj: dict, backend: str = EXACT) -> Representation:
    if not isinstance(obj, dict):
        raise ValueError("representation: expected an object")
    try:
        alg_obj = obj["algebra"]
        m = obj["dimX"]
        raw_mats = obj["matrices"]
    except KeyError as e:
        raise ValueError(f"representation: missing field {e.args[0]!r}") from None
    L = algebra_from_json(alg_obj, backend)
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError("representation.dimX: expected a nonnegative integer")
    if not isinstance(raw_mats, list) or len(raw_mats) != L.n:
        raise ValueError(f"representation.matrices: expected {L.n} matrices")
    # each distinct text is parsed once; only str keys, since JSON true, 1
    # and 1.0 are equal as dict keys and a boolean must still be refused
    texts: Dict[str, Scalar] = {}

    def read(x):
        if not isinstance(x, str):
            return scalar_from_json(x, backend)
        y = texts.get(x)
        if y is None:
            y = texts[x] = scalar_from_json(x, backend)
        return y

    mats = []
    for k, raw in enumerate(raw_mats):
        if not isinstance(raw, list) or len(raw) != m:
            raise ValueError(f"representation.matrices[{k}]: expected {m} rows")
        rows = []
        for r, raw_row in enumerate(raw):
            if not isinstance(raw_row, list) or len(raw_row) != m:
                raise ValueError(f"representation.matrices[{k}][{r}]: expected {m} entries")
            try:
                rows.append([read(x) for x in raw_row])
            except ValueError as e:
                raise ValueError(f"representation.matrices[{k}][{r}]: {e}") from None
        mats.append(matrix_from_rows(rows, backend, cols=m))
    return Representation(L, m, tuple(mats))
