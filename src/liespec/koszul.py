"""Koszul complex of a representation: differentials, homology, homotopies.

The chain space in degree p is X tensor the p-th exterior power of the
algebra, with basis x_a (x) e_S ordered subset-major: position
index(S) * m + a, subsets S in lexicographic order.

The differential on x (x) <l_1 ^ ... ^ l_p> is

    sum_k (-1)^(k+1) rho(l_k) x (x) <... l_k-hat ...>
  + sum_{i<j} (-1)^(i+j-1) x (x) <[l_i, l_j] ^ ... l_i-hat ... l_j-hat ...>

with k, i, j counted from 1 and hat meaning deletion.  The bracket is
substituted through the structure constants, then the wedge is renormalized:
sort indices increasingly, multiply by the permutation parity, drop
repeated-index terms.  These conventions make d o d = 0 an identity, which
validate_complex checks explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .lie_core import Character
from .numeric import (
    EXACT,
    Matrix,
    Scalar,
    VerificationFailure,
    complement_positions,
    identity,
    inverse,
    matrix_from_columns,
    matrix_from_rows,
    nullspace_basis,
    rank,
    sc_is_zero,
    sc_one,
    sc_zero,
    solve_matrix,
    unit_columns,
    zeros,
)
from .representation import Representation, shift

DEFAULT_CAP = 100_000

# residual budget for verifying homotopy identities on the float backend
HOMOTOPY_RESIDUAL = 1e-6


class DimensionCap(Exception):
    """Chain spaces exceed the configured size budget."""


class NotSplit(Exception):
    """No splitting homotopy exists at this degree (nonzero homology)."""


@lru_cache(maxsize=None)
def exterior_basis(n: int, p: int) -> Tuple[Tuple[int, ...], ...]:
    """Strictly increasing p-subsets of {0..n-1} in lexicographic order;
    empty for p outside 0..n."""
    if p < 0 or p > n:
        return ()
    if p == 0:
        return ((),)
    out = []

    def grow(prefix: Tuple[int, ...], start: int):
        if len(prefix) == p:
            out.append(prefix)
            return
        for k in range(start, n - (p - len(prefix)) + 1):
            grow(prefix + (k,), k + 1)

    grow((), 0)
    return tuple(out)


@dataclass(frozen=True)
class ChainComplex:
    """Degrees 0..n; ds[k] is the differential from degree k+1 to degree k."""

    backend: str
    dims: Tuple[int, ...]
    ds: Tuple[Matrix, ...]

    @property
    def n(self) -> int:
        return len(self.dims) - 1

    def d(self, p: int) -> Matrix:
        """d_p for any integer p; zero-shaped maps outside 1..n."""
        if 1 <= p <= self.n:
            return self.ds[p - 1]
        if p <= 0:
            return Matrix(0, self.dims[0] if p == 0 else 0, (), self.backend)
        return Matrix(self.dims[self.n] if p == self.n + 1 else 0, 0, (), self.backend)


@dataclass(frozen=True)
class BettiVector:
    h: Tuple[int, ...]

    def __getitem__(self, p: int) -> int:
        return self.h[p]

    @property
    def total(self) -> int:
        return sum(self.h)


def _wedge_insert(t: int, rest: Tuple[int, ...]) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """e_t ^ e_rest -> (sign exponent, sorted subset), None if t repeats."""
    if t in rest:
        return None
    smaller = sum(1 for u in rest if u < t)
    merged = tuple(sorted(rest + (t,)))
    return smaller, merged


def koszul_differential(rep: Representation, p: int) -> Matrix:
    """Matrix of d_p in the subset-major basis, shape dims[p-1] x dims[p]."""
    L = rep.algebra
    n, m = L.n, rep.m
    assert 1 <= p <= n
    src = exterior_basis(n, p)
    dst = exterior_basis(n, p - 1)
    dst_index = {s: i for i, s in enumerate(dst)}
    rows, cols = m * len(dst), m * len(src)
    backend = rep.backend
    zero = sc_zero(backend)
    grid = [[zero] * cols for _ in range(rows)]

    def add_block(ti: int, si: int, block: Matrix, factor: Scalar):
        if sc_is_zero(factor):
            return
        r0, c0 = ti * m, si * m
        for a in range(m):
            for b in range(m):
                v = block.at(a, b)
                if not sc_is_zero(v):
                    grid[r0 + a][c0 + b] = grid[r0 + a][c0 + b] + factor * v

    one = sc_one(backend)
    eye = identity(m, backend)
    for si, S in enumerate(src):
        # operator terms: remove the k-th index (k counted from 1)
        for k_pos, l in enumerate(S):
            rest = S[:k_pos] + S[k_pos + 1 :]
            sign = one if k_pos % 2 == 0 else -one
            add_block(dst_index[rest], si, rep.mats[l], sign)
        # bracket terms: remove positions i < j, prepend [l_i, l_j]
        for i_pos in range(len(S)):
            for j_pos in range(i_pos + 1, len(S)):
                # (-1)^(i+j-1) with 1-based positions = (-1)^(i_pos+j_pos+1)
                base = one if (i_pos + j_pos + 1) % 2 == 0 else -one
                rest = tuple(x for t, x in enumerate(S) if t not in (i_pos, j_pos))
                coeffs = L.structure(S[i_pos], S[j_pos])
                for t, c in enumerate(coeffs):
                    if sc_is_zero(c):
                        continue
                    ins = _wedge_insert(t, rest)
                    if ins is None:
                        continue
                    exp, merged = ins
                    factor = base * c if exp % 2 == 0 else -(base * c)
                    add_block(dst_index[merged], si, eye, factor)
    return matrix_from_rows(grid, backend, cols=cols)


def _check_cap(n: int, m: int, cap: int):
    worst = max(m * math.comb(n, p) for p in range(n + 1))
    if worst > cap:
        raise DimensionCap(
            f"chain space dimension {worst} exceeds the cap {cap}; "
            "raise the cap explicitly to proceed"
        )


def build_complex(
    rep: Representation,
    f: Optional[Character] = None,
    cap: int = DEFAULT_CAP,
    tol: Optional[float] = None,
) -> ChainComplex:
    """Chain complex of rho - f (f defaults to zero)."""
    L = rep.algebra
    _check_cap(L.n, rep.m, cap)
    work = rep
    if f is not None and not all(sc_is_zero(c) for c in f.coeffs):
        work = shift(rep, f, tol)
    dims = tuple(rep.m * math.comb(L.n, p) for p in range(L.n + 1))
    ds = tuple(koszul_differential(work, p) for p in range(1, L.n + 1))
    return ChainComplex(rep.backend, dims, ds)


def validate_complex(C: ChainComplex, tol: Optional[float] = None) -> List[int]:
    """Degrees p where d_(p-1) d_p != 0; empty list means a chain complex."""
    bad = []
    for p in range(2, C.n + 1):
        prod = C.d(p - 1) * C.d(p)
        thr = 0.0
        if C.backend != EXACT:
            scale = max(C.d(p - 1).maxnorm() * C.d(p).maxnorm(), 1.0)
            thr = (1e-9 if tol is None else tol) * scale
        if not prod.is_zero(thr):
            bad.append(p)
    return bad


def complex_profile(C: ChainComplex, tol: Optional[float] = None) -> Tuple[Tuple[int, ...], Tuple[int, ...], BettiVector]:
    """(dims, ranks of d_1..d_n, Betti numbers)."""
    ranks = tuple(rank(C.d(p), tol) for p in range(1, C.n + 1))
    r = (0,) + ranks + (0,)
    h = []
    for p in range(C.n + 1):
        hp = C.dims[p] - r[p] - r[p + 1]
        if hp < 0:
            raise VerificationFailure(f"negative homology dimension at degree {p}")
        h.append(hp)
    return C.dims, ranks, BettiVector(tuple(h))


def homology_dims(
    rep: Representation,
    f: Optional[Character] = None,
    cap: int = DEFAULT_CAP,
    tol: Optional[float] = None,
) -> BettiVector:
    """Betti numbers h[p] = dim H_p of the complex of rho - f."""
    C = build_complex(rep, f, cap, tol)
    return complex_profile(C, tol)[2]


# ---------------------------------------------------------------------------
# homotopies
# ---------------------------------------------------------------------------


def complex_splitting(
    C: ChainComplex, p: int, tol: Optional[float] = None
) -> Tuple[Matrix, Matrix]:
    """Homotopies (h_p, h_(p-1)) with d_(p+1) h_p + h_(p-1) d_p = I_p.

    Exists iff H_p = 0; built by splitting X_p into N(d_p) (+) W:
    on N(d_p) = R(d_(p+1)), h_p lifts through any preimage; on W,
    h_(p-1) inverts d_p|_W along R(d_p).  The identity is verified before
    returning.
    """
    assert 0 <= p <= C.n
    backend = C.backend
    A = C.d(p)
    B = C.d(p + 1)
    dp = C.dims[p]
    kernel_cols = nullspace_basis(A, tol)
    k = len(kernel_cols)
    rB = rank(B, tol)
    if k != rB:
        raise NotSplit(f"homology has dimension {k - rB} at degree {p}")
    K = matrix_from_columns(kernel_cols, dp, backend)
    V = solve_matrix(B, K, tol)
    if V is None:
        raise NotSplit(f"kernel at degree {p} is not reachable from degree {p + 1}")
    free = complement_positions(kernel_cols, dp, backend, tol)
    w_cols = unit_columns(dp, free, backend)
    basis_change = matrix_from_columns(kernel_cols + w_cols, dp, backend)
    lift_cols = [V.col(i) for i in range(k)] + [zeros(B.cols, 1, backend)] * len(w_cols)
    h_p = matrix_from_columns(lift_cols, B.cols, backend) * inverse(basis_change, tol)
    # h_(p-1): send d_p W back to W, kill a complement of R(d_p)
    aw_cols = [A * w for w in w_cols]
    extra = complement_positions(aw_cols, A.rows, backend, tol)
    q = matrix_from_columns(aw_cols + unit_columns(A.rows, extra, backend), A.rows, backend)
    back_cols = w_cols + [zeros(dp, 1, backend)] * len(extra)
    h_pm1 = matrix_from_columns(back_cols, dp, backend) * inverse(q, tol)
    residual = B * h_p + h_pm1 * A - identity(dp, backend)
    budget = 0.0 if backend == EXACT else HOMOTOPY_RESIDUAL
    if not residual.is_zero(budget):
        raise VerificationFailure("homotopy identity failed verification")
    return h_p, h_pm1


def splitting_homotopy(
    rep: Representation,
    f: Optional[Character] = None,
    p: int = 0,
    cap: int = DEFAULT_CAP,
    tol: Optional[float] = None,
) -> Tuple[Matrix, Matrix]:
    """Homotopy pair for the complex of rho - f at degree p, or NotSplit."""
    C = build_complex(rep, f, cap, tol)
    return complex_splitting(C, p, tol)
