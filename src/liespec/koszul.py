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

The differential is affine in the shift f, with E_(l,p) the signed operator
terms and B_p the bracket scalars, matrices fixed by the algebra and p alone:
    d_p(rho - f) = sum_l E_(l,p) (x) rho(e_l) + (B_p - sum_l f_l E_(l,p)) (x) I_m.
_differential hands these terms to numeric.kron_sum as they stand, B_p (x) I_m
and each -f_l E_(l,p) (x) I_m being one term.

Homotopies.  For x = e_k, iota_q = W_q (x) I_m with W_q = e_k ^ . (left
wedge), and theta_q = A_q (x) I_m + I (x) T with A_q = ad(e_k) acting as a
derivation of the q-th exterior power and T = rho(e_k) - f_k I, Cartan's
formula (Chevalley-Eilenberg 1948) reads d_(q+1) iota_q + iota_(q-1) d_q =
theta_q.  theta commutes with d and iota; for nilpotent L each A_q is
nilpotent, so when T is invertible h_q = theta_(q+1)^-1 iota_q = sum_j (-1)^j
(A^j W_q) (x) T^-(j+1) is a finite series and a contracting homotopy,
again one kron_sum.  splitting_homotopy uses it for the first such k on
exact input of a nilpotent algebra, and complex_splitting eliminates
otherwise (every T singular, as at a member shift; float input; L not
nilpotent).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from .lie_core import Character, LieAlgebra, NotACharacter, NotNilpotent, is_character, is_nilpotent
from .numeric import (
    EXACT,
    Matrix,
    Scalar,
    VerificationFailure,
    generalized_inverse,
    identity,
    kron_sum,
    matrix_from_rows,
    rank,
    sc_is_zero,
    sc_one,
    sc_zero,
    sub_diagonal,
    sums_to_identity,
    zero_threshold,
    zeros,
)
from .representation import Representation

# Budget on the dense entries (rows x cols) of one differential.  Each d_p
# is a dense entry list, so this bounds a complex before any of it is
# allocated.  The largest differential built by the tests (42 x 42), the
# benchmark (24 x 36), `lab suite --seeds 25` (28 x 42) or the H3/F4
# scaling sweep up to m = 24 / m = 16 (64 x 96, from F4 with m = 16) has
# 6 144 entries.
MAX_DIFFERENTIAL_ENTRIES = 10 ** 6

# residual budget for verifying homotopy identities on the float backend
HOMOTOPY_RESIDUAL = 1e-6


class DimensionCap(Exception):
    """A differential would exceed MAX_DIFFERENTIAL_ENTRIES dense entries."""


class NotSplit(Exception):
    """No splitting homotopy exists at this degree (nonzero homology)."""


@lru_cache(maxsize=None)
def exterior_basis(n: int, p: int) -> Tuple[Tuple[int, ...], ...]:
    """Strictly increasing p-subsets of {0..n-1} in lexicographic order;
    empty for p outside 0..n."""
    return tuple(itertools.combinations(range(n), p)) if p >= 0 else ()


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

    @property
    def total(self) -> int:
        return sum(self.h)


@lru_cache(maxsize=256)
def _differential_pattern(L: LieAlgebra, p: int) -> Tuple[Tuple[Matrix, ...], Matrix]:
    """(E_(0,p), ..., E_(n-1,p)), B_p: the matrices of the module docstring,
    dim Lambda^(p-1) x dim Lambda^p, fixed by the algebra and p alone.
    E_(l,p) contracts e_l^*: e_S goes to (-1)^i e_(S - l), for l at place i
    of S counted from 0.  The bracket terms remove the s-th and then the u-th
    element and put [e_s, e_u] in front: B_p = sum_(s<u) sum_t [e_s, e_u]_t
    E_(t,p-1)^T E_(u,p-1) E_(s,p)."""
    dst, src = exterior_basis(L.n, p - 1), exterior_basis(L.n, p)
    index = {S: i for i, S in enumerate(dst)}
    zero, one, unit = sc_zero(L.backend), sc_one(L.backend), identity(1, L.backend)
    ops = []
    for l in range(L.n):
        rows = [[zero] * len(src) for _ in dst]
        for si, S in enumerate(src):
            if l in S:
                rows[index[tuple(x for x in S if x != l)]][si] = -one if S.index(l) % 2 else one
        ops.append(matrix_from_rows(rows, L.backend, len(src)))
    below = _differential_pattern(L, p - 1)[0] if p > 0 else ()
    brackets = [(c, unit, below[t].transpose() * below[u] * ops[s])
                for s, u in itertools.combinations(range(len(below)), 2)
                for t, c in enumerate(L.structure(s, u)) if not sc_is_zero(c)]
    return tuple(ops), kron_sum(brackets, len(dst), len(src), L.backend)


def _check_degree(p: int, lo: int, hi: int):
    if not lo <= p <= hi:
        raise ValueError(f"degree {p} outside {lo}..{hi}")


def _differential(rep: Representation, p: int, fs: Tuple[Scalar, ...]) -> Matrix:
    """d_p of rho - f, the Kronecker sum of the module docstring (fs = () for
    f = 0).  The scalar terms come first, so that a float diagonal entry
    adds B_p - f_l to the entry of rho(e_l); an exact sum does not depend
    on the order."""
    L, m, backend = rep.algebra, rep.m, rep.backend
    _check_degree(p, 1, L.n)
    ops, scalars = _differential_pattern(L, p)
    one, eye = sc_one(backend), identity(m, backend)
    terms = [] if scalars.is_zero() else [(one, scalars, eye)]
    terms += [(-f, e, eye) for e, f in zip(ops, fs) if not sc_is_zero(f)]
    rho = [(one, e, mat) for e, mat in zip(ops, rep.mats)]
    return kron_sum(terms + rho, m * scalars.rows, m * scalars.cols, backend)


def check_entry_budget(n: int, m: int, lo: int, hi: int) -> None:
    """Raises DimensionCap when some d_p, lo < p <= hi, of an n-dimensional
    algebra's complex on C^m would exceed MAX_DIFFERENTIAL_ENTRIES."""
    for p in range(lo + 1, hi + 1):
        rows, cols = m * math.comb(n, p - 1), m * math.comb(n, p)
        if rows * cols > MAX_DIFFERENTIAL_ENTRIES:
            raise DimensionCap(
                f"d_{p} would have {rows}x{cols} = {rows * cols} entries, over the "
                f"budget of {MAX_DIFFERENTIAL_ENTRIES} entries per differential"
            )


def _truncated_complex(rep: Representation, f: Optional[Character],
                       tol: Optional[float], lo: int, hi: int) -> ChainComplex:
    """The complex of rho - f cut to degrees lo..hi, zero below lo: homology is
    unchanged strictly between lo and hi, and at an end that is 0 or n.
    Raises DimensionCap before allocating when a differential it builds
    would exceed MAX_DIFFERENTIAL_ENTRIES."""
    L = rep.algebra
    check_entry_budget(L.n, rep.m, lo, hi)
    dims = tuple(rep.m * math.comb(L.n, p) if p >= lo else 0 for p in range(hi + 1))
    fs: Tuple[Scalar, ...] = ()
    if f is not None and not all(sc_is_zero(c) for c in f.coeffs):
        if f.algebra != L or not is_character(L, f.coeffs, tol):
            raise NotACharacter("shift needs a character of the same algebra")
        fs = f.coeffs
    ds = tuple(_differential(rep, p, fs) if p > lo else zeros(0, dims[p], rep.backend)
               for p in range(1, hi + 1))
    return ChainComplex(rep.backend, dims, ds)


def build_complex(rep: Representation, f: Optional[Character] = None,
                  tol: Optional[float] = None) -> ChainComplex:
    """Chain complex of rho - f (f defaults to zero)."""
    return _truncated_complex(rep, f, tol, 0, rep.algebra.n)


def validate_complex(C: ChainComplex, tol: Optional[float] = None) -> List[int]:
    """Degrees p where d_(p-1) d_p != 0; empty list means a chain complex."""
    bad = []
    for p in range(2, C.n + 1):
        prod = C.d(p - 1) * C.d(p)
        thr = zero_threshold(C.backend, tol,
                             lambda: max(C.d(p - 1).maxnorm() * C.d(p).maxnorm(), 1.0))
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
    tol: Optional[float] = None,
) -> BettiVector:
    """Betti numbers h[p] = dim H_p of the complex of rho - f."""
    C = build_complex(rep, f, tol)
    return complex_profile(C, tol)[2]


# ---------------------------------------------------------------------------
# homotopies
# ---------------------------------------------------------------------------


def complex_splitting(
    C: ChainComplex, p: int, tol: Optional[float] = None
) -> Tuple[Matrix, Matrix]:
    """Homotopies (h_p, h_(p-1)) with d_(p+1) h_p + h_(p-1) d_p = I_p.

    Exists iff H_p = 0.  With generalized inverses G_A of A = d_p and G_B of
    B = d_(p+1) (A G_A A = A), h_(p-1) = G_A and h_p = G_B q for
    q = I - G_A A, formed as one two-term kron_sum with 1 x 1 left factors.
    A q = A - A G_A A = 0, so q maps into N(d_p), which is R(d_(p+1)) when
    H_p = 0; B G_B fixes R(d_(p+1)), so B h_p = q and B h_p + G_A A = I.
    That identity is verified before returning.
    """
    _check_degree(p, 0, C.n)
    A = C.d(p)
    B = C.d(p + 1)
    g_a, r_a = generalized_inverse(A, tol)
    g_b, r_b = generalized_inverse(B, tol)
    h = C.dims[p] - r_a - r_b
    if h != 0:
        raise NotSplit(f"homology has dimension {h} at degree {p}")
    n, one, unit = C.dims[p], sc_one(C.backend), identity(1, C.backend)
    q = kron_sum([(one, unit, identity(n, C.backend)), (-one, unit, g_a * A)], n, n, C.backend)
    h_p = g_b * q
    if C.backend == EXACT:
        holds = B * h_p == q
    else:
        holds = (B * h_p - q).is_zero(HOMOTOPY_RESIDUAL)
    if not holds:
        raise VerificationFailure("homotopy identity failed verification")
    return h_p, g_a


@lru_cache(maxsize=256)
def _cartan_terms(L: LieAlgebra, k: int, q: int) -> Tuple[Matrix, ...]:
    """(-1)^j A^j W = (-A)^j W for j = 0, 1, ... while nonzero (module
    docstring), for nilpotent L; a series longer than dim Lambda^(q+1)
    raises VerificationFailure.  E_(l,q+1) contracts e_l^*, so the wedge W
    is the transpose of E_(k,q+1), and
    A = sum_(s,t) [e_k, e_s]_t E_(t,q+1)^T E_(s,q+1)."""
    if not is_nilpotent(L):
        raise NotNilpotent("the Cartan homotopy needs a nilpotent algebra")
    ops, dim = _differential_pattern(L, q + 1)[0], len(exterior_basis(L.n, q + 1))
    minus_a = kron_sum([(-x, identity(1, L.backend), ops[t].transpose() * ops[s]) for s in range(L.n)
                        for t, x in enumerate(L.structure(k, s)) if not sc_is_zero(x)], dim, dim, L.backend)
    term, terms = ops[k].transpose(), []
    while not term.is_zero():
        if len(terms) == dim:
            raise VerificationFailure(f"ad(e_{k}) is not nilpotent on degree {q + 1}")
        terms.append(term)
        term = minus_a * term
    return tuple(terms)


def _cartan_homotopy(L: LieAlgebra, k: int, q: int, powers: List[Matrix]) -> Matrix:
    """h_q = sum_j (-1)^j (A^j W) (x) T^-(j+1) (module docstring); powers holds
    T^-1, T^-2, ... and is extended as needed."""
    m, terms = powers[0].rows, _cartan_terms(L, k, q)
    while len(powers) < len(terms):
        powers.append(powers[-1] * powers[0])
    return kron_sum([(sc_one(L.backend), t, power) for t, power in zip(terms, powers)],
                    m * len(exterior_basis(L.n, q + 1)), m * len(exterior_basis(L.n, q)), L.backend)


def splitting_homotopy(
    rep: Representation,
    f: Optional[Character] = None,
    p: int = 0,
    tol: Optional[float] = None,
) -> Tuple[Matrix, Matrix]:
    """Homotopy pair for the complex of rho - f at degree p, or NotSplit.
    Only d_p and d_(p+1) are built, on degrees max(p-1, 0)..min(p+1, n).  The
    Cartan pair (module docstring) is checked row by row on Z[i] rows, with
    no product formed (numeric.sums_to_identity)."""
    L = rep.algebra
    _check_degree(p, 0, L.n)
    C = _truncated_complex(rep, f, tol, max(p - 1, 0), min(p + 1, L.n))
    if rep.backend == EXACT and is_nilpotent(L):
        # f was checked above: one of another algebra is zero
        fs = f.coeffs if f is not None and f.algebra == L else L.zero_vector()
        for k, mat in enumerate(rep.mats):
            t_inv, r = generalized_inverse(sub_diagonal(mat, fs[k]))
            if r == rep.m:
                powers = [t_inv]
                h_p, h_pm1 = _cartan_homotopy(L, k, p, powers), _cartan_homotopy(L, k, p - 1, powers)
                if not sums_to_identity([(C.d(p + 1), h_p), (h_pm1, C.d(p))]):
                    raise VerificationFailure("homotopy identity failed verification")
                return h_p, h_pm1
    return complex_splitting(C, p, tol)
