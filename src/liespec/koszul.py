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
terms and B_p the bracket scalars, both fixed by the algebra and p alone:
    d_p(rho - f) = sum_l E_(l,p) (x) rho(e_l) + (B_p - sum_l f_l E_(l,p)) (x) I_m.

Homotopies.  For x = e_k, iota_q = W_q (x) I_m with W_q = e_k ^ . (left
wedge), and theta_q = A_q (x) I_m + I (x) T with A_q = ad(e_k) acting as a
derivation of the q-th exterior power and T = rho(e_k) - f_k I, Cartan's
formula (Chevalley-Eilenberg 1948) reads d_(q+1) iota_q + iota_(q-1) d_q =
theta_q.  theta commutes with d and iota; for nilpotent L each A_q is
nilpotent, so when T is invertible h_q = theta_(q+1)^-1 iota_q = sum_j (-1)^j
(A^j W_q) (x) T^-(j+1) is a finite series and a contracting homotopy.
splitting_homotopy uses it for the first such k on exact input of a
nilpotent algebra, and complex_splitting eliminates otherwise (every T
singular, as at a member shift; float input; L not nilpotent).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .lie_core import Character, LieAlgebra, NotACharacter, NotNilpotent, is_character, is_nilpotent
from .numeric import (
    EXACT,
    Matrix,
    Scalar,
    VerificationFailure,
    generalized_inverse,
    identity_minus_product,
    matrix_from_rows,
    rank,
    sc_is_zero,
    sc_one,
    sc_zero,
    sub_diagonal,
    zero_threshold,
    zeros,
    zi_form,
    zi_matrix,
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


def _wedge_insert(t: int, rest: Tuple[int, ...]) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """e_t ^ e_rest -> (sign exponent, sorted subset), None if t repeats."""
    if t in rest:
        return None
    smaller = sum(1 for u in rest if u < t)
    merged = tuple(sorted(rest + (t,)))
    return smaller, merged


@lru_cache(maxsize=256)
def _differential_pattern(L: LieAlgebra, p: int):
    """Block pattern of d_p for every representation and shift: (dst block, src
    block, l, +-1) per operator term, (dst block, src block, B_p scalar)."""
    dst_index = {s: i for i, s in enumerate(exterior_basis(L.n, p - 1))}
    ops = []
    brackets: Dict[Tuple[int, int], Scalar] = {}
    for si, S in enumerate(exterior_basis(L.n, p)):
        # operator terms: remove the k-th index (k counted from 1)
        for k_pos, l in enumerate(S):
            ops.append((dst_index[S[:k_pos] + S[k_pos + 1 :]], si, l, 1 - 2 * (k_pos % 2)))
        # bracket terms: remove positions i < j, prepend [l_i, l_j]
        for i_pos in range(len(S)):
            for j_pos in range(i_pos + 1, len(S)):
                rest = tuple(x for t, x in enumerate(S) if t not in (i_pos, j_pos))
                for t, c in enumerate(L.structure(S[i_pos], S[j_pos])):
                    ins = _wedge_insert(t, rest)
                    if ins is None or sc_is_zero(c):
                        continue
                    exp, merged = ins
                    # (-1)^(i+j-1) with 1-based positions, times the wedge parity
                    term = c if (i_pos + j_pos + 1 + exp) % 2 == 0 else -c
                    key = (dst_index[merged], si)
                    brackets[key] = brackets[key] + term if key in brackets else term
    return tuple(ops), tuple((ti, si, c) for (ti, si), c in brackets.items() if not sc_is_zero(c))


def _check_degree(p: int, lo: int, hi: int):
    if not lo <= p <= hi:
        raise ValueError(f"degree {p} outside {lo}..{hi}")


def _differential(rep: Representation, p: int, fs: Tuple[Scalar, ...]) -> Matrix:
    """d_p of rho - f: copies of +-rho(e_l), plus each scalar of B_p - sum_l
    f_l E_(l,p) on the m diagonal entries of its block (fs = () for f = 0)."""
    L, m, zero = rep.algebra, rep.m, sc_zero(rep.backend)
    _check_degree(p, 1, L.n)
    ops, brackets = _differential_pattern(L, p)
    rows, cols = m * math.comb(L.n, p - 1), m * math.comb(L.n, p)
    diag = {(ti, si): c for ti, si, c in brackets}
    if fs:
        for ti, si, l, sign in ops:
            if not sc_is_zero(fs[l]):
                c = diag.get((ti, si), zero)
                diag[(ti, si)] = c - fs[l] if sign > 0 else c + fs[l]
    if rep.backend == EXACT:
        return _exact_differential(rep, ops, diag, rows, cols)
    flat = [zero] * (rows * cols)
    # offset inside a block, 0 + v and 0 - v per nonzero entry v of rho(e_l),
    # whose zero parts stay unsigned
    nonzero = [[(a * cols + b, (zero + v, zero - v)) for a in range(m)
                for b, v in enumerate(mat.row(a)) if not sc_is_zero(v)] for mat in rep.mats]
    for ti, si, l, sign in ops:
        base = m * (ti * cols + si)
        for k, v in nonzero[l]:
            flat[base + k] = v[sign < 0]
    for (ti, si), c in diag.items():
        base = m * (ti * cols + si)
        for k in range(base, base + m * (cols + 1), cols + 1):
            flat[k] = flat[k] + c
    return Matrix(rows, cols, tuple(flat), rep.backend)


def _exact_differential(rep: Representation, ops, diag: Dict[Tuple[int, int], Scalar],
                        rows: int, cols: int) -> Matrix:
    """The exact d_p built in Z[i], over the least common multiple D of the
    denominators of the rho(e_l) forms and of the diagonal scalars."""
    m = rep.m
    forms = [zi_form(mat) for mat in rep.mats]
    D = math.lcm(*[d for _, d in forms], *[c.d for c in diag.values()])
    zrows: List[Dict[int, Tuple[int, int]]] = [{} for _ in range(rows)]
    blocks: Dict[Tuple[int, int], List[List[Tuple[int, Tuple[int, int]]]]] = {}
    for ti, si, l, sign in ops:
        block = blocks.get((l, sign))
        if block is None:
            # D / d_l times +-rho(e_l), as (column, value) per row
            mat_rows, d = forms[l]
            s = sign * (D // d)
            block = blocks[(l, sign)] = [[(b, (x * s, y * s)) for b, (x, y) in row.items()]
                                         for row in mat_rows]
        c0 = si * m
        for target, row in zip(zrows[ti * m : (ti + 1) * m], block):
            for b, v in row:
                target[c0 + b] = v
    for (ti, si), c in diag.items():
        ca, cb = c.a * (D // c.d), c.b * (D // c.d)
        if not (ca or cb):
            continue
        for a in range(m):
            target, k = zrows[ti * m + a], si * m + a
            x, y = target.get(k, (0, 0))
            if x + ca or y + cb:
                target[k] = (x + ca, y + cb)
            else:
                del target[k]
    return zi_matrix(rows, cols, zrows, D)


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
    q = I - G_A A.  A q = A - A G_A A = 0, so q maps into N(d_p), which is
    R(d_(p+1)) when H_p = 0; B G_B fixes R(d_(p+1)), so B h_p = q and
    B h_p + G_A A = I.  That identity is verified before returning.
    """
    _check_degree(p, 0, C.n)
    A = C.d(p)
    B = C.d(p + 1)
    g_a, r_a = generalized_inverse(A, tol)
    g_b, r_b = generalized_inverse(B, tol)
    h = C.dims[p] - r_a - r_b
    if h != 0:
        raise NotSplit(f"homology has dimension {h} at degree {p}")
    q = identity_minus_product(g_a, A)
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
    """A^j W for j = 0, 1, ... while nonzero (module docstring), for nilpotent
    L; a series longer than dim Lambda^(q+1) raises VerificationFailure."""
    if not is_nilpotent(L):
        raise NotNilpotent("the Cartan homotopy needs a nilpotent algebra")
    src, dst = exterior_basis(L.n, q), exterior_basis(L.n, q + 1)
    index = {S: i for i, S in enumerate(dst)}
    zero, one = sc_zero(L.backend), sc_one(L.backend)
    a, w = [[zero] * len(dst) for _ in dst], [[zero] * len(src) for _ in dst]
    for c, S in enumerate(dst):
        # [e_k, e_s] in the place of e_s, then moved to its sorted position
        for pos, s in enumerate(S):
            for t, x in enumerate(L.structure(k, s)):
                ins = _wedge_insert(t, S[:pos] + S[pos + 1 :])
                if ins is not None:
                    a[index[ins[1]]][c] += x if (pos + ins[0]) % 2 == 0 else -x
    for c, S in enumerate(src):
        ins = _wedge_insert(k, S)
        if ins is not None:
            w[index[ins[1]]][c] = one if ins[0] % 2 == 0 else -one
    A, term = matrix_from_rows(a, L.backend, len(dst)), matrix_from_rows(w, L.backend, len(src))
    terms: List[Matrix] = []
    while not term.is_zero():
        if len(terms) == len(dst):
            raise VerificationFailure(f"ad(e_{k}) is not nilpotent on degree {q + 1}")
        terms.append(term)
        term = A * term
    return tuple(terms)


def _cartan_homotopy(L: LieAlgebra, k: int, q: int, powers: List[Matrix]) -> Matrix:
    """h_q = sum_j (-1)^j (A^j W) (x) T^-(j+1), assembled in Z[i] over one
    denominator; powers holds T^-1, T^-2, ... and is extended as needed."""
    m, terms = powers[0].rows, [zi_form(t) for t in _cartan_terms(L, k, q)]
    while len(powers) < len(terms):
        powers.append(powers[-1] * powers[0])
    forms = [zi_form(P) for P in powers[: len(terms)]]
    D = math.lcm(*[c * e for (_, c), (_, e) in zip(terms, forms)])
    zrows: List[Dict[int, Tuple[int, int]]] = [{} for _ in range(m * len(exterior_basis(L.n, q + 1)))]
    for j, ((wrows, c), (prows, e)) in enumerate(zip(terms, forms)):
        s = D // (c * e) * (-1) ** j
        for r, wrow in enumerate(wrows):
            for col, (ca, cb) in wrow.items():
                ca, cb, c0 = ca * s, cb * s, col * m
                for target, prow in zip(zrows[r * m : (r + 1) * m], prows):
                    for b, (x, y) in prow.items():
                        u, v = target.get(c0 + b, (0, 0))
                        target[c0 + b] = (u + ca * x - cb * y, v + ca * y + cb * x)
    zrows = [{j: v for j, v in row.items() if v[0] or v[1]} for row in zrows]
    return zi_matrix(len(zrows), m * len(exterior_basis(L.n, q)), zrows, D)


def splitting_homotopy(
    rep: Representation,
    f: Optional[Character] = None,
    p: int = 0,
    tol: Optional[float] = None,
) -> Tuple[Matrix, Matrix]:
    """Homotopy pair for the complex of rho - f at degree p, or NotSplit.
    Only d_p and d_(p+1) are built, on degrees max(p-1, 0)..min(p+1, n).  The
    Cartan pair (module docstring) is checked on Z[i] forms."""
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
                if C.d(p + 1) * h_p != identity_minus_product(h_pm1, C.d(p)):
                    raise VerificationFailure("homotopy identity failed verification")
                return h_p, h_pm1
    return complex_splitting(C, p, tol)
