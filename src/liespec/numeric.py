"""Scalar and matrix kernel shared by every layer above.

Two interchangeable backends:

  * "exact"  -- Gaussian rationals (pairs of ``fractions.Fraction``), with a
    rational-root search for eigenvalues.  Matrix products and elimination
    run on Gaussian integers: each row (or column) is scaled once to
    integer (re, im) pairs over one shared denominator, zero entries are
    skipped, and only the final entries are turned back into reduced
    Fractions.  Elimination is fraction-free: Gauss-Jordan with
    row <- p*row - f*pivot_row and division by the row's integer content
    for reduced echelon forms, Bareiss for ranks.  No rounding anywhere;
    equality means equality.
  * "float"  -- complex double precision.  Every comparison against zero
    goes through an explicit tolerance derived from TAU and the largest
    entry magnitude of the matrix at hand, so ranks and kernels are
    reproducible for a fixed input.

Matrices are small and dense (desk scale), stored row-major.  All functions
are pure; nothing here mutates shared state.
"""

from __future__ import annotations

import cmath
import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

# Relative rank tolerance for the float backend: a pivot counts only if its
# magnitude exceeds TAU times the largest entry magnitude of the input.
TAU = 1e-9

# Eigenvalue dedup threshold for the float backend, absolute after scaling
# the matrix to unit max-norm.
TAU_CHAR = 1e-6

EXACT = "exact"
FLOAT = "float"

_DIVISOR_NORM_CAP = 10 ** 14


class ExactFactorizationFailure(Exception):
    """The characteristic polynomial has a factor with no Gaussian-rational root."""


class VerificationFailure(RuntimeError):
    """A load-bearing internal check failed: mismatched shapes, or a result
    that does not satisfy the identity it was built to satisfy."""


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """Exact complex scalar a + b*i with rational a, b."""

    re: Fraction
    im: Fraction

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self) -> str:
        return scalar_to_text(self)


Scalar = Union[GaussianRational, complex]

GR_ZERO = GaussianRational(Fraction(0), Fraction(0))
GR_ONE = GaussianRational(Fraction(1), Fraction(0))


def gr(re: Union[int, Fraction], im: Union[int, Fraction] = 0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


def sc_zero(backend: str) -> Scalar:
    return GR_ZERO if backend == EXACT else 0j


def sc_one(backend: str) -> Scalar:
    return GR_ONE if backend == EXACT else 1 + 0j


def make_scalar(value, backend: str) -> Scalar:
    """Coerce an int, Fraction, (re, im) pair, or scalar into the backend."""
    if backend == EXACT:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return gr(value)
        if isinstance(value, tuple) and len(value) == 2:
            return gr(Fraction(value[0]), Fraction(value[1]))
        raise TypeError(f"cannot build exact scalar from {value!r}")
    if isinstance(value, GaussianRational):
        return value.to_complex()
    if isinstance(value, complex):
        return value
    if isinstance(value, (int, float, Fraction)):
        return complex(value)
    if isinstance(value, tuple) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise TypeError(f"cannot build float scalar from {value!r}")


def sc_is_zero(x: Scalar, thr: float = 0.0) -> bool:
    if isinstance(x, GaussianRational):
        return x.is_zero
    return abs(x) <= thr


def sc_abs(x: Scalar) -> float:
    if isinstance(x, GaussianRational):
        return abs(x.to_complex())
    return abs(x)


def sc_to_complex(x: Scalar) -> complex:
    if isinstance(x, GaussianRational):
        return x.to_complex()
    return x


# --- text syntax ------------------------------------------------------------
#
# Exact scalar text: "a/b", "a/b+c/di", "a/b-c/di", "i", "-i", "3i", "2".
# Rendering is canonical: integers drop the denominator, a zero part is
# omitted, unit imaginary coefficients render as "i"/"-i", zero as "0".

_FRAC = r"\d+(?:/\d+)?"
# the lookahead keeps the real group from eating the imaginary coefficient
_SCALAR_RE = _re.compile(
    rf"^(?P<re>[+-]?{_FRAC}(?!i))?(?P<im>[+-]?(?:{_FRAC})?i)?$"
)


def _frac_text(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def scalar_to_text(x: Scalar) -> str:
    if isinstance(x, complex):
        # float scalars are serialized as [re, im] pairs, not text
        return f"[{x.real!r}, {x.imag!r}]"
    if x.is_zero:
        return "0"
    parts = []
    if x.re != 0:
        parts.append(_frac_text(x.re))
    if x.im != 0:
        if x.im == 1:
            imtxt = "i"
        elif x.im == -1:
            imtxt = "-i"
        else:
            imtxt = _frac_text(x.im) + "i"
        if parts and not imtxt.startswith("-"):
            imtxt = "+" + imtxt
        parts.append(imtxt)
    return "".join(parts)


def scalar_from_text(text: str) -> GaussianRational:
    """Parse the exact scalar syntax; raises ValueError on malformed input."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar text")
    m = _SCALAR_RE.match(s)
    if m is None or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"malformed scalar text: {text!r}")
    re_part = Fraction(0)
    im_part = Fraction(0)
    if m.group("re"):
        re_part = Fraction(m.group("re"))
    if m.group("im"):
        body = m.group("im")[:-1]  # strip the trailing i
        if body in ("", "+"):
            im_part = Fraction(1)
        elif body == "-":
            im_part = Fraction(-1)
        else:
            im_part = Fraction(body)
    return GaussianRational(re_part, im_part)


def scalar_key(x: Scalar) -> Tuple[float, float]:
    """Deterministic sort key (re, im)."""
    c = sc_to_complex(x)
    return (c.real, c.imag)


def scalar_to_json(x: Scalar):
    """Exact scalars serialize as canonical text, float scalars as [re, im]."""
    if isinstance(x, GaussianRational):
        return scalar_to_text(x)
    return [x.real, x.imag]


def scalar_from_json(value, backend: str) -> Scalar:
    """Accepts canonical text, plain numbers, or [re, im] pairs."""
    if isinstance(value, str):
        g = scalar_from_text(value)
        return g if backend == EXACT else g.to_complex()
    if isinstance(value, bool):
        raise ValueError(f"not a scalar: {value!r}")
    if isinstance(value, int):
        return make_scalar(value, backend)
    if isinstance(value, float):
        if backend == EXACT:
            if value != int(value):
                raise ValueError(
                    f"non-integral float {value!r} not accepted on the exact backend; "
                    "use \"a/b\" text"
                )
            return gr(int(value))
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        a, b = value
        if backend == EXACT:
            for part in (a, b):
                if isinstance(part, float) and part != int(part):
                    raise ValueError(
                        f"non-integral float in {value!r} not accepted on the exact backend"
                    )
            return gr(int(a), int(b))
        return complex(float(a), float(b))
    raise ValueError(f"not a scalar: {value!r}")


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Matrix:
    """Dense row-major matrix; all entries share one backend."""

    rows: int
    cols: int
    entries: Tuple[Scalar, ...]
    backend: str

    def __post_init__(self):
        assert self.rows >= 0 and self.cols >= 0
        assert len(self.entries) == self.rows * self.cols

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple[Scalar, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> "Matrix":
        return Matrix(self.rows, 1, tuple(self.at(i, j) for i in range(self.rows)), self.backend)

    def to_lists(self) -> List[List[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def _check_same_shape(self, other: "Matrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise VerificationFailure(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
            self.backend,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            self.rows,
            self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
            self.backend,
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries), self.backend)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise VerificationFailure(f"shape mismatch {self.cols} vs {other.rows}")
        if self.backend == EXACT:
            return _mul_exact(self, other)
        zero = sc_zero(self.backend)
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    acc = acc + ri[k] * other.at(k, j)
                out.append(acc)
        return Matrix(self.rows, other.cols, tuple(out), self.backend)

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries), self.backend)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
            self.backend,
        )

    def maxnorm(self) -> float:
        if not self.entries:
            return 0.0
        return max(sc_abs(a) for a in self.entries)

    def is_zero(self, thr: float = 0.0) -> bool:
        return all(sc_is_zero(a, thr) for a in self.entries)

    def to_float(self) -> "Matrix":
        if self.backend == FLOAT:
            return self
        return Matrix(self.rows, self.cols, tuple(a.to_complex() for a in self.entries), FLOAT)


def matrix_from_rows(rows: Sequence[Sequence[Scalar]], backend: str, cols: Optional[int] = None) -> Matrix:
    nrows = len(rows)
    if nrows == 0:
        assert cols is not None, "empty matrix needs an explicit column count"
        return Matrix(0, cols, (), backend)
    ncols = len(rows[0]) if cols is None else cols
    flat: List[Scalar] = []
    for r in rows:
        assert len(r) == ncols, "ragged rows"
        flat.extend(r)
    return Matrix(nrows, ncols, tuple(flat), backend)


def zeros(rows: int, cols: int, backend: str) -> Matrix:
    z = sc_zero(backend)
    return Matrix(rows, cols, (z,) * (rows * cols), backend)


def identity(n: int, backend: str) -> Matrix:
    z, o = sc_zero(backend), sc_one(backend)
    return Matrix(n, n, tuple(o if i == j else z for i in range(n) for j in range(n)), backend)


def col_vector(entries: Sequence[Scalar], backend: str) -> Matrix:
    return Matrix(len(entries), 1, tuple(entries), backend)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    assert mats, "hstack of nothing"
    rows = mats[0].rows
    backend = mats[0].backend
    assert all(m.rows == rows and m.backend == backend for m in mats)
    out: List[Scalar] = []
    for i in range(rows):
        for m in mats:
            out.extend(m.row(i))
    return Matrix(rows, sum(m.cols for m in mats), tuple(out), backend)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    assert mats, "vstack of nothing"
    cols = mats[0].cols
    backend = mats[0].backend
    assert all(m.cols == cols and m.backend == backend for m in mats)
    out: List[Scalar] = []
    for m in mats:
        out.extend(m.entries)
    return Matrix(sum(m.rows for m in mats), cols, tuple(out), backend)


def matrix_from_columns(cols: Sequence[Matrix], rows: int, backend: str) -> Matrix:
    if not cols:
        return Matrix(rows, 0, (), backend)
    return hstack(list(cols))


# ---------------------------------------------------------------------------
# elimination core
# ---------------------------------------------------------------------------


def _float_threshold(m: Matrix, tol: Optional[float]) -> float:
    t = TAU if tol is None else tol
    return t * m.maxnorm()


def _rref(
    rows: List[List[Scalar]], backend: str, thr: float
) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column list).

    Exact backend: first nonzero pivot per column, on the Gaussian-integer
    kernel.  Float backend: partial pivot by magnitude, accepted only above
    thr, in place.  Column order is fixed, so the result is deterministic
    for a given input.
    """
    if backend == EXACT:
        return _rref_exact(rows)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = -1
        best = thr
        for i in range(r, nrows):
            a = abs(rows[i][c])
            if a > best:
                best = a
                pivot_row = i
        if pivot_row < 0:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if sc_is_zero(f, thr):
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


# --- the exact kernel: Gaussian integers ------------------------------------
#
# A Gaussian integer a + b*i is the pair (a, b) of Python ints.  A sparse
# integer row is a dict {column: (a, b)} holding only the nonzero entries.


def _clear_denominators(values: Sequence[GaussianRational]) -> Tuple[List[Tuple[int, int]], int]:
    """(pairs, d) with values[k] == (pairs[k][0] + pairs[k][1]*i) / d, where d
    is the least common multiple of every denominator."""
    parts = [(x.re, x.im) for x in values]
    d = math.lcm(*[q.denominator for pair in parts for q in pair])
    return [(a.numerator * (d // a.denominator), b.numerator * (d // b.denominator))
            for a, b in parts], d


def _gr_over(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i) / d with each part reduced once."""
    if not (a or b):
        return GR_ZERO
    if d == 1:
        return GaussianRational(Fraction(a), Fraction(b))
    return GaussianRational(Fraction(a, d), Fraction(b, d))


def _mul_exact(x: Matrix, y: Matrix) -> Matrix:
    # Rows of x and columns of y are scaled to integers, so entry (i, j) of
    # the product is an integer sum over the nonzero x[i, k] * y[k, j],
    # divided once by dx_i * dy_j.
    ycols = [_clear_denominators(y.entries[j :: y.cols]) for j in range(y.cols)]
    ydens = [d for _, d in ycols]
    yrows: List[List[Tuple[int, int, int]]] = [[] for _ in range(y.rows)]
    for j, (pairs, _) in enumerate(ycols):
        for k, (c, d) in enumerate(pairs):
            if c or d:
                yrows[k].append((j, c, d))
    out: List[GaussianRational] = []
    for i in range(x.rows):
        pairs, dx = _clear_denominators(x.row(i))
        acc_re = [0] * y.cols
        acc_im = [0] * y.cols
        for k, (a, b) in enumerate(pairs):
            if not (a or b):
                continue
            for j, c, d in yrows[k]:
                acc_re[j] += a * c - b * d
                acc_im[j] += a * d + b * c
        out.extend(_gr_over(re, im, dx * dy) for re, im, dy in zip(acc_re, acc_im, ydens))
    return Matrix(x.rows, y.cols, tuple(out), EXACT)


def _rref_exact(
    rows: List[List[GaussianRational]],
) -> Tuple[List[List[GaussianRational]], List[int]]:
    # Fraction-free Gauss-Jordan.  Scaling a row leaves the reduced echelon
    # form unchanged, so each row is cleared of denominators, eliminated with
    # row <- p*row - f*pivot_row and kept primitive by dividing out its
    # integer content.  Pivot rows are divided by their pivot at the end.
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    work: List[Dict[int, Tuple[int, int]]] = [
        {j: v for j, v in enumerate(_clear_denominators(row)[0]) if v[0] or v[1]}
        for row in rows
    ]
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if c in work[i]), -1)
        if pivot_row < 0:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        prow = work[r]
        pa, pb = prow[c]
        for i in range(nrows):
            row = work[i]
            if i == r or c not in row:
                continue
            fa, fb = row[c]
            new = {j: (pa * xa - pb * xb, pa * xb + pb * xa) for j, (xa, xb) in row.items()}
            for j, (ya, yb) in prow.items():
                xa, xb = new.get(j, (0, 0))
                new[j] = (xa - fa * ya + fb * yb, xb - fa * yb - fb * ya)
            new = {j: v for j, v in new.items() if v[0] or v[1]}
            g = math.gcd(*[v for pair in new.values() for v in pair])
            if g > 1:
                new = {j: (xa // g, xb // g) for j, (xa, xb) in new.items()}
            work[i] = new
        pivots.append(c)
        r += 1
    out = [[GR_ZERO] * ncols for _ in range(nrows)]
    for r, c in enumerate(pivots):
        # x / p = x * conj(p) / |p|^2
        pa, pb = work[r][c]
        n = pa * pa + pb * pb
        row = out[r]
        for j, (xa, xb) in work[r].items():
            row[j] = _gr_over(xa * pa + xb * pb, xb * pa - xa * pb, n)
    return out, pivots


def _rank_exact(m: Matrix) -> int:
    # Bareiss elimination over the Gaussian integers: every entry produced
    # at step k is divided by the step k-1 pivot, which is exact and keeps
    # entries the size of k x k minors.  Only the pivot count matters, and
    # scaling rows to Gaussian integers leaves it unchanged.
    rows = [_clear_denominators(m.row(i))[0] for i in range(m.rows)]
    nrows, ncols = m.rows, m.cols
    rank = 0
    prev = (1, 0)
    for c in range(ncols):
        pivot_row = -1
        for i in range(rank, nrows):
            if rows[i][c] != (0, 0):
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pa, pb = rows[rank][c]
        qa, qb = prev
        qn = qa * qa + qb * qb
        for i in range(rank + 1, nrows):
            fa, fb = rows[i][c]
            new_row = []
            for (xa, xb), (ya, yb) in zip(rows[i], rows[rank]):
                ra = pa * xa - pb * xb - (fa * ya - fb * yb)
                rb = pa * xb + pb * xa - (fa * yb + fb * ya)
                if qn != 1:
                    ra, rb = (ra * qa + rb * qb) // qn, (rb * qa - ra * qb) // qn
                new_row.append((ra, rb))
            rows[i] = new_row
        prev = (pa, pb)
        rank += 1
        if rank == nrows:
            break
    return rank


def rank(m: Matrix, tol: Optional[float] = None) -> int:
    """Rank of m.  Exact: fraction-free elimination.  Float: pivots above
    tol (default TAU) relative to the largest initial entry magnitude."""
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.backend == EXACT:
        return _rank_exact(m)
    thr = _float_threshold(m, tol)
    _, pivots = _rref(m.to_lists(), FLOAT, thr)
    return len(pivots)


def nullspace_basis(m: Matrix, tol: Optional[float] = None) -> List[Matrix]:
    """Kernel basis via the reduced-echelon free-variable construction,
    free columns taken in column order."""
    if m.cols == 0:
        return []
    if m.rows == 0:
        return [col_vector([sc_one(m.backend) if i == j else sc_zero(m.backend)
                            for i in range(m.cols)], m.backend) for j in range(m.cols)]
    thr = 0.0 if m.backend == EXACT else _float_threshold(m, tol)
    rows, pivots = _rref(m.to_lists(), m.backend, thr)
    pivot_set = set(pivots)
    zero, one = sc_zero(m.backend), sc_one(m.backend)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [zero] * m.cols
        v[free] = one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][free]
        basis.append(col_vector(v, m.backend))
    return basis


def solve_matrix(a: Matrix, b: Matrix, tol: Optional[float] = None) -> Optional[Matrix]:
    """One solution X of A X = B, or None when inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    assert a.rows == b.rows
    if a.cols == 0:
        thr0 = 0.0 if a.backend == EXACT else (TAU if tol is None else tol) * max(1.0, b.maxnorm())
        return zeros(0, b.cols, a.backend) if b.is_zero(thr0) else None
    aug = hstack([a, b]) if a.rows else Matrix(0, a.cols + b.cols, (), a.backend)
    thr = 0.0 if a.backend == EXACT else _float_threshold(aug, tol)
    rows, pivots = _rref(aug.to_lists(), a.backend, thr)
    for r, pc in enumerate(pivots):
        if pc >= a.cols:
            return None  # pivot in the right-hand block: inconsistent
    zero = sc_zero(a.backend)
    out = [[zero] * b.cols for _ in range(a.cols)]
    for r, pc in enumerate(pivots):
        for j in range(b.cols):
            out[pc][j] = rows[r][a.cols + j]
    return matrix_from_rows(out, a.backend, cols=b.cols)


def inverse(m: Matrix, tol: Optional[float] = None) -> Matrix:
    assert m.rows == m.cols
    if m.rows == 0:
        return m
    aug = hstack([m, identity(m.rows, m.backend)])
    thr = 0.0 if m.backend == EXACT else _float_threshold(aug, tol)
    rows, pivots = _rref(aug.to_lists(), m.backend, thr)
    if pivots != list(range(m.rows)):
        raise ZeroDivisionError("matrix is singular")
    out = [r[m.rows:] for r in rows]
    return matrix_from_rows(out, m.backend)


def echelon_vectors(
    vectors: Sequence[Sequence[Scalar]], backend: str, tol: Optional[float] = None
) -> Tuple[Tuple[Scalar, ...], ...]:
    """Canonical reduced-echelon basis of the span of the given coefficient
    vectors (rows).  Identical spans give identical output."""
    vecs = [list(v) for v in vectors]
    if not vecs:
        return ()
    thr = 0.0
    if backend == FLOAT:
        mx = max((sc_abs(x) for v in vecs for x in v), default=0.0)
        thr = (TAU if tol is None else tol) * mx
    rows, pivots = _rref(vecs, backend, thr)
    return tuple(tuple(rows[r]) for r in range(len(pivots)))


def pivot_positions(
    vectors: Sequence[Sequence[Scalar]], backend: str, tol: Optional[float] = None
) -> List[int]:
    vecs = [list(v) for v in vectors]
    if not vecs:
        return []
    thr = 0.0
    if backend == FLOAT:
        mx = max((sc_abs(x) for v in vecs for x in v), default=0.0)
        thr = (TAU if tol is None else tol) * mx
    _, pivots = _rref(vecs, backend, thr)
    return pivots


def complement_positions(columns: Sequence[Matrix], dim: int, backend: str,
                         tol: Optional[float] = None) -> List[int]:
    """Indices j such that the standard vectors e_j extend span(columns) to
    the whole space.  columns must be independent."""
    rows = [[c.at(i, 0) for i in range(dim)] for c in columns]
    pivots = pivot_positions(rows, backend, tol) if rows else []
    pivot_set = set(pivots)
    return [j for j in range(dim) if j not in pivot_set]


def intersect_subspaces(
    a: Sequence[Matrix], b: Sequence[Matrix], tol: Optional[float] = None
) -> List[Matrix]:
    """Basis of span(a) & span(b), canonical echelon form, deterministic order.

    a and b are lists of column vectors of one ambient dimension.
    """
    if not a or not b:
        return []
    backend = a[0].backend
    dim = a[0].rows
    ma = matrix_from_columns(list(a), dim, backend)
    mb = matrix_from_columns(list(b), dim, backend)
    stacked = hstack([ma, -mb])
    kernel = nullspace_basis(stacked, tol)
    raw = []
    for k in kernel:
        x = Matrix(ma.cols, 1, tuple(k.at(i, 0) for i in range(ma.cols)), backend)
        raw.append(ma * x)
    rows = [[v.at(i, 0) for i in range(dim)] for v in raw]
    ech = echelon_vectors(rows, backend, tol)
    return [col_vector(list(v), backend) for v in ech]


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def _hessenberg(rows: List[List[Scalar]], backend: str) -> List[List[Scalar]]:
    # similarity reduction to upper Hessenberg form, in place
    size = len(rows)
    for k in range(size - 2):
        piv = -1
        if backend == EXACT:
            for i in range(k + 1, size):
                if not sc_is_zero(rows[i][k]):
                    piv = i
                    break
        else:
            best = 0.0
            for i in range(k + 1, size):
                mag = sc_abs(rows[i][k])
                if mag > best:
                    best, piv = mag, i
        if piv < 0:
            continue
        if piv != k + 1:
            rows[piv], rows[k + 1] = rows[k + 1], rows[piv]
            for r in rows:
                r[piv], r[k + 1] = r[k + 1], r[piv]
        lead = rows[k + 1][k]
        for i in range(k + 2, size):
            if sc_is_zero(rows[i][k]):
                continue
            t = rows[i][k] / lead
            ri, rk = rows[i], rows[k + 1]
            for j in range(k, size):
                ri[j] = ri[j] - t * rk[j]
            # inverse similarity: fold t times column i back into column k+1
            for r in rows:
                r[k + 1] = r[k + 1] + t * r[i]
    return rows


def char_poly(m: Matrix) -> List[Scalar]:
    """Monic characteristic polynomial det(tI - M), leading coefficient first.

    Hessenberg reduction followed by the leading-minor recurrence; for a
    Hessenberg H the k x k minor of tI - H expands along its last column
    into earlier minors weighted by subdiagonal products.
    """
    assert m.rows == m.cols
    backend = m.backend
    size = m.rows
    one, zero = sc_one(backend), sc_zero(backend)
    if size == 0:
        return [one]
    h = _hessenberg(m.to_lists(), backend)
    minors = [[one]]  # minors[k] = degree-k polynomial, ascending coefficients
    for k in range(1, size + 1):
        prev = minors[k - 1]
        cur = [zero] * (k + 1)
        diag = h[k - 1][k - 1]
        for d, c in enumerate(prev):
            cur[d + 1] = cur[d + 1] + c
            cur[d] = cur[d] - diag * c
        mult = one
        for i in range(k - 1, 0, -1):
            mult = mult * h[i][i - 1]
            if sc_is_zero(mult):
                break
            coeff = h[i - 1][k - 1] * mult
            if sc_is_zero(coeff):
                continue
            for d, c in enumerate(minors[i - 1]):
                cur[d] = cur[d] - coeff * c
        minors.append(cur)
    return list(reversed(minors[size]))


def _int_divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _gaussian_divides(d: Tuple[int, int], g: Tuple[int, int]) -> bool:
    da, db = d
    nd = da * da + db * db
    if nd == 0:
        return False
    ga, gb = g
    qa = ga * da + gb * db
    qb = gb * da - ga * db
    return qa % nd == 0 and qb % nd == 0


def _gaussian_divisors(g: Tuple[int, int]) -> List[Tuple[int, int]]:
    """Divisors of a nonzero Gaussian integer, one per unit class."""
    ga, gb = g
    norm = ga * ga + gb * gb
    assert norm > 0
    if norm > _DIVISOR_NORM_CAP:
        raise ExactFactorizationFailure(
            f"coefficient norm {norm} too large for divisor enumeration"
        )
    found = []
    for nd in _int_divisors(norm):
        x = 0
        while x * x <= nd:
            y2 = nd - x * x
            y = math.isqrt(y2)
            if y * y == y2:
                cand = (x, y)
                if cand != (0, 0) and _gaussian_divides(cand, g):
                    found.append(cand)
            x += 1
    return found


_UNITS = (GaussianRational(Fraction(1), Fraction(0)),
          GaussianRational(Fraction(-1), Fraction(0)),
          GaussianRational(Fraction(0), Fraction(1)),
          GaussianRational(Fraction(0), Fraction(-1)))


def _poly_eval(coeffs: List[GaussianRational], x: GaussianRational) -> GaussianRational:
    acc = GR_ZERO
    for c in coeffs:
        acc = acc * x + c
    return acc


def _poly_deflate(coeffs: List[GaussianRational], r: GaussianRational) -> List[GaussianRational]:
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(out[-1] * r + c)
    rem = out[-1] * r + coeffs[-1]
    if not rem.is_zero:
        raise VerificationFailure("deflation by a non-root")
    return out


def _poly_roots_exact(coeffs: List[GaussianRational]) -> List[GaussianRational]:
    """All roots (with multiplicity) over the Gaussian rationals, or raise."""
    roots: List[GaussianRational] = []
    cur = list(coeffs)
    while len(cur) > 1:
        if cur[-1].is_zero:
            roots.append(GR_ZERO)
            cur = cur[:-1]
            continue
        ints, _ = _clear_denominators(cur)
        lead, const = ints[0], ints[-1]
        num_divs = _gaussian_divisors(const)
        den_divs = _gaussian_divisors(lead)
        candidates = []
        for na, nb in num_divs:
            for da, db in den_divs:
                base = GaussianRational(Fraction(na), Fraction(nb)) / GaussianRational(
                    Fraction(da), Fraction(db)
                )
                for u in _UNITS:
                    candidates.append(base * u)
        candidates.sort(key=lambda c: (c.re * c.re + c.im * c.im, scalar_key(c)))
        hit = None
        for cand in candidates:
            if _poly_eval(cur, cand).is_zero:
                hit = cand
                break
        if hit is None:
            raise ExactFactorizationFailure(
                "characteristic polynomial has no Gaussian-rational root"
            )
        roots.append(hit)
        cur = _poly_deflate(cur, hit)
    return roots


def eigenvalues(m: Matrix, tol: Optional[float] = None) -> List[Scalar]:
    """Eigenvalue multiset, deterministically sorted.

    Exact backend: characteristic polynomial plus rational-root search over
    Gaussian-integer divisors; raises ExactFactorizationFailure when the
    polynomial does not split over the Gaussian rationals.  Float backend:
    numpy eigenvalues deduplicated within TAU_CHAR after unit max-norm
    scaling.
    """
    assert m.rows == m.cols
    if m.rows == 0:
        return []
    if m.backend == EXACT:
        roots = _poly_roots_exact(char_poly(m))
        return sorted(roots, key=scalar_key)
    scale = m.maxnorm()
    if scale == 0.0:
        return [0j] * m.rows
    arr = np.array([[m.at(i, j) for j in range(m.cols)] for i in range(m.rows)], dtype=complex)
    vals = sorted(np.linalg.eigvals(arr).tolist(), key=lambda z: (z.real, z.imag))
    thr = (TAU_CHAR if tol is None else tol) * scale
    out: List[complex] = []
    for v in vals:
        if out and abs(v - out[-1]) <= thr:
            out.append(out[-1])  # snap to the cluster representative
        else:
            out.append(v)
    return out
