"""Scalar and matrix kernel shared by every layer above.

Two interchangeable backends:

  * "exact"  -- Gaussian rationals, each held as three Python ints (a, b, d)
    for (a + b*i) / d with d > 0 and gcd(a, b, d) = 1, normalised as the
    Gaussian-integer form of a matrix (below) is.
    The characteristic polynomial of the matrix cleared to Gaussian
    integers comes from its power traces by Newton's identities, where
    every division is exact.  Its roots stay Gaussian integers until they
    are returned.  A pure power is read off its trace; otherwise roots are
    guessed, then verified on integers: numpy roots of the exact
    square-free part are rounded to Gaussian rationals and kept only where
    homogenised integer Horner evaluation vanishes.  p-adic lifting (Loos
    1983) takes whatever the guesses miss: it finds every Gaussian-rational
    root, with no budget, so a polynomial that does not split over the
    Gaussian rationals is the only failure.  Every exact matrix
    is its Gaussian-integer form: sparse rows of nonzero integer (re, im)
    pairs over one positive common denominator, coprime to the numerators.
    A matrix built from entries clears them to that form once, on first
    use; the kernel routines build their results from the form alone, and
    such a result fills its entries on first read.  The form is canonical,
    so == and hash compare it; no module but this one reads or builds it.
    Products, Kronecker sums and elimination read only the form.
    Elimination is fraction-free: Gauss-Jordan with
    row <- p*row - f*pivot_row and division by the row's integer content,
    one reduced echelon routine for ranks, kernels, solutions and the
    generalized inverse.  Identities such as sum_t X_t Y_t == I are
    checked row by row on Z[i] rows, without forming the products.  No
    rounding anywhere; equality means equality.
  * "float"  -- complex double precision.  Every comparison against zero
    goes through zero_threshold: TAU, or the caller's tolerance, times a
    scale taken from the entry magnitudes at hand, so ranks and kernels
    are reproducible for a fixed input.  Two absolute tolerances, with no
    scale, do not: koszul.HOMOTOPY_RESIDUAL, the largest residual entry
    complex_splitting accepts, and spectra.CHAR_MERGE, the coordinate
    distance within which two characters count as one.

Matrices are small and dense (desk scale), stored row-major.  kron_sum
assembles the sum of c (A (x) B) over (c, A, B) terms on either backend: the
Koszul differentials, the Cartan homotopies and rho(x) are such sums.  All
functions are pure; the one write is a matrix caching its own integer form
or entries.
"""

from __future__ import annotations

import itertools
import math
import re as _re
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

# Relative rank tolerance for the float backend: a pivot counts only if its
# magnitude exceeds TAU times the largest entry magnitude of the input.
TAU = 1e-9

# Eigenvalue dedup threshold for the float backend, absolute after scaling
# the matrix to unit max-norm.
TAU_CHAR = 1e-6

EXACT = "exact"
FLOAT = "float"

class ExactFactorizationFailure(Exception):
    """The characteristic polynomial has a factor with no Gaussian-rational root."""


class VerificationFailure(RuntimeError):
    """A load-bearing internal check failed: mismatched shapes, or a result
    that does not satisfy the identity it was built to satisfy."""


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


class GaussianRational:
    """Exact complex scalar (a + b*i) / d, held as three Python ints with
    d > 0 and gcd(a, b, d) == 1: the normalisation of a Z[i] row over its
    denominator, so equal values have equal triples and == and hash compare
    them.  Arithmetic takes one gcd per result.  Immutable; re and im are
    read as Fractions, and the constructor takes ints or Fractions."""

    __slots__ = ("a", "b", "d")

    def __new__(cls, re: Union[int, Fraction], im: Union[int, Fraction]):
        p, q = _num_den(re)
        r, s = _num_den(im)
        return _gr_over(p * s, r * q, q * s)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _gr_over, (self.a, self.b, self.d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d, f = self.d, other.d
        if d == f:
            return _gr_over(self.a + other.a, self.b + other.b, d)
        return _gr_over(self.a * f + other.a * d, self.b * f + other.b * d, d * f)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        d, f = self.d, other.d
        if d == f:
            return _gr_over(self.a - other.a, self.b - other.b, d)
        return _gr_over(self.a * f - other.a * d, self.b * f - other.b * d, d * f)

    def __neg__(self) -> "GaussianRational":
        return _gr_triple(-self.a, -self.b, self.d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, e = self.a, self.b, other.a, other.b
        return _gr_over(a * c - b * e, a * e + b * c, self.d * other.d)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        # (a + bi)/d over (c + ei)/f is (a + bi)(c - ei) f / (d (c^2 + e^2))
        c, e = other.a, other.b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b, f = self.a * other.d, self.b * other.d, self.d * n
        return _gr_over(a * c + b * e, b * c - a * e, f)

    def __eq__(self, other):
        if other.__class__ is GaussianRational:
            return self.a == other.a and self.b == other.b and self.d == other.d
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def to_complex(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does.  The
        # value is complex(re) + 1j * complex(im), signed zeros included:
        # that sum turns an imaginary -0.0 into 0.0, and a real -0.0 into
        # 0.0 unless the imaginary part is negative
        a, b = self.a / self.d, self.b / self.d
        return complex(a + 0.0 * b, b + 0.0)

    def __str__(self) -> str:
        return scalar_to_text(self)


_new_object = object.__new__
_set_a, _set_b, _set_d = (getattr(GaussianRational, f).__set__ for f in GaussianRational.__slots__)


def _num_den(x: Union[int, Fraction]) -> Tuple[int, int]:
    """(numerator, positive denominator) of an int or a Fraction; anything
    else (a float, a string) is read through Fraction, as gr always did."""
    if type(x) is not int:
        if not isinstance(x, Rational):
            x = Fraction(x)
        return x.numerator, x.denominator
    return x, 1


def _gr_triple(a: int, b: int, d: int) -> GaussianRational:
    """The scalar of a triple that is already normalised."""
    x = _new_object(GaussianRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _gr_over(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i) / d for d > 0, normalised with one gcd."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _gr_triple(a, b, d)


Scalar = Union[GaussianRational, complex]

# the distinct eigenvalues of a matrix with their multiplicities, as
# (value, multiplicity) runs in scalar_key order (see eigenvalues)
EigenRuns = List[Tuple[Scalar, int]]

GR_ZERO = _gr_triple(0, 0, 1)
GR_ONE = _gr_triple(1, 0, 1)


def gr(re: Union[int, Fraction], im: Union[int, Fraction] = 0) -> GaussianRational:
    return GaussianRational(re, im)


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
            return gr(value[0], value[1])
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


def zero_threshold(backend: str, tol: Optional[float], scale: Callable[[], float]) -> float:
    """The magnitude at or below which a scalar counts as zero: 0.0 on exact,
    tol (default TAU) times scale() on float, the only backend that calls it."""
    if backend == EXACT:
        return 0.0
    return (TAU if tol is None else tol) * scale()


def sc_is_zero(x: Scalar, thr: float = 0.0) -> bool:
    if isinstance(x, GaussianRational):
        return x.is_zero
    return abs(x) <= thr


def sc_abs(x: Scalar) -> float:
    if isinstance(x, GaussianRational):
        return abs(x.to_complex())
    return abs(x)


# --- text syntax ------------------------------------------------------------
#
# Exact scalar text: "a/b", "a/b+c/di", "a/b-c/di", "i", "-i", "3i", "2".
# Rendering is canonical: integers drop the denominator, a zero part is
# omitted, unit imaginary coefficients render as "i"/"-i", zero as "0".

_FRAC = r"\d+(?:/\d+)?"
# the lookahead keeps the real group from eating the imaginary coefficient,
# or any leading part of it: "12i" is 12i, not 1 + 2i
_SCALAR_RE = _re.compile(
    rf"^(?P<re>[+-]?{_FRAC}(?![\d/i]))?(?P<im>[+-]?(?:{_FRAC})?i)?$"
)


def _ratio_text(n: int, d: int) -> str:
    """n / d in lowest terms, for d > 0; an integer drops the denominator."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def scalar_to_text(x: Scalar) -> str:
    if isinstance(x, complex):
        # float scalars are serialized as [re, im] pairs, not text
        return f"[{x.real!r}, {x.imag!r}]"
    a, b, d = x.a, x.b, x.d
    if not (a or b):
        return "0"
    parts = []
    if a:
        parts.append(_ratio_text(a, d))
    if b:
        if b == d:
            imtxt = "i"
        elif b == -d:
            imtxt = "-i"
        else:
            imtxt = _ratio_text(b, d) + "i"
        if parts and not imtxt.startswith("-"):
            imtxt = "+" + imtxt
        parts.append(imtxt)
    return "".join(parts)


def _parse_ratio(text: str, part: str) -> Tuple[int, int]:
    """(numerator, denominator) of a signed "n" or "n/m" matched by _FRAC."""
    num, _, den = part.partition("/")
    if not den:
        return int(num), 1
    q = int(den)
    if q == 0:
        raise ValueError(f"zero denominator in scalar text: {text!r}")
    return int(num), q


def scalar_from_text(text: str) -> GaussianRational:
    """Parse the exact scalar syntax into the integer triple; raises
    ValueError on malformed input."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar text")
    m = _SCALAR_RE.match(s)
    if m is None or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"malformed scalar text: {text!r}")
    p, q = _parse_ratio(text, m.group("re")) if m.group("re") else (0, 1)
    r, t = 0, 1
    if m.group("im"):
        body = m.group("im")[:-1]  # strip the trailing i
        if body in ("", "+"):
            r = 1
        elif body == "-":
            r = -1
        else:
            r, t = _parse_ratio(text, body)
    return _gr_over(p * t, r * q, q * t)


def scalar_key(x: Scalar) -> Union[Tuple[Fraction, Fraction], Tuple[float, float]]:
    """Deterministic sort key (re, im): Fractions for an exact scalar, so
    that values past the range of a double sort too, floats for a float one."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return x.real, x.imag


def scalar_to_json(x: Scalar):
    """Exact scalars serialize as canonical text, float scalars as [re, im]."""
    if isinstance(x, GaussianRational):
        return scalar_to_text(x)
    return [x.real, x.imag]


def scalar_from_json(value, backend: str) -> Scalar:
    """Accepts canonical text, plain numbers, or [re, im] pairs of numbers;
    a boolean is no number.  JSON Infinity, -Infinity, NaN and overflowing
    numbers such as 1e400 load as non-finite floats and are refused on both
    backends, as is a value too large for a double on the float backend."""
    pair = isinstance(value, (list, tuple))
    parts = value if pair else (value,)
    try:
        if isinstance(value, str):
            g = scalar_from_text(value)
            return g if backend == EXACT else g.to_complex()
        if any(isinstance(part, float) and not math.isfinite(part) for part in parts):
            raise ValueError(f"not a finite number: {value!r}")
        if len(parts) != 1 + pair or any(type(part) not in (int, float) for part in parts):
            raise ValueError(f"not a scalar: {value!r}")
        if backend != EXACT:
            return complex(*map(float, parts))
    except OverflowError:
        raise ValueError(f"too large for a double: {value!r}") from None
    if any(isinstance(part, float) and part != int(part) for part in parts):
        raise ValueError(f"non-integral float in {value!r} not accepted on the exact backend"
                         if pair else f"non-integral float {value!r} not accepted on the "
                         "exact backend; use \"a/b\" text")
    return gr(*map(int, parts))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Matrix:
    """Dense row-major matrix; all entries share one backend.  An exact
    matrix is its Gaussian-integer form (see zi_form): one built by
    zi_matrix holds only the form and fills its entries on first read.
    Exact == and hash compare (rows, cols, form), float ones the entries;
    the form is canonical, so both agree with equality of entries."""

    rows: int
    cols: int
    _entries: Optional[Tuple[Scalar, ...]]
    backend: str
    _zi: Optional["ZiForm"] = field(default=None, init=False, compare=False)

    def __post_init__(self):
        n = self.rows * self.cols if self._entries is None else len(self._entries)
        if self.rows < 0 or self.cols < 0 or n != self.rows * self.cols:
            raise VerificationFailure(f"{n} entries do not fill a {self.rows}x{self.cols} matrix")

    @property
    def entries(self) -> Tuple[Scalar, ...]:
        if self._entries is None:
            zrows, d = self._zi
            flat = [GR_ZERO] * (self.rows * self.cols)
            seen: Dict[Tuple[int, int], GaussianRational] = {}
            for i, row in enumerate(zrows):
                base = i * self.cols
                for j, v in row.items():
                    x = seen.get(v)
                    if x is None:
                        x = seen[v] = _gr_over(v[0], v[1], d)
                    flat[base + j] = x
            object.__setattr__(self, "_entries", tuple(flat))
        return self._entries

    def _key(self):
        return self.rows, self.cols, self.backend, (
            zi_form(self) if self.backend == EXACT else self.entries)

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Matrix) else NotImplemented

    def __hash__(self):
        rows, cols, backend, key = self._key()
        if backend == EXACT:
            key = tuple(frozenset(row.items()) for row in key[0]), key[1]
        return hash((rows, cols, backend, key))

    def __repr__(self):
        return (f"Matrix(rows={self.rows!r}, cols={self.cols!r}, "
                f"entries={self.entries!r}, backend={self.backend!r})")

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple[Scalar, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

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
        cols = [other.entries[j::other.cols] for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for col in cols:
                acc = zero
                for a, b in zip(ri, col):
                    acc = acc + a * b
                out.append(acc)
        return Matrix(self.rows, other.cols, tuple(out), self.backend)

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries), self.backend)

    def transpose(self) -> "Matrix":
        if self.backend == EXACT:
            zrows, d = zi_form(self)
            return zi_matrix(self.cols, self.rows, _zi_transposed(zrows, self.cols), d)
        return Matrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
            self.backend,
        )

    def maxnorm(self) -> float:
        if not self.entries:
            return 0.0
        if self.backend == EXACT:
            return max(sc_abs(a) for a in self.entries)
        return max(map(abs, self.entries))

    def is_zero(self, thr: float = 0.0) -> bool:
        if self.backend == EXACT:
            return not any(zi_form(self)[0])
        return all(sc_is_zero(a, thr) for a in self.entries)

    def to_float(self) -> "Matrix":
        if self.backend == FLOAT:
            return self
        return Matrix(self.rows, self.cols, tuple(a.to_complex() for a in self.entries), FLOAT)


_set_rows, _set_cols, _set_entries, _set_backend, _set_zi = (
    getattr(Matrix, f).__set__ for f in ("rows", "cols", "_entries", "backend", "_zi"))


def matrix_from_rows(rows: Sequence[Sequence[Scalar]], backend: str, cols: Optional[int] = None) -> Matrix:
    nrows = len(rows)
    if nrows == 0:
        if cols is None:
            raise VerificationFailure("empty matrix needs an explicit column count")
        return Matrix(0, cols, (), backend)
    ncols = len(rows[0]) if cols is None else cols
    flat: List[Scalar] = []
    for r in rows:
        if len(r) != ncols:
            raise VerificationFailure("ragged rows")
        flat.extend(r)
    return Matrix(nrows, ncols, tuple(flat), backend)


def zeros(rows: int, cols: int, backend: str) -> Matrix:
    z = sc_zero(backend)
    return Matrix(rows, cols, (z,) * (rows * cols), backend)


def identity(n: int, backend: str) -> Matrix:
    """The n x n identity, one shared matrix per size and backend."""
    return _identities(n)[backend != EXACT]


@lru_cache(maxsize=64)
def _identities(n: int) -> Tuple[Matrix, Matrix]:
    """The n x n identity on the exact backend, built as its Z[i] form, and float."""
    z, o = sc_zero(FLOAT), sc_one(FLOAT)
    return (zi_matrix(n, n, [{i: (1, 0)} for i in range(n)], 1),
            Matrix(n, n, tuple(o if i == j else z for i in range(n) for j in range(n)), FLOAT))


def scalar_of(m: Matrix) -> Optional[GaussianRational]:
    """The c with m == c I for an exact square matrix, GR_ZERO for the zero
    matrix, or None when m is not scalar.  Read off m's Z[i] form: no entry
    of m is filled."""
    _check_square(m)
    zrows, d = zi_form(m)
    c = zrows[0].get(0) if zrows else None
    if any(row != ({} if c is None else {i: c}) for i, row in enumerate(zrows)):
        return None
    return GR_ZERO if c is None else _gr_over(c[0], c[1], d)


def sub_diagonal(m: Matrix, lam: Scalar) -> Matrix:
    """m - lam*I without forming lam*I.  An exact m = N / d and lam = x / e
    give (e N - d x I) / (d e), formed in Z[i] and handed over as the
    result's form.  Float entries off the diagonal still have lam*0
    subtracted, because its signed zeros reach the float output."""
    _check_square(m)
    n = m.rows
    if m.backend == EXACT:
        zrows, d = zi_form(m)
        xa, xb, e = lam.a, lam.b, lam.d
        out = []
        for i, row in enumerate(zrows):
            new = {j: (a * e, b * e) for j, (a, b) in row.items() if j != i}
            a, b = row.get(i, (0, 0))
            diag = (a * e - d * xa, b * e - d * xb)
            if diag != (0, 0):
                new[i] = diag
            out.append(new)
        return zi_matrix(n, n, out, d * e)
    off = lam * sc_zero(FLOAT)
    entries = [a - off for a in m.entries]
    lam = lam * sc_one(FLOAT)
    for i in range(0, n * n, n + 1):
        entries[i] = m.entries[i] - lam
    return Matrix(n, n, tuple(entries), m.backend)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    """The matrices side by side; exact ones are joined on their Z[i] forms,
    over the least common multiple of their denominators."""
    if not mats or any(m.rows != mats[0].rows or m.backend != mats[0].backend for m in mats):
        raise VerificationFailure("hstack needs one or more matrices of one row count and backend")
    rows = mats[0].rows
    backend = mats[0].backend
    if backend == EXACT:
        forms = [zi_form(m) for m in mats]
        d = math.lcm(*[e for _, e in forms])
        zrows: List[ZiRow] = [{} for _ in range(rows)]
        offset = 0
        for m, (mrows, e) in zip(mats, forms):
            for target, row in zip(zrows, mrows):
                target.update({offset + j: (a * (d // e), b * (d // e)) for j, (a, b) in row.items()})
            offset += m.cols
        return zi_matrix(rows, offset, zrows, d)
    out: List[Scalar] = []
    for i in range(rows):
        for m in mats:
            out.extend(m.row(i))
    return Matrix(rows, sum(m.cols for m in mats), tuple(out), backend)


def submatrix(m: Matrix, rows: Sequence[int], cols: range) -> Matrix:
    """The block of m on the given rows, in their order, and range of
    columns; an exact block is sliced from m's Z[i] form."""
    if m.backend == EXACT:
        zrows, d = zi_form(m)
        return zi_matrix(len(rows), len(cols), [
            {j - cols.start: v for j, v in zrows[i].items() if j in cols} for i in rows], d)
    return Matrix(len(rows), len(cols), tuple(m.at(i, j) for i in rows for j in cols), m.backend)


def kron_sum(terms: Sequence[Tuple[Scalar, Matrix, Matrix]], rows: int, cols: int,
             backend: str) -> Matrix:
    """The rows x cols sum of c (A (x) B) over the (c, A, B) terms, block
    (i, j) of A (x) B being A[i, j] B; the A share one shape, and so do the
    B.  Float terms are summed entry by entry, in term order, from 0j.
    Exact ones are summed in Z[i] over the lcm of their denominators, those
    of c and of the forms of A and B: each product entry is added into its
    output entry, written when that is absent and deleted when the sum
    cancels, so an exact sum does not depend on the order of its terms."""
    if not terms:
        return zeros(rows, cols, backend)
    _, a, b = terms[0]
    ar, ac, bm, bn = a.rows, a.cols, b.rows, b.cols
    shape = (ar, ac, bm, bn, backend, backend)
    if (ar * bm, ac * bn) != (rows, cols) or any(
            (a.rows, a.cols, b.rows, b.cols, a.backend, b.backend) != shape for _, a, b in terms):
        raise VerificationFailure(f"terms of unequal shapes or backends, or no {rows}x{cols} "
                                  f"{backend} Kronecker sum")
    if backend != EXACT:
        flat = [sc_zero(FLOAT)] * (rows * cols)
        for c, a, b in terms:
            # offset inside a block of each nonzero entry of B
            nonzero = [(k * cols + j, v) for k in range(bm) for j, v in enumerate(b.row(k)) if v]
            for t, x in enumerate(a.entries):
                if x:
                    cx, base = c * x, (t // ac) * bm * cols + (t % ac) * bn
                    for k, v in nonzero:
                        flat[base + k] += cx * v
        return Matrix(rows, cols, tuple(flat), FLOAT)
    forms = [(c, zi_form(a), zi_form(b)) for c, a, b in terms if not c.is_zero]
    d = math.lcm(*[c.d * e * f for c, (_, e), (_, f) in forms])
    out: List[ZiRow] = [{} for _ in range(rows)]
    for c, (arows, e), (brows, f) in forms:
        s = d // (c.d * e * f)
        ca, cb = c.a * s, c.b * s
        for i, arow in enumerate(arows):
            for j, (xa, xb) in arow.items():
                # block (i, j) gains y B, y = s c x
                ya, yb, c0 = ca * xa - cb * xb, ca * xb + cb * xa, j * bn
                for target, brow in zip(out[i * bm : (i + 1) * bm], brows):
                    for col, (p, q) in brow.items():
                        u, w = target.get(c0 + col, (0, 0))
                        u, w = u + ya * p - yb * q, w + ya * q + yb * p
                        if u or w:
                            target[c0 + col] = (u, w)
                        else:
                            del target[c0 + col]
    return zi_matrix(rows, cols, out, d)


# ---------------------------------------------------------------------------
# elimination core
# ---------------------------------------------------------------------------


def _echelon(vectors: Sequence[Sequence[complex]],
             tol: Optional[float]) -> Tuple[List[List[complex]], List[int]]:
    """Float reduced echelon rows of the given rows, and the pivot columns;
    the first len(pivots) rows span them.  Pivots count above tol (default
    TAU) relative to the largest entry magnitude."""
    vecs = [list(v) for v in vectors]
    return _rref(vecs, zero_threshold(FLOAT, tol, lambda: max(
        (abs(x) for v in vecs for x in v), default=0.0)))


def _rref(rows: List[List[complex]], thr: float) -> Tuple[List[List[complex]], List[int]]:
    """Float reduced row echelon form, in place; returns (rows, pivot column
    list).  Partial pivot by magnitude, accepted only above thr.  Column
    order is fixed, so the result is deterministic for a given input."""
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
            if abs(f) <= thr:
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


# --- the exact kernel: Gaussian integers ------------------------------------
#
# A Gaussian integer a + b*i is the pair (a, b) of Python ints.  A sparse
# integer row is a dict {column: (a, b)} holding only the nonzero entries.
# The Z[i] form of an exact matrix is (rows, d): its sparse integer rows
# over one positive denominator d, coprime to the numerators.  The row dicts
# of a form may be shared, and are never mutated.

ZiRow = Dict[int, Tuple[int, int]]
ZiForm = Tuple[Tuple[ZiRow, ...], int]


def _clear_denominators(values: Sequence[GaussianRational]) -> Tuple[List[Tuple[int, int]], int]:
    """(pairs, d) with values[k] == (pairs[k][0] + pairs[k][1]*i) / d, where d
    is the least common multiple of every denominator (so d and the pairs
    are coprime)."""
    d = math.lcm(*[x.d for x in values])
    return [(x.a * (k := d // x.d), x.b * k) for x in values], d


def zi_form(m: Matrix) -> ZiForm:
    """The Z[i] form of an exact matrix: handed over by the kernel routine
    that built m, or cleared from its entries once, on first use."""
    form = m._zi
    if form is None:
        pairs, d = _clear_denominators(m.entries)
        c = m.cols
        form = (tuple({j: v for j, v in enumerate(pairs[i * c : (i + 1) * c]) if v[0] or v[1]}
                      for i in range(m.rows)), d)
        object.__setattr__(m, "_zi", form)
    return form


def zi_matrix(rows: int, cols: int, zrows: Sequence[ZiRow], d: int) -> Matrix:
    """The exact matrix zrows / d, for sparse rows of nonzero entries and
    d > 0, holding only its Z[i] form once the gcd of d and every numerator
    is divided out; its entries are filled on first read (equal entries
    share one Gaussian rational).  Rows that do not fit a rows x cols
    matrix raise VerificationFailure."""
    if len(zrows) != rows or max(map(max, filter(None, zrows)), default=-1) >= cols:
        raise VerificationFailure(f"{len(zrows)} sparse rows do not fit a {rows}x{cols} matrix")
    # the common factor of d and every numerator; one row often shows it is 1
    g = math.gcd(d, *[v for pair in next(filter(None, zrows), {}).values() for v in pair])
    if g > 1:
        g = math.gcd(g, *[v for row in zrows for pair in row.values() for v in pair])
    if g > 1:
        zrows = [{j: (a // g, b // g) for j, (a, b) in row.items()} for row in zrows]
        d //= g
    m = _new_object(Matrix)  # the checks are done: fields set through their slots
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_entries(m, None)
    _set_backend(m, EXACT)
    _set_zi(m, (tuple(zrows), d))
    return m


def _zi_sparse(re: Sequence[int], im: Sequence[int]) -> ZiRow:
    return {j: v for j, v in enumerate(zip(re, im)) if v[0] or v[1]}


def _zi_transposed(rows: Sequence[ZiRow], ncols: int) -> List[ZiRow]:
    out: List[ZiRow] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out


def _zi_row_product(row: ZiRow, yrows: Sequence[ZiRow], ncols: int) -> Tuple[List[int], List[int]]:
    """(real parts, imaginary parts) of row * Y, for the sparse rows of Y."""
    acc_re = [0] * ncols
    acc_im = [0] * ncols
    for k, (a, b) in row.items():
        for j, (c, d) in yrows[k].items():
            acc_re[j] += a * c - b * d
            acc_im[j] += a * d + b * c
    return acc_re, acc_im


def _zi_product_rows(x: Matrix, y: Matrix) -> Tuple[List[Tuple[List[int], List[int]]], int]:
    """Rows of the exact product x * y in Z[i], (real parts, imaginary parts)
    each, over the product of the two forms' denominators."""
    xrows, dx = zi_form(x)
    yrows, dy = zi_form(y)
    return [_zi_row_product(row, yrows, y.cols) for row in xrows], dx * dy


def _mul_exact(x: Matrix, y: Matrix) -> Matrix:
    rows, d = _zi_product_rows(x, y)
    return zi_matrix(x.rows, y.cols, [_zi_sparse(re, im) for re, im in rows], d)


def sums_to_identity(pairs: Sequence[Tuple[Matrix, Matrix]]) -> bool:
    """Whether sum_t X_t Y_t == I for the exact (X_t, Y_t) pairs, decided
    row by row on Z[i] rows.  Over the lcm D of the products' denominators,
    the sum is the one product [s_1 X_1 | s_2 X_2 | ...] [Y_1; Y_2; ...] of
    Gaussian-integer forms, s_t = D / (denominator of X_t Y_t); row i of it,
    from _zi_row_product, is compared with D e_i.  The first row that
    differs ends the check; no product matrix is formed.  No pairs, float
    input, or products that are not all n x n for one n raise
    VerificationFailure."""
    n = pairs[0][0].rows if pairs else -1
    if n < 0 or any(x.backend != EXACT or y.backend != EXACT or x.rows != n or y.cols != n
                    or x.cols != y.rows for x, y in pairs):
        raise VerificationFailure("no exact sum of square products of one size: " + ", ".join(
            f"{x.rows}x{x.cols} times {y.rows}x{y.cols}" for x, y in pairs))
    forms = [(zi_form(x), zi_form(y)) for x, y in pairs]
    d = math.lcm(*[dx * dy for (_, dx), (_, dy) in forms])
    xparts: List[Sequence[ZiRow]] = []
    ystack: List[ZiRow] = []
    for (xrows, dx), (yrows, dy) in forms:
        s, off = d // (dx * dy), len(ystack)
        if s != 1 or off:
            xrows = [{off + k: (a * s, b * s) for k, (a, b) in row.items()} for row in xrows]
        xparts.append(xrows)
        ystack += yrows
    for i, rows in enumerate(zip(*xparts)):
        re, im = _zi_row_product({k: v for row in rows for k, v in row.items()}, ystack, n)
        re[i] -= d
        if any(re) or any(im):
            return False
    return True


def restrict_to_span(m: Matrix, space: Matrix, rows: Sequence[int], what: str) -> Matrix:
    """R with space R == m space: the square exact m restricted to the
    column span V of space, an m.rows x s basis that is the identity on
    rows P = rows, row P[t] being e_t.

    Formed from the Z[i] rows of the one product m V, over its denominator:
    R is rows P of that product, and every other row i is checked as
    V[i] R == (m V)[i] on integers, with the denominators cleared.  On rows
    P, V R is R itself, so the checks are V R == m V on every row.  Rows P
    on which V is not the identity, or a row that fails its check, raise
    VerificationFailure saying that `what` is not invariant.  Float input
    and shapes that do not fit raise VerificationFailure as well."""
    if m.backend != EXACT or space.backend != EXACT:
        raise VerificationFailure("restriction to a span needs exact input")
    s = space.cols
    if m.rows != m.cols or m.cols != space.rows or len(rows) != s or any(
            not 0 <= p < space.rows for p in rows):
        raise VerificationFailure(f"no restriction of a {m.rows}x{m.cols} matrix to "
                                  f"{s} columns of {space.rows} rows on rows {list(rows)}")
    vrows, dv = zi_form(space)
    if any(vrows[p] != {t: (dv, 0)} for t, p in enumerate(rows)):
        raise VerificationFailure(f"{what} is not invariant")
    moved, d = _zi_product_rows(m, space)
    restricted = [_zi_sparse(*moved[p]) for p in rows]
    on_p = set(rows)
    for i, vrow in enumerate(vrows):
        if i not in on_p:
            re, im = _zi_row_product(vrow, restricted, s)
            mre, mim = moved[i]
            if re != [dv * a for a in mre] or im != [dv * b for b in mim]:
                raise VerificationFailure(f"{what} is not invariant")
    return zi_matrix(s, s, restricted, d)


def _rref_zi(rows: Sequence[ZiRow], ncols: int,
             reduced: bool = True) -> Tuple[List[ZiRow], List[int]]:
    """Reduced row echelon form of sparse Z[i] rows: (pivot rows, pivot
    columns), where the reduced row r is pivot row r divided by its entry
    at pivots[r].  The first nonzero pivot per column is taken, so the
    result is deterministic for a given input.

    With reduced=False only the rows below each pivot are eliminated: the
    rows are an echelon form, not the reduced one, and the pivot columns
    are the same, since the pivot at column c is chosen among rows r and
    below, which eliminating above it does not change."""
    # Fraction-free Gauss-Jordan.  Scaling a row leaves the reduced echelon
    # form unchanged, so rows are eliminated with row <- p*row - f*pivot_row
    # and kept primitive by dividing out their integer content.  New rows
    # are new dicts: the input rows are never mutated.
    work = list(rows)
    nrows = len(work)
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
        for i in range(0 if reduced else r + 1, nrows):
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
    return work[:r], pivots


def _zi_reduced(rows: Sequence[ZiRow], ncols: int,
                rhs: int = 0) -> Tuple[List[ZiRow], int, List[int]]:
    """(rows, d, pivots): rows[r] / d is pivot row r of _rref_zi divided by
    its pivot p, as x * conj(p) / |p|^2 in lowest terms, over the lcm d.  With
    rhs > 0, only rows with a pivot left of the last rhs columns remain, cut to those."""
    work, pivots = _rref_zi(rows, ncols)
    first = ncols - rhs if rhs else 0
    pivots = [c for c in pivots if c < ncols - rhs]
    parts = []
    for row, c in zip(work, pivots):
        pa, pb = row[c]
        n = pa * pa + pb * pb
        num = {j - first: (xa * pa + xb * pb, xb * pa - xa * pb)
               for j, (xa, xb) in row.items() if j >= first}
        g = math.gcd(n, *[v for pair in num.values() for v in pair])
        parts.append((num, g, n // g))
    d = math.lcm(*[n for _, _, n in parts])
    out = []
    for num, g, n in parts:
        s = d // n
        if g > 1 or s > 1:
            num = {j: (a // g * s, b // g * s) for j, (a, b) in num.items()}
        out.append(num)
    return out, d, pivots


def _pivot_columns(m: Matrix, tol: Optional[float]) -> List[int]:
    """The pivot columns of m's reduced echelon form; exact ones by forward
    elimination alone, which finds the same pivots."""
    if m.backend == EXACT:
        return _rref_zi(zi_form(m)[0], m.cols, reduced=False)[1]
    return _echelon(m.to_lists(), tol)[1]


def rank(m: Matrix, tol: Optional[float] = None) -> int:
    """Rank of m: the pivot count of its echelon form, exact by forward
    elimination alone, float pivots above tol (default TAU) relative to the
    largest entry magnitude."""
    return len(_pivot_columns(m, tol))


def _free_columns(ncols: int, pivots: Sequence[int]) -> List[int]:
    pivot_set = set(pivots)
    return [j for j in range(ncols) if j not in pivot_set]


def nullspace_basis(m: Matrix, tol: Optional[float] = None) -> Matrix:
    """Kernel basis of m, as the columns of one m.cols x nullity matrix (no
    columns when m is injective), by the reduced-echelon free-variable
    construction.  With the free columns j_0 < j_1 < ... of m, column t is
    1 at row j_t, minus entry j_t of echelon row r at the r-th pivot
    column, and 0 elsewhere.  An exact kernel is built as one Z[i] form,
    each of its pivot rows one echelon row divided by its pivot entry."""
    return _kernel_with_free_rows(m, tol)[0]


def _kernel_with_free_rows(m: Matrix, tol: Optional[float] = None) -> Tuple[Matrix, List[int]]:
    """(V, F): V = nullspace_basis(m) and F = [j_0, j_1, ...], the free
    columns of m from the elimination that built V.  V[F, :] is the
    identity, so the only R with V R == X, if any, is the rows F of X."""
    if m.backend == EXACT:
        rows, d, pivots = _zi_reduced(zi_form(m)[0], m.cols)
        free = _free_columns(m.cols, pivots)
        out: List[ZiRow] = [{}] * m.cols
        for t, j in enumerate(free):
            out[j] = {t: (d, 0)}
        for row, pc in zip(rows, pivots):
            out[pc] = {t: (-row[j][0], -row[j][1]) for t, j in enumerate(free) if j in row}
        return zi_matrix(m.cols, len(free), out, d), free
    rows, pivots = _echelon(m.to_lists(), tol)
    free = _free_columns(m.cols, pivots)
    out = [[sc_zero(FLOAT)] * len(free) for _ in range(m.cols)]
    for t, j in enumerate(free):
        out[j][t] = sc_one(FLOAT)
    for row, pc in zip(rows, pivots):
        out[pc] = [-row[j] for j in free]
    return matrix_from_rows(out, FLOAT, cols=len(free)), free


def solve_matrix(a: Matrix, b: Matrix, tol: Optional[float] = None) -> Optional[Matrix]:
    """One solution X of A X = B, or None when inconsistent: X = G B for the
    generalized inverse G of A, so free variables are zero and the result
    is deterministic.  X is kept when the residual A X - B is zero; float
    residual entries count as zero within tol (default TAU) times the
    largest entry magnitude of B and A X, or 1."""
    if a.rows != b.rows:
        raise VerificationFailure(f"A has {a.rows} rows but B has {b.rows}")
    x = generalized_inverse(a, tol)[0] * b
    image = a * x
    thr = zero_threshold(a.backend, tol, lambda: max(1.0, b.maxnorm(), image.maxnorm()))
    return x if (image - b).is_zero(thr) else None


def _check_square(m: Matrix):
    if m.rows != m.cols:
        raise VerificationFailure(f"{m.rows}x{m.cols} matrix is not square")


def generalized_inverse(m: Matrix, tol: Optional[float] = None) -> Tuple[Matrix, int]:
    """(G, rank of m) with m G m == m, from one reduced echelon form of
    [m | I]: row r of the right-hand block goes to the r-th pivot column of m
    and free variables stay zero, so G y solves m x = y whenever y lies in
    R(m).  An exact m = N / d eliminates [N | d I], whose reduced echelon
    form is the same.  Float pivots count above tol (default TAU) relative
    to the largest entry magnitude of [m | I]."""
    if m.rows == 0 or m.cols == 0:
        return zeros(m.cols, m.rows, m.backend), 0
    k = m.cols
    if m.backend == EXACT:
        zrows, d = zi_form(m)
        rows, e, pivots = _zi_reduced([{**row, k + i: (d, 0)} for i, row in enumerate(zrows)],
                                      k + m.rows, m.rows)
        out: List[ZiRow] = [{}] * k
        for row, pc in zip(rows, pivots):
            out[pc] = row
        return zi_matrix(k, m.rows, out, e), len(pivots)
    rows, pivots = _echelon(hstack([m, identity(m.rows, m.backend)]).to_lists(), tol)
    pivots = [c for c in pivots if c < k]
    out = [[sc_zero(m.backend)] * m.rows for _ in range(k)]
    for r, pc in enumerate(pivots):
        out[pc] = rows[r][k:]
    return matrix_from_rows(out, m.backend), len(pivots)


def inverse(m: Matrix, tol: Optional[float] = None) -> Matrix:
    _check_square(m)
    g, r = generalized_inverse(m, tol)
    if r < m.rows:
        raise ZeroDivisionError("matrix is singular")
    return g


def echelon_vectors(
    vectors: Sequence[Sequence[Scalar]], backend: str, tol: Optional[float] = None
) -> Tuple[Tuple[Tuple[Scalar, ...], ...], Tuple[int, ...]]:
    """(rows, pivots): the reduced-echelon basis of the span of the given
    coefficient vectors (rows), canonical on exact input, and the pivot
    column of each row from _zi_reduced or _rref.  An exact row is 1 at its
    pivot and 0 left of it; a float row may keep entries at or below the
    pivot threshold there, so read pivots here, not off a row."""
    if backend != EXACT:
        rows, pivots = _echelon(vectors, tol)
        return tuple(tuple(rows[r]) for r in range(len(pivots))), tuple(pivots)
    if not vectors:
        return (), ()
    m = matrix_from_rows(vectors, EXACT)
    rows, d, pivots = _zi_reduced(zi_form(m)[0], m.cols)
    return tuple(map(tuple, zi_matrix(len(rows), m.cols, rows, d).to_lists())), tuple(pivots)


def complement_columns(basis: Matrix, tol: Optional[float] = None) -> Matrix:
    """The standard vectors e_j, as the columns of one matrix in order of j,
    that extend the span of basis's columns to the whole space: every j that
    is no pivot of the echelon form of those columns.  The columns of basis
    must be independent.  An exact result is built as its Z[i] form."""
    comp = _free_columns(basis.rows, _pivot_columns(basis.transpose(), tol))
    if basis.backend == EXACT:
        return zi_matrix(len(comp), basis.rows, [{j: (1, 0)} for j in comp], 1).transpose()
    zero, one = sc_zero(basis.backend), sc_one(basis.backend)
    entries = tuple(one if i == j else zero for i in range(basis.rows) for j in comp)
    return Matrix(basis.rows, len(comp), entries, basis.backend)


def intersect_subspaces(a: Matrix, b: Matrix, tol: Optional[float] = None) -> Matrix:
    """Basis of the intersection of the column spans of a and b, two
    matrices of one row count, as the columns of one matrix: the canonical
    echelon basis, in echelon order, with no columns when the spans meet
    only in 0.  Each kernel vector (x, y) of [a | -b] has a x == b y, so a
    times the top a.cols rows of that kernel spans the intersection."""
    kernel = nullspace_basis(hstack([a, -b]), tol)
    return _column_echelon(a * submatrix(kernel, range(a.cols), range(kernel.cols)), tol)


def _column_echelon(m: Matrix, tol: Optional[float]) -> Matrix:
    """The canonical echelon basis of m's column span, as columns in echelon
    order; an exact one is reduced in Z[i] and built from its form."""
    if m.backend != EXACT:
        ech = echelon_vectors(m.transpose().to_lists(), m.backend, tol)[0]
        return matrix_from_rows(ech, m.backend, cols=m.rows).transpose()
    rows, d, _ = _zi_reduced(_zi_transposed(zi_form(m)[0], m.cols), m.rows)
    return zi_matrix(m.rows, len(rows), _zi_transposed(rows, m.rows), d)


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def char_poly(m: Matrix) -> Tuple[List[Tuple[int, int]], int]:
    """(c, d) for an exact square matrix M: d is the denominator of M's Z[i]
    form, so N = d*M has Gaussian-integer entries, and c = [c_0, ..., c_n]
    are the Gaussian-integer coefficients, leading first, of
    det(sI - N) = sum_k c_k s^(n-k).  The coefficient of t^(n-k) in
    det(tI - M) is c_k / d^k.

    Newton's identities k c_k = -sum_(i=1..k) c_(k-i) p_i give the c_k from
    the power traces p_k = tr(N^k).  N, N^2, ..., N^h with h = ceil(n/2) are
    formed row by row against the sparse rows of N (h - 1 products); for
    k > h, p_k is read as sum_ab (N^h)_ab (N^(k-h))_ba without forming that
    product.  The powers stop at the first zero one, since every later
    trace is then zero.  Every c_k is a Gaussian integer, so a nonzero
    remainder of the division by k raises VerificationFailure.
    """
    _check_square(m)
    if m.backend != EXACT:
        raise ValueError("char_poly needs an exact matrix")
    size = m.rows
    n_rows, d = zi_form(m)
    half = (size + 1) // 2
    powers = [n_rows]  # the sparse rows of N, N^2, ..., up to N^half or a zero power
    while len(powers) < half and any(powers[-1]):
        powers.append([_zi_sparse(*_zi_row_product(row, n_rows, size)) for row in powers[-1]])
    traces = []
    for rows in powers:
        diag = [row.get(i, (0, 0)) for i, row in enumerate(rows)]
        traces.append((sum(a for a, _ in diag), sum(b for _, b in diag)))
    if len(powers) == half:
        top = powers[-1]
        for k in range(half + 1, size + 1):
            other = powers[k - half - 1]
            tr_re = tr_im = 0
            for a, row in enumerate(top):
                for b, (xa, xb) in row.items():
                    y = other[b].get(a)
                    if y is not None:
                        tr_re += xa * y[0] - xb * y[1]
                        tr_im += xa * y[1] + xb * y[0]
            traces.append((tr_re, tr_im))
    # a zero power N^j leaves p_k = 0 for every k >= j
    traces += [(0, 0)] * (size - len(traces))
    coeffs = [(1, 0)]
    for k in range(1, size + 1):
        s_re = s_im = 0
        for i in range(1, k + 1):
            ca, cb = coeffs[k - i]
            pa, pb = traces[i - 1]
            s_re += ca * pa - cb * pb
            s_im += ca * pb + cb * pa
        if s_re % k or s_im % k:
            raise VerificationFailure(f"Newton's identity for c_{k} is not divisible by {k}")
        coeffs.append((-s_re // k, -s_im // k))
    return coeffs, d


# --- polynomials over the Gaussian integers ---------------------------------
#
# A polynomial is a list of Gaussian integers (a, b), leading coefficient
# first, with a nonzero leading coefficient.  A candidate root x / e is the
# pair (x, e) of a Gaussian integer x and a positive integer e.

ZiRoot = Tuple[Tuple[int, int], int]


def _zi_primitive(p: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """p times a nonzero Gaussian rational, with a positive integer leading
    coefficient and coprime integer parts."""
    la, lb = p[0]
    if lb:
        # times conj(lead): the leading coefficient becomes |lead|^2
        p = [(a * la + b * lb, b * la - a * lb) for a, b in p]
    g = math.gcd(*[v for pair in p for v in pair])
    if p[0][0] < 0:
        g = -g
    return [(a // g, b // g) for a, b in p]


def _zi_divmod(
    p: List[Tuple[int, int]], g: List[Tuple[int, int]]
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """Pseudo-division by g, whose leading coefficient c is a positive
    integer: (q, r) with c^k * p == q * g + r and deg r < deg g.  r has its
    leading zeros stripped."""
    c = g[0][0]
    q: List[Tuple[int, int]] = []
    r = list(p)
    while len(r) >= len(g):
        ta, tb = r[0]
        if ta or tb:
            # r <- c*r - lead(r) * t^(deg r - deg g) * g, which zeroes the lead
            q = [(c * a, c * b) for a, b in q] + [(ta, tb)]
            r = [(c * a, c * b) for a, b in r]
            for j, (ga, gb) in enumerate(g):
                xa, xb = r[j]
                r[j] = (xa - ta * ga + tb * gb, xb - ta * gb - tb * ga)
        else:
            q.append((0, 0))
        r = r[1:]
    while r and r[0] == (0, 0):
        r = r[1:]
    return q, r


def _squarefree_part(p: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """p / gcd(p, p') (Yun 1976), as a primitive polynomial: the product of
    the distinct linear factors of p, each once."""
    deg = len(p) - 1
    p = _zi_primitive(p)
    a, b = p, _zi_primitive([(x * (deg - k), y * (deg - k)) for k, (x, y) in enumerate(p[:-1])])
    while len(b) > 1:
        _, r = _zi_divmod(a, b)
        a, b = b, (_zi_primitive(r) if r else [])
    if b:
        return p  # a nonzero constant remainder: gcd(p, p') = 1
    # the Euclidean loop ended on a zero remainder: a is the gcd
    q, r = _zi_divmod(p, a)
    if r:
        raise VerificationFailure("polynomial is not divisible by its gcd with p'")
    return _zi_primitive(q)


def _float_root_guesses(q: List[Tuple[int, int]]) -> List[complex]:
    """Floating-point roots of q (numpy), or none when its coefficients
    overflow a double."""
    try:
        return np.roots(np.array([complex(a, b) for a, b in q], dtype=complex)).tolist()
    except (OverflowError, np.linalg.LinAlgError):
        return []


def _guessed_roots(q: List[Tuple[int, int]]) -> List[ZiRoot]:
    """Candidate roots x / a of q, as pairs (x, a): its leading coefficient a
    is a positive integer and Z[i] is integrally closed, so a*r is a
    Gaussian integer for every Gaussian-rational root r.  Each float root is
    rounded accordingly; nothing here is trusted without exact evaluation."""
    a = q[0][0]
    out = []
    for g in _float_root_guesses(q):
        x, y = a * g.real, a * g.imag
        if math.isfinite(x) and math.isfinite(y):
            out.append(((round(x), round(y)), a))
    return out


def _zi_value(q: List[Tuple[int, int]], x: Tuple[int, int], d: int) -> Tuple[int, int]:
    """d^deg * q(x / d), for a positive integer d, by Horner on the
    homogenised polynomial sum_k q_k x^(deg-k) d^k: zero exactly where
    x / d is a root of q."""
    xa, xb = x
    acc_a, acc_b = q[0]
    dk = 1
    for ca, cb in q[1:]:
        dk *= d
        acc_a, acc_b = acc_a * xa - acc_b * xb + ca * dk, acc_a * xb + acc_b * xa + cb * dk
    return acc_a, acc_b


def _zi_deflate(p: List[Tuple[int, int]], x: Tuple[int, int], d: int) -> List[Tuple[int, int]]:
    """p / (d*t - x) as a primitive polynomial, for a root x / d of p."""
    quo, rem = _zi_divmod(p, [(d, 0), (-x[0], -x[1])])
    if rem:
        raise VerificationFailure("deflation by a non-root")
    return _zi_primitive(quo)


# --- polynomials over Z/m, for the p-adic root search -----------------------
#
# A polynomial is a list of residues, leading coefficient first; a divisor
# is monic.  Over a prime m = p every nonzero residue is a unit.


def _fp_mul(a: List[int], b: List[int], p: int) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [v % p for v in out]


def _fp_sub(a: List[int], b: List[int], p: int) -> List[int]:
    n = max(len(a), len(b))
    a, b = [0] * (n - len(a)) + a, [0] * (n - len(b)) + b
    return [(x - y) % p for x, y in zip(a, b)]


def _fp_divmod(a: List[int], b: List[int], p: int) -> Tuple[List[int], List[int]]:
    """(q, r) with a == q*b + r mod p, any modulus, for a monic b and a
    reduced a; r keeps any leading zeros."""
    r, q = list(a), []
    for k in range(len(a) - len(b) + 1):
        t = r[k]
        q.append(t)
        if t:
            for j in range(1, len(b)):
                r[k + j] = (r[k + j] - t * b[j]) % p
    return q, r[len(q):]


def _fp_monic(a: List[int], p: int) -> List[int]:
    """a over GF(p) with its leading zeros stripped and made monic; [] for 0."""
    while a and a[0] % p == 0:
        a = a[1:]
    inv = pow(a[0], -1, p) if a else 0
    return [x * inv % p for x in a]


def _fp_gcd(a: List[int], b: List[int], p: int) -> List[int]:
    """The monic gcd over GF(p) of a and b, not both 0."""
    a, b = _fp_monic(a, p), _fp_monic(b, p)
    while b:
        a, b = b, _fp_monic(_fp_divmod(a, b, p)[1], p)
    return a


def _fp_powmod(base: List[int], e: int, f: List[int], p: int) -> List[int]:
    """base^e mod the monic f over GF(p), by repeated squaring."""
    out = [1]
    while e:
        if e & 1:
            out = _fp_divmod(_fp_mul(out, base, p), f, p)[1]
        base = _fp_divmod(_fp_mul(base, base, p), f, p)[1]
        e >>= 1
    return out


def _fp_roots(g: List[int], p: int) -> List[int]:
    """The roots over GF(p), p an odd prime, of the monic g, a product of
    distinct linear factors.  gcd(g, (y + c)^((p-1)/2) - 1) takes the roots r
    with r + c a nonzero square, so c = 0, 1, 2, ... in turn splits g
    (Cantor-Zassenhaus 1981): about half the c < p tell two roots apart."""
    if len(g) <= 2:
        return [-g[1] % p] if len(g) == 2 else []
    c, h = 0, g
    while len(h) in (1, len(g)):
        h = _fp_gcd(g, _fp_sub(_fp_powmod([1, c], (p - 1) // 2, g, p), [1], p), p)
        c += 1
    return _fp_roots(h, p) + _fp_roots(_fp_divmod(g, h, p)[0], p)


def _newton_step(c: List[int], r: int, m: int) -> int:
    """r - c(r) / c'(r) mod m, for a unit c'(r): c = (y - r) h + c(r) by
    Horner, and c'(r) = h(r)."""
    h, [value] = _fp_divmod(c, [1, -r], m)
    return (r - value * pow(_fp_divmod(h, [1, -r], m)[1][0], -1, m)) % m


def _zi_mod(x: Tuple[int, int], g: Tuple[int, int]) -> Tuple[int, int]:
    """x - g*round(x / g) in Z[i], each part rounded to nearest: the element
    of least norm in x + g Z[i], of norm at most N(g) / 2."""
    (xa, xb), (ga, gb) = x, g
    n = ga * ga + gb * gb
    # x / g == x * conj(g) / n
    qa = (2 * (xa * ga + xb * gb) + n) // (2 * n)
    qb = (2 * (xb * ga - xa * gb) + n) // (2 * n)
    return xa - qa * ga + qb * gb, xb - qa * gb - qb * ga


def _lifted_roots(q: List[Tuple[int, int]]) -> List[ZiRoot]:
    """Every Gaussian-rational root of the square-free q, whose leading
    coefficient a is a positive integer, as pairs (x, a), by p-adic expansion
    (Loos 1983).

    The roots of the monic Q(y) = a^(deg-1) q(y / a) are the a*r, Gaussian
    integers with |y| <= B = 1 + max |Q_k| (Cauchy).  The prime p is the
    first p = 1 (mod 4) above 2^20 where Q, with i read as a root s of
    y^2 + 1 mod p, has only simple roots mod p, so distinct roots of Q stay
    distinct mod p.  Those roots are the roots of gcd(Q, y^p - y), split by
    _fp_roots.  Newton's step lifts each of them, and s, to a root mod
    P = p^(2^k) > 8 B^2.  The u + v*i with u + v*s = 0 (mod P) are the ideal
    g Z[i], g = gcd(P, s - i) of norm P, so a root y of Q is the element of
    least norm congruent to its lifted root mod g.  g is found as in
    Cornacchia's algorithm: integer Euclid on (P, s), with r = t*s (mod P)
    for each remainder r, stops at the first r with r^2 < P, where t^2 <= P;
    r - t*i then lies in g Z[i] with norm under 2P, so it is a unit times
    g.  Only candidates where q vanishes exactly are kept.
    """
    a, deg = q[0][0], len(q) - 1
    monic = [(1, 0)] + [(re * a ** k, im * a ** k) for k, (re, im) in enumerate(q[1:])]
    bound = 1 + max(abs(re) + abs(im) for re, im in monic[1:])
    for p in itertools.count(2 ** 20 + 1, 4):
        if not all(p % k for k in range(3, math.isqrt(p) + 1, 2)):
            continue
        s = _fp_roots([1, 0, 1], p)[0]
        poly = [(re + im * s) % p for re, im in monic]
        slope = [(deg - k) * c for k, c in enumerate(poly[:-1])]
        g = _fp_gcd(poly, _fp_sub(_fp_powmod([1, 0], p, poly, p), [1, 0], p), p)
        if len(_fp_gcd(g, slope, p)) == 1:
            break
    roots, m = _fp_roots(g, p), p
    while m <= 8 * bound * bound:
        m *= m
        s = _newton_step([1, 0, 1], s, m)
        poly = [(re + im * s) % m for re, im in monic]
        roots = [_newton_step(poly, r, m) for r in roots]
    r0, r1, t0, t1, top = m, s, 0, 1, math.isqrt(m - 1)  # r^2 < m exactly when r <= top
    while r1 > top:
        quo = r0 // r1
        r0, r1, t0, t1 = r1, r0 - quo * r1, t1, t0 - quo * t1
    g = (r1, -t1)
    found = []
    for r in roots:
        x = _zi_mod((r, 0), g)
        if _zi_value(q, x, a) == (0, 0):
            found.append((x, a))
    return found


def _pure_power_root(p: List[Tuple[int, int]]) -> Optional[ZiRoot]:
    """The root x / e of p when p = c0 (t - r)^n with n = deg p >= 1, else
    None.  Such an r is -c1 / (n c0), read off the trace, and p is that
    power when c_k (n c0)^k == c0 C(n, k) c1^k for every k, compared in
    Z[i] from k = 2 up: no gcd with p' is needed."""
    n = len(p) - 1
    (a0, b0), (a1, b1) = p[0], p[1]
    ua, ub = n * a0, n * b0  # n c0
    # (n c0)^k and c0 C(n, k) c1^k, with k = 1
    pa, pb = ua, ub
    wa, wb = n * (a0 * a1 - b0 * b1), n * (a0 * b1 + b0 * a1)
    for k in range(2, n + 1):
        pa, pb = pa * ua - pb * ub, pa * ub + pb * ua
        wa, wb = wa * a1 - wb * b1, wa * b1 + wb * a1
        wa, wb = wa * (n - k + 1) // k, wb * (n - k + 1) // k
        ca, cb = p[k]
        if (ca * pa - cb * pb, ca * pb + cb * pa) != (wa, wb):
            return None
    # -c1 / (n c0) == -c1 conj(c0) / (n |c0|^2)
    return (-a1 * a0 - b1 * b0, a1 * b0 - b1 * a0), n * (a0 * a0 + b0 * b0)


def _sorted_runs(runs: Sequence[Tuple[GaussianRational, int]]) -> List[Tuple[GaussianRational, int]]:
    """The runs in scalar_key order of their roots, stably sorted.  The key
    is a root's (re, im) numerators over the lcm of the roots' denominators,
    which orders the roots as scalar_key's Fractions do.  scalar_key itself
    is not the key: it reads .re and .im, which build Fractions, and the
    exact routes build none (test_exact_routes_build_no_fraction)."""
    d = math.lcm(*[x.d for x, _ in runs])
    return sorted(runs, key=lambda run: (run[0].a * (d // run[0].d), run[0].b * (d // run[0].d)))


def _poly_roots_exact(p: List[Tuple[int, int]], scale: int = 1) -> List[Tuple[GaussianRational, int]]:
    """The distinct roots of the Gaussian-integer polynomial p (leading
    coefficient first), each divided by the positive integer scale, as
    (root, multiplicity) runs sorted by scalar_key (equal keys in the order
    found), or raise.
    eigenvalues passes char_poly's (c, d), which turns the roots of
    det(sI - N) into those of det(tI - M).

    Zero roots are stripped first.  When p is a pure power c0 (t - r)^n,
    found by _pure_power_root, r = -c1 / (n c0) is read off the trace with
    multiplicity n: no gcd, float guess, deflation or lifting.  Otherwise,
    with the square-free part q = p / gcd(p, p'): guess, then verify.  Float
    roots of q, rounded to Gaussian rationals x / e, are kept only where the
    homogenised integer Horner value e^deg p(x / e) vanishes, and
    pseudo-division by e*t - x reads off each multiplicity.  When a root is
    left, _lifted_roots gives every Gaussian-rational root of q, and
    ExactFactorizationFailure is raised only when p still has a factor with
    none.  Each distinct root is built once, as one Gaussian rational
    x / (e*scale).
    """
    n = len(p)
    while len(p) > 1 and p[-1] == (0, 0):
        p = p[:-1]
    runs = [(GR_ZERO, n - len(p))] if len(p) < n else []
    if len(p) == 1:
        return _sorted_runs(runs)
    root = _pure_power_root(p)
    if root is not None:
        (xa, xb), e = root
        return _sorted_runs(runs + [(_gr_over(xa, xb, e * scale), len(p) - 1)])
    q = _squarefree_part(p)

    def take(candidates: Sequence[ZiRoot]):
        """Deflate p by each candidate x / e while it stays a root."""
        nonlocal p
        for x, e in candidates:
            k = 0
            while len(p) > 1 and _zi_value(p, x, e) == (0, 0):
                p = _zi_deflate(p, x, e)
                k += 1
            if k:
                runs.append((_gr_over(x[0], x[1], e * scale), k))

    take(_guessed_roots(q))
    if len(p) > 1:
        take(_lifted_roots(q))
    if len(p) > 1:
        raise ExactFactorizationFailure(
            "characteristic polynomial has no Gaussian-rational root"
        )
    return _sorted_runs(runs)


def eigenvalues(m: Matrix, tol: Optional[float] = None) -> EigenRuns:
    """The distinct eigenvalues with their multiplicities, as (value,
    multiplicity) runs in scalar_key order; the multiplicities sum to the
    size of m.

    Exact backend: char_poly gives the Gaussian-integer polynomial
    det(sI - N) of N = d*M, and _poly_roots_exact the runs of its roots
    divided by d.  A pure power is read off its trace
    directly; otherwise float guesses for the roots of the square-free
    part are verified by exact evaluation and deflated as often as they
    stay roots, and p-adic lifting finds every root the guesses missed.
    Raises ExactFactorizationFailure exactly when the polynomial does not
    split over the Gaussian rationals.  Float backend: numpy eigenvalues
    in (re, im) order; one within TAU_CHAR (after unit max-norm scaling) of
    the first value of the current run is counted in that run.
    """
    _check_square(m)
    if m.rows == 0:
        return []
    if m.backend == EXACT:
        return _poly_roots_exact(*char_poly(m))
    scale = m.maxnorm()
    if scale == 0.0:
        return [(0j, m.rows)]
    arr = np.array([[m.at(i, j) for j in range(m.cols)] for i in range(m.rows)], dtype=complex)
    vals = sorted(np.linalg.eigvals(arr).tolist(), key=lambda z: (z.real, z.imag))
    thr = (TAU_CHAR if tol is None else tol) * scale
    runs: EigenRuns = []
    for v in vals:
        if runs and abs(v - runs[-1][0]) <= thr:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((v, 1))
    return runs
