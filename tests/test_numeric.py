"""Scalar and matrix kernel tests, both backends.

Expected ranks and kernels below were computed by hand (2x2 and 3x3 cases)
and double-checked against the plain Fraction Gauss elimination oracle in
_oracle_rank, which shares no code with the implementation.
"""

import random
from fractions import Fraction

import pytest

from liespec import numeric as nm
from liespec.numeric import (
    EXACT,
    FLOAT,
    ExactFactorizationFailure,
    GaussianRational,
    Matrix,
    gr,
    identity,
    matrix_from_rows,
    scalar_from_text,
    scalar_to_text,
)


def _oracle_rank(rows):
    """Independent rank check over plain complex Fractions: naive Gauss
    elimination with exact arithmetic, no pivot strategy."""
    grid = [[complex(x) for x in r] for r in rows]
    if not grid:
        return 0
    nr, nc = len(grid), len(grid[0])
    rank = 0
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if abs(grid[i][c]) > 1e-12), None)
        if piv is None:
            continue
        grid[rank], grid[piv] = grid[piv], grid[rank]
        for i in range(nr):
            if i != rank and abs(grid[i][c]) > 1e-12:
                f = grid[i][c] / grid[rank][c]
                grid[i] = [a - f * b for a, b in zip(grid[i], grid[rank])]
        rank += 1
    return rank


def exact_mat(rows):
    return matrix_from_rows([[gr(Fraction(x)) if not isinstance(x, GaussianRational) else x
                              for x in r] for r in rows], EXACT)


def float_mat(rows):
    return matrix_from_rows([[complex(x) for x in r] for r in rows], FLOAT)


# --- scalars ----------------------------------------------------------------


def test_gaussian_rational_field_ops():
    a = gr(Fraction(1, 2), Fraction(3, 4))
    b = gr(2, -1)
    assert a + b == gr(Fraction(5, 2), Fraction(-1, 4))
    assert a * b == gr(Fraction(7, 4), 1)  # (1/2+3/4i)(2-i) = 1+3/4 + (3/2-1/2)i
    assert (a / b) * b == a
    assert -a + a == nm.GR_ZERO
    with pytest.raises(ZeroDivisionError):
        a / nm.GR_ZERO


def test_scalar_text_round_trip():
    cases = ["0", "2", "-1", "1/2", "-3/4", "i", "-i", "2i", "1/2+3/4i", "1/2-3/4i", "-1/2+i"]
    for text in cases:
        assert scalar_to_text(scalar_from_text(text)) == text


def test_scalar_text_canonicalizes():
    assert scalar_to_text(scalar_from_text("2/4")) == "1/2"
    assert scalar_to_text(scalar_from_text("0/5")) == "0"
    assert scalar_to_text(scalar_from_text("+1i")) == "i"
    assert scalar_to_text(gr(0, -1)) == "-i"


def test_scalar_text_rejects_garbage():
    for bad in ["", "x", "1+", "i2", "1//2", "1/2+3/4j", "2 + 2"]:
        with pytest.raises(ValueError):
            scalar_from_text(bad)


# --- rank and kernels ---------------------------------------------------------


def test_rank_rank_one_matrix():
    rows = [[1, 2], [2, 4]]
    assert nm.rank(exact_mat(rows)) == 1
    assert nm.rank(float_mat(rows)) == 1
    assert _oracle_rank(rows) == 1


def test_rank_identity_and_zero():
    assert nm.rank(identity(4, EXACT)) == 4
    assert nm.rank(nm.zeros(3, 5, EXACT)) == 0
    assert nm.rank(nm.zeros(3, 5, FLOAT)) == 0
    assert nm.rank(Matrix(0, 3, (), EXACT)) == 0
    assert nm.rank(Matrix(3, 0, (), FLOAT)) == 0


def test_rank_gaussian_entries():
    # [[1, i], [i, -1]] has rank 1 since row2 = i * row1
    rows = [[gr(1), gr(0, 1)], [gr(0, 1), gr(-1)]]
    assert nm.rank(matrix_from_rows(rows, EXACT)) == 1
    assert nm.rank(float_mat([[1, 1j], [1j, -1]])) == 1


def test_rank_agrees_with_oracle_on_fixed_grid():
    grids = [
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[1, 0, 2], [0, 1, 3], [1, 1, 5]],
        [[2, 4], [1, 2], [3, 6]],
        [[0, 0], [0, 0]],
        [[1, 2, 3, 4]],
    ]
    for rows in grids:
        want = _oracle_rank(rows)
        assert nm.rank(exact_mat(rows)) == want
        assert nm.rank(float_mat(rows)) == want


def test_float_rank_tolerance_is_relative():
    # 1e-6 noise on a unit-scale matrix is above TAU, so full rank; the
    # same matrix scaled by 1e-30 must keep its rank under the relative rule.
    noisy = [[1.0, 0.0], [0.0, 1e-6]]
    assert nm.rank(float_mat(noisy)) == 2
    tiny = [[1e-30, 0.0], [0.0, 1e-36]]
    assert nm.rank(float_mat(tiny)) == 2
    # an explicit looser tolerance kills the small pivot
    assert nm.rank(float_mat(noisy), tol=1e-3) == 1


def test_nullspace_rank_one():
    m = exact_mat([[1, 2], [2, 4]])
    basis = nm.nullspace_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert (m * v).is_zero()
    # echelon convention: free coordinate set to 1
    assert v.at(1, 0) == nm.GR_ONE
    assert v.at(0, 0) == gr(-2)


def test_nullspace_zero_map_and_full_rank():
    z = nm.zeros(2, 3, FLOAT)
    basis = nm.nullspace_basis(z)
    assert len(basis) == 3
    assert not nm.nullspace_basis(identity(3, EXACT))
    empty = Matrix(0, 2, (), EXACT)
    assert len(nm.nullspace_basis(empty)) == 2


def test_solve_matrix_consistent_and_inconsistent():
    a = exact_mat([[1, 2], [3, 4]])
    b = exact_mat([[5], [11]])
    x = nm.solve_matrix(a, b)
    assert x is not None and (a * x - b).is_zero()
    sing = exact_mat([[1, 2], [2, 4]])
    assert nm.solve_matrix(sing, exact_mat([[1], [0]])) is None
    # underdetermined: still a valid solution, free vars pinned to zero
    wide = exact_mat([[1, 1, 1]])
    x2 = nm.solve_matrix(wide, exact_mat([[3]]))
    assert x2 is not None and (wide * x2 - exact_mat([[3]])).is_zero()


def test_inverse_round_trip():
    m = exact_mat([[1, 2], [3, 5]])
    inv = nm.inverse(m)
    assert (m * inv - identity(2, EXACT)).is_zero()
    mf = float_mat([[2, 1], [1, 1]])
    assert (mf * nm.inverse(mf) - identity(2, FLOAT)).is_zero(1e-12)
    with pytest.raises(ZeroDivisionError):
        nm.inverse(exact_mat([[1, 2], [2, 4]]))


def test_intersect_subspaces_standard_planes():
    # span{e1,e2} & span{e2,e3} = span{e2} in C^3
    e = [nm.col_vector([gr(int(i == j)) for i in range(3)], EXACT) for j in range(3)]
    got = nm.intersect_subspaces([e[0], e[1]], [e[1], e[2]])
    assert len(got) == 1
    assert tuple(got[0].entries) == (gr(0), gr(1), gr(0))


def test_intersect_subspaces_disjoint_and_nested():
    e = [nm.col_vector([gr(int(i == j)) for i in range(4)], EXACT) for j in range(4)]
    assert nm.intersect_subspaces([e[0]], [e[1]]) == []
    nested = nm.intersect_subspaces([e[0], e[1], e[2]], [e[1]])
    assert len(nested) == 1
    assert tuple(nested[0].entries) == (gr(0), gr(1), gr(0), gr(0))


def test_echelon_vectors_canonical_for_equal_spans():
    a = nm.echelon_vectors([[gr(1), gr(2)], [gr(0), gr(1)]], EXACT)
    b = nm.echelon_vectors([[gr(3), gr(7)], [gr(1), gr(3)]], EXACT)
    assert a == b == ((gr(1), gr(0)), (gr(0), gr(1)))


# --- eigenvalues ----------------------------------------------------------------


def test_eigenvalues_diagonal():
    m = exact_mat([[2, 0], [0, 3]])
    assert nm.eigenvalues(m) == [gr(2), gr(3)]
    mf = float_mat([[2, 0], [0, 3]])
    vals = nm.eigenvalues(mf)
    assert vals[0] == pytest.approx(2) and vals[1] == pytest.approx(3)


def test_eigenvalues_nilpotent_multiplicity():
    m = exact_mat([[0, 1], [0, 0]])
    assert nm.eigenvalues(m) == [nm.GR_ZERO, nm.GR_ZERO]


def test_eigenvalues_rotation_gives_gaussian_pair():
    m = exact_mat([[0, -1], [1, 0]])
    assert nm.eigenvalues(m) == [gr(0, -1), gr(0, 1)]


def test_eigenvalues_irrational_raises_exact_only():
    # t^2 + t + 1: roots are primitive cube roots of unity, not Gaussian
    m = exact_mat([[0, -1], [1, -1]])
    with pytest.raises(ExactFactorizationFailure):
        nm.eigenvalues(m)
    vals = nm.eigenvalues(m.to_float())
    assert len(vals) == 2
    assert vals[0] == pytest.approx(complex(-0.5, -3 ** 0.5 / 2))


def test_eigenvalues_rational_entries():
    m = exact_mat([[Fraction(1, 2), 0], [5, Fraction(1, 2)]])
    assert nm.eigenvalues(m) == [gr(Fraction(1, 2)), gr(Fraction(1, 2))]


def test_float_eigenvalue_dedup_snaps_cluster():
    mf = float_mat([[1.0, 0.0], [0.0, 1.0 + 1e-9]])
    vals = nm.eigenvalues(mf)
    assert vals[0] == vals[1]


def test_char_poly_matches_trace_and_det():
    m = exact_mat([[1, 2], [3, 4]])
    # t^2 - 5t - 2
    coeffs = nm.char_poly(m)
    assert coeffs == [gr(1), gr(-5), gr(-2)]


# --- matrix algebra ----------------------------------------------------------


def test_matmul_and_stacking():
    a = exact_mat([[1, 2], [3, 4]])
    b = exact_mat([[0, 1], [1, 0]])
    assert (a * b).to_lists() == exact_mat([[2, 1], [4, 3]]).to_lists()
    h = nm.hstack([a, b])
    assert (h.rows, h.cols) == (2, 4)
    v = nm.vstack([a, b])
    assert (v.rows, v.cols) == (4, 2)
    assert a.transpose().to_lists() == exact_mat([[1, 3], [2, 4]]).to_lists()


# --- the exact Gaussian-integer kernel against a naive Fraction reference -------
#
# The reference works on (Fraction, Fraction) pairs with schoolbook complex
# arithmetic and plain Gauss-Jordan (first nonzero pivot, divide, subtract),
# sharing no code with the library.  Reduced echelon forms are unique and
# products are exact, so the library must agree entry by entry.


def _c_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _c_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _c_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


_C_ZERO = (Fraction(0), Fraction(0))
_C_ONE = (Fraction(1), Fraction(0))


def _ref_mul(x, y, inner, cols):
    out = []
    for row in x:
        out_row = []
        for j in range(cols):
            acc = _C_ZERO
            for k in range(inner):
                p = _c_mul(row[k], y[k][j])
                acc = (acc[0] + p[0], acc[1] + p[1])
            out_row.append(acc)
        out.append(out_row)
    return out


def _ref_rref(rows, ncols):
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != _C_ZERO), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        rows[r] = [_c_div(x, lead) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != _C_ZERO:
                f = rows[i][c]
                rows[i] = [_c_sub(a, _c_mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[: len(pivots)], pivots


def _ref_nullspace(rows, ncols):
    ech, pivots = _ref_rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [_C_ZERO] * ncols
        v[free] = _C_ONE
        for r, pc in enumerate(pivots):
            v[pc] = (-ech[r][free][0], -ech[r][free][1])
        basis.append(v)
    return basis


def _ref_solve(a, b, acols, bcols):
    ech, pivots = _ref_rref([ra + rb for ra, rb in zip(a, b)], acols + bcols)
    if any(pc >= acols for pc in pivots):
        return None
    out = [[_C_ZERO] * bcols for _ in range(acols)]
    for r, pc in enumerate(pivots):
        out[pc] = ech[r][acols:]
    return out


def _pairs(m):
    return [[(x.re, x.im) for x in m.row(i)] for i in range(m.rows)]


def _to_exact(rows, cols):
    return matrix_from_rows([[gr(*x) for x in r] for r in rows], EXACT, cols=cols)


_KINDS = ("int", "frac", "imag", "mixed", "zero")


def _entry(rng, kind):
    if kind == "zero" or rng.random() < 0.4:
        return _C_ZERO
    num = lambda: rng.randint(-4, 4)
    if kind == "int":
        return (Fraction(num()), Fraction(0))
    if kind == "frac":
        return (Fraction(num(), rng.randint(1, 7)), Fraction(0))
    if kind == "imag":
        return (Fraction(0), Fraction(num(), rng.choice([1, 1, 2, 3])))
    return (Fraction(num(), rng.randint(1, 5)), Fraction(num(), rng.randint(1, 5)))


def _rand(rng, rows, cols, kind):
    return [[_entry(rng, kind) for _ in range(cols)] for _ in range(rows)]


def _rand_deficient(rng, rows, cols, kind):
    """rows x cols of rank at most min(rows, cols) - 1 (when that is >= 0)."""
    inner = max(min(rows, cols) - 1, 0)
    return _ref_mul(_rand(rng, rows, inner, kind), _rand(rng, inner, cols, kind), inner, cols)


def _cases(seed, count, max_dim=5):
    rng = random.Random(seed)
    for t in range(count):
        kind = _KINDS[t % len(_KINDS)]
        rows, cols = rng.randint(0, max_dim), rng.randint(0, max_dim)
        make = _rand_deficient if t % 3 == 1 else _rand
        yield rng, kind, rows, cols, make(rng, rows, cols, kind)


def test_exact_product_matches_fraction_reference():
    for rng, kind, rows, inner, x in _cases(11, 300):
        cols = rng.randint(0, 5)
        y = _rand(rng, inner, cols, kind)
        got = _to_exact(x, inner) * _to_exact(y, cols)
        assert (got.rows, got.cols) == (rows, cols)
        assert _pairs(got) == _ref_mul(x, y, inner, cols), (kind, x, y)


def test_exact_nullspace_and_echelon_match_fraction_reference():
    for _, kind, rows, cols, x in _cases(12, 300):
        m = _to_exact(x, cols)
        got = [[(v.at(i, 0).re, v.at(i, 0).im) for i in range(cols)] for v in nm.nullspace_basis(m)]
        assert got == _ref_nullspace(x, cols), (kind, x)
        ech = nm.echelon_vectors([[gr(*e) for e in r] for r in x], EXACT)
        want, pivots = _ref_rref(x, cols)
        assert [[(e.re, e.im) for e in r] for r in ech] == want, (kind, x)
        assert nm.pivot_positions([[gr(*e) for e in r] for r in x], EXACT) == pivots


def test_exact_inverse_matches_fraction_reference():
    singular = 0
    for _, kind, n, _, x in _cases(13, 300):
        x = [r[:n] + [_C_ZERO] * (n - len(r)) for r in x]
        ident = [[_C_ONE if i == j else _C_ZERO for j in range(n)] for i in range(n)]
        want = _ref_solve(x, ident, n, n)
        ech, pivots = _ref_rref(x, n)
        if len(pivots) < n:
            singular += 1
            with pytest.raises(ZeroDivisionError):
                nm.inverse(_to_exact(x, n))
            continue
        assert _pairs(nm.inverse(_to_exact(x, n))) == want, (kind, x)
    assert 0 < singular < 300


def test_exact_solve_matrix_matches_fraction_reference():
    outcomes = set()
    for rng, kind, rows, cols, a in _cases(14, 300):
        bcols = rng.randint(0, 3)
        if rng.random() < 0.5:  # consistent by construction
            b = _ref_mul(a, _rand(rng, cols, bcols, kind), cols, bcols)
        else:
            b = _rand(rng, rows, bcols, "mixed")
        got = nm.solve_matrix(_to_exact(a, cols), _to_exact(b, bcols))
        want = _ref_solve(a, b, cols, bcols)
        outcomes.add(want is None)
        if want is None:
            assert got is None, (kind, a, b)
        else:
            assert got is not None and (got.rows, got.cols) == (cols, bcols)
            assert _pairs(got) == want, (kind, a, b)
    assert outcomes == {True, False}


def test_shape_and_deflation_checks_raise_typed_errors():
    a = exact_mat([[1, 2], [3, 4]])
    b = exact_mat([[1, 2, 3]])
    for op in (lambda: a * b, lambda: a + b, lambda: a - b):
        with pytest.raises(nm.VerificationFailure):
            op()
    with pytest.raises(nm.VerificationFailure):
        nm._poly_deflate([gr(1), gr(0), gr(-1)], gr(2))  # 2 is no root of t^2 - 1
    assert issubclass(nm.VerificationFailure, RuntimeError)
