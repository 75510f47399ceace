"""Scalar and matrix kernel tests, both backends.

Expected ranks and kernels below were computed by hand (2x2 and 3x3 cases)
and double-checked against the plain Fraction Gauss elimination oracle in
_oracle_rank, which shares no code with the implementation.
"""

import copy
import math
import pickle
import random
from dataclasses import dataclass
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


def test_zero_threshold_scales_only_on_float():
    def unused():
        raise AssertionError("scale read on the exact backend")

    assert nm.zero_threshold(EXACT, None, unused) == 0.0
    assert nm.zero_threshold(EXACT, 1e-3, unused) == 0.0
    assert nm.zero_threshold(FLOAT, None, lambda: 4.0) == nm.TAU * 4.0
    assert nm.zero_threshold(FLOAT, 1e-3, lambda: 4.0) == 1e-3 * 4.0


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
    v = nm.nullspace_basis(m)
    assert (v.rows, v.cols) == (2, 1)
    assert (m * v).is_zero()
    # echelon convention: free coordinate set to 1
    assert v.at(1, 0) == nm.GR_ONE
    assert v.at(0, 0) == gr(-2)


def test_nullspace_zero_map_and_full_rank():
    z = nm.zeros(2, 3, FLOAT)
    basis = nm.nullspace_basis(z)
    assert (basis.rows, basis.cols) == (3, 3)
    injective = nm.nullspace_basis(identity(3, EXACT))
    assert (injective.rows, injective.cols) == (3, 0)
    empty = Matrix(0, 2, (), EXACT)
    assert nm.nullspace_basis(empty).cols == 2


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


def test_float_solve_matrix_checks_its_residual():
    a = float_mat([[1, 2], [2, 4.000001]])
    x = nm.solve_matrix(a, float_mat([[3], [6.000001]]))
    assert x is not None and (a * x - float_mat([[3], [6.000001]])).is_zero(1e-9)
    sing = float_mat([[1, 2], [2, 4]])
    assert nm.solve_matrix(sing, float_mat([[1], [0]])) is None
    assert nm.solve_matrix(sing, float_mat([[1], [2]])) is not None


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
    e12 = exact_mat([[1, 0], [0, 1], [0, 0]])
    e23 = exact_mat([[0, 0], [1, 0], [0, 1]])
    got = nm.intersect_subspaces(e12, e23)
    assert (got.rows, got.cols) == (3, 1)
    assert tuple(got.entries) == (gr(0), gr(1), gr(0))


def test_intersect_subspaces_disjoint_and_nested():
    def units(*js):
        return exact_mat([[int(i == j) for j in js] for i in range(4)])

    disjoint = nm.intersect_subspaces(units(0), units(1))
    assert (disjoint.rows, disjoint.cols) == (4, 0)
    nested = nm.intersect_subspaces(units(0, 1, 2), units(1))
    assert (nested.rows, nested.cols) == (4, 1)
    assert tuple(nested.entries) == (gr(0), gr(1), gr(0), gr(0))


def test_echelon_vectors_canonical_for_equal_spans():
    a = nm.echelon_vectors([[gr(1), gr(2)], [gr(0), gr(1)]], EXACT)[0]
    b = nm.echelon_vectors([[gr(3), gr(7)], [gr(1), gr(3)]], EXACT)[0]
    assert a == b == ((gr(1), gr(0)), (gr(0), gr(1)))


# --- eigenvalues ----------------------------------------------------------------


def _multiset(runs):
    """The values of (value, multiplicity) runs, each repeated by its multiplicity."""
    return [v for v, k in runs for _ in range(k)]


def test_eigenvalues_diagonal():
    m = exact_mat([[2, 0], [0, 3]])
    assert _multiset(nm.eigenvalues(m)) == [gr(2), gr(3)]
    mf = float_mat([[2, 0], [0, 3]])
    vals = _multiset(nm.eigenvalues(mf))
    assert vals[0] == pytest.approx(2) and vals[1] == pytest.approx(3)


def test_eigenvalues_nilpotent_multiplicity():
    m = exact_mat([[0, 1], [0, 0]])
    assert _multiset(nm.eigenvalues(m)) == [nm.GR_ZERO, nm.GR_ZERO]


def test_eigenvalues_rotation_gives_gaussian_pair():
    m = exact_mat([[0, -1], [1, 0]])
    assert _multiset(nm.eigenvalues(m)) == [gr(0, -1), gr(0, 1)]


def test_eigenvalues_irrational_raises_exact_only():
    # t^2 + t + 1: roots are primitive cube roots of unity, not Gaussian
    m = exact_mat([[0, -1], [1, -1]])
    with pytest.raises(ExactFactorizationFailure):
        nm.eigenvalues(m)
    vals = _multiset(nm.eigenvalues(m.to_float()))
    assert len(vals) == 2
    assert vals[0] == pytest.approx(complex(-0.5, -3 ** 0.5 / 2))


def test_eigenvalues_rational_entries():
    m = exact_mat([[Fraction(1, 2), 0], [5, Fraction(1, 2)]])
    assert _multiset(nm.eigenvalues(m)) == [gr(Fraction(1, 2)), gr(Fraction(1, 2))]


def test_eigenvalues_are_distinct_runs_in_scalar_key_order():
    from liespec import lab

    mats = [m for backend in (EXACT, FLOAT) for fix in lab.catalog(backend) for m in fix.rep.mats]
    mats += [m for s in range(12) for m in lab.random_nilpotent_rep(s, ("H3", "F4", "Z3")[s % 3], 7).mats]
    for m in mats:
        runs = nm.eigenvalues(m)
        values = [v for v, _ in runs]
        assert all(k >= 1 for _, k in runs) and sum(k for _, k in runs) == m.rows
        assert len(set(map(nm.scalar_key, values))) == len(values)
        assert values == sorted(values, key=nm.scalar_key)
    # a float cluster is one run, counted on its first value
    assert nm.eigenvalues(float_mat([[1.0, 0.0], [0.0, 1.0 + 1e-9]])) == [(1 + 0j, 2)]
    assert nm.eigenvalues(float_mat([[0, 0], [0, 0]])) == [(0j, 2)]


def test_scalar_key_orders_exact_values_past_the_double_range():
    huge = 10 ** 400
    want = [gr(-huge), gr(-huge, 1), gr(0, -huge), gr(0), gr(Fraction(1, huge)), gr(Fraction(1, huge), 1),
            gr(3), gr(huge)]
    values = want[::-1][1::2] + want[::-1][::2]
    assert sorted(values, key=nm.scalar_key) == want
    assert nm._sorted_runs([(x, k) for k, x in enumerate(values)]) == sorted(
        [(x, k) for k, x in enumerate(values)], key=lambda run: nm.scalar_key(run[0]))


def test_float_eigenvalue_dedup_snaps_cluster():
    mf = float_mat([[1.0, 0.0], [0.0, 1.0 + 1e-9]])
    vals = _multiset(nm.eigenvalues(mf))
    assert vals[0] == vals[1]


def _char_poly_of(m):
    """det(tI - M), leading first: c_k / d^k from char_poly's (c, d)."""
    coeffs, d = nm.char_poly(m)
    return [nm._gr_over(a, b, d ** k) for k, (a, b) in enumerate(coeffs)]


def test_char_poly_matches_trace_and_det():
    m = exact_mat([[1, 2], [3, 4]])
    # t^2 - 5t - 2
    coeffs = _char_poly_of(m)
    assert coeffs == [gr(1), gr(-5), gr(-2)]


# --- exact root search: guess, verify, p-adic lifting fallback ----------------


def _poly_from_factors(factors):
    """Coefficients, leading first, of the product of (d*t - c)^k over
    (d, c, k) with Gaussian-integer d != 0 and c, given as (re, im) pairs."""
    poly = [gr(1)]
    for (da, db), (ca, cb), k in factors:
        d, c = gr(da, db), gr(ca, cb)
        for _ in range(k):
            shifted = poly + [nm.GR_ZERO]
            poly = [d * shifted[0]] + [d * shifted[j] - c * poly[j - 1] for j in range(1, len(shifted))]
    return poly


def _known_roots(factors):
    return sorted(
        (gr(ca, cb) / gr(da, db) for (da, db), (ca, cb), k in factors for _ in range(k)),
        key=nm.scalar_key,
    )


def _root_cases():
    rng = random.Random(1976)
    cases = [[((2, 0), (1, 0), 12), ((1, 0), (0, -1), 12)]]  # (2t - 1)^12 (t + i)^12
    for _ in range(40):
        factors = []
        for _ in range(rng.randint(1, 4)):
            d = (0, 0)
            while d == (0, 0):
                d = (rng.randint(-3, 3), rng.randint(-3, 3))
            c = (rng.randint(-5, 5), rng.randint(-5, 5))
            factors.append((d, c, rng.choice((1, 1, 2, 3, 5, 24))))
        cases.append(factors)
    return cases


def test_poly_roots_exact_on_products_of_linear_powers():
    for factors in _root_cases():
        roots = _multiset(nm._poly_roots_exact(nm._clear_denominators(_poly_from_factors(factors))[0]))
        assert sorted(roots, key=nm.scalar_key) == _known_roots(factors), factors


def test_poly_roots_exact_fallback_gives_the_same_roots(monkeypatch):
    # every float guess is junk, so each root comes from the p-adic lifting
    monkeypatch.setattr(nm, "_float_root_guesses", lambda q: [complex(1e6 + 0.5, -3.25)] * (len(q) - 1))
    for factors in _root_cases():
        roots = _multiset(nm._poly_roots_exact(nm._clear_denominators(_poly_from_factors(factors))[0]))
        assert sorted(roots, key=nm.scalar_key) == _known_roots(factors), factors


@pytest.mark.parametrize("junk_guesses", [False, True])
def test_poly_roots_exact_raises_without_gaussian_root(monkeypatch, junk_guesses):
    if junk_guesses:
        monkeypatch.setattr(nm, "_float_root_guesses", lambda q: [])
    with pytest.raises(ExactFactorizationFailure):
        nm._poly_roots_exact(nm._clear_denominators([gr(1), gr(0), gr(-2)])[0])  # t^2 - 2


def test_roots_beyond_double_precision_are_found_exactly():
    # a rounded double misses these roots
    big = 10 ** 30
    assert _multiset(nm.eigenvalues(Matrix(1, 1, (gr(big),), EXACT))) == [gr(big)]
    assert _multiset(nm._poly_roots_exact(nm._clear_denominators([gr(1), gr(10 ** 300)])[0])) == [gr(-10 ** 300)]
    diag = exact_mat([[big, 0], [0, 2 * big + 7]])
    assert _multiset(nm.eigenvalues(diag)) == [gr(big), gr(2 * big + 7)]
    diag3 = exact_mat([[big, 0, 0], [0, 2 * big + 7, 0], [0, 0, -3 * big + 11]])
    assert _multiset(nm.eigenvalues(diag3)) == [gr(-3 * big + 11), gr(big), gr(2 * big + 7)]


def test_constant_term_with_many_divisors_raises_no_gaussian_rational_root():
    # t^2 - 9999990: a divisor search would try about 10^7 candidates
    with pytest.raises(ExactFactorizationFailure, match="no Gaussian-rational root"):
        nm._poly_roots_exact(nm._clear_denominators([gr(1), gr(0), gr(-9999990)])[0])



def test_close_roots_with_long_coefficients_are_found_exactly():
    # the float guesses miss these roots by more than their rounding step
    roots = [gr(Fraction(9999, 10)), gr(Fraction(9999999, 10000)), gr(Fraction(999999999, 1000000))]
    for superdiagonal in (0, 1):
        rows = [[roots[i] if i == j else gr(superdiagonal if j == i + 1 else 0) for j in range(3)]
                for i in range(3)]
        assert nm.eigenvalues(exact_mat(rows)) == [(r, 1) for r in roots]


# 1048589 is the first prime = 1 (mod 4) above 2^20, the first the lifting tries
_FIRST_PRIME = 1048589


def test_lifting_moves_past_a_prime_where_two_roots_meet(monkeypatch):
    primes = []
    fp_roots = nm._fp_roots

    def spy(g, p):
        primes.append(p)
        return fp_roots(g, p)

    monkeypatch.setattr(nm, "_fp_roots", spy)
    # 1 + 2i and 1 + 2i + 1048589 are one root mod 1048589, a double one
    factors = [((1, 0), (1, 2), 1), ((1, 0), (1 + _FIRST_PRIME, 2), 1)]
    q = nm._clear_denominators(_poly_from_factors(factors))[0]
    found = [nm._gr_over(*x, a) for x, a in nm._lifted_roots(q)]
    assert sorted(found, key=nm.scalar_key) == _known_roots(factors)
    assert primes[0] == _FIRST_PRIME and primes[-1] > _FIRST_PRIME


def test_lifting_finds_large_non_real_roots_over_a_leading_coefficient(monkeypatch):
    monkeypatch.setattr(nm, "_float_root_guesses", lambda q: [])
    # (3t - 10^40 - 7i)^2 (5t + 2 - 10^35 i)
    factors = [((3, 0), (10 ** 40, 7), 2), ((5, 0), (-2, 10 ** 35), 1)]
    p = nm._clear_denominators(_poly_from_factors(factors))[0]
    assert p[0] == (45, 0)
    assert _multiset(nm._poly_roots_exact(p)) == _known_roots(factors)


@pytest.mark.parametrize("c, spurious", [(2, 0), (5, 2)])
def test_lifting_keeps_only_roots_that_evaluate_to_zero(monkeypatch, c, spurious):
    monkeypatch.setattr(nm, "_float_root_guesses", lambda q: [])
    # (2t - 3 - 5i)(t^2 - c): 5 is a square mod 1048589 and 2 is not, so only
    # t^2 - 5 has roots there, whose lifts are no roots of q
    assert pow(c, (_FIRST_PRIME - 1) // 2, _FIRST_PRIME) == (1 if spurious else _FIRST_PRIME - 1)
    q = [(2, 0), (-3, -5), (-2 * c, 0), (3 * c, 5 * c)]
    tried = []
    zi_value = nm._zi_value

    def spy(p, x, d):
        tried.append(x)
        return zi_value(p, x, d)

    monkeypatch.setattr(nm, "_zi_value", spy)
    assert nm._lifted_roots(q) == [((3, 5), 2)]
    assert len(tried) == 1 + spurious
    with pytest.raises(ExactFactorizationFailure, match="no Gaussian-rational root"):
        nm._poly_roots_exact(q)


# --- matrix algebra ----------------------------------------------------------


def test_matmul_and_stacking():
    a = exact_mat([[1, 2], [3, 4]])
    b = exact_mat([[0, 1], [1, 0]])
    assert (a * b).to_lists() == exact_mat([[2, 1], [4, 3]]).to_lists()
    h = nm.hstack([a, b])
    assert (h.rows, h.cols) == (2, 4)
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
        k = nm.nullspace_basis(m)
        assert k.rows == cols
        got = [[(k.at(i, t).re, k.at(i, t).im) for i in range(cols)] for t in range(k.cols)]
        assert got == _ref_nullspace(x, cols), (kind, x)
        ech, ech_pivots = nm.echelon_vectors([[gr(*e) for e in r] for r in x], EXACT)
        want, pivots = _ref_rref(x, cols)
        assert [[(e.re, e.im) for e in r] for r in ech] == want, (kind, x)
        assert list(ech_pivots) == pivots


def test_exact_pivot_columns_match_fraction_reference_positions():
    for _, kind, rows, cols, x in _cases(15, 300):
        m = _to_exact(x, cols)
        pivots = _ref_rref(x, cols)[1]
        assert nm._pivot_columns(m, None) == pivots, (kind, x)
        assert nm.rank(m) == len(pivots)


def test_exact_rank_eliminates_below_pivots_only(monkeypatch):
    # an upper triangular matrix with a nonzero diagonal is an echelon form
    # already: forward elimination hands its rows back as they are
    rng = random.Random(16)
    for n in range(1, 6):
        x = [[_entry(rng, "mixed") if j > i else (Fraction(j + 1), Fraction(1)) if j == i else _C_ZERO
              for j in range(n)] for i in range(n)]
        form = nm.zi_form(_to_exact(x, n))[0]
        rows, pivots = nm._rref_zi(form, n, reduced=False)
        assert pivots == list(range(n))
        assert all(a is b for a, b in zip(rows, form))
    calls = []
    honest = nm._rref_zi

    def recorded(rows, ncols, reduced=True):
        calls.append(reduced)
        return honest(rows, ncols, reduced)

    monkeypatch.setattr(nm, "_rref_zi", recorded)
    nm.rank(_to_exact(x, n))
    assert calls == [False]


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
        m = _to_exact(a, cols)
        got = nm.solve_matrix(m, _to_exact(b, bcols))
        want = _ref_solve(a, b, cols, bcols)
        # the generalized inverse: m G m == m, its rank is the pivot count,
        # and G b is the free-zero solution of every consistent system
        g, r = nm.generalized_inverse(m)
        assert (g.rows, g.cols) == (cols, rows)
        assert r == nm.rank(m) == len(_ref_rref(a, cols)[1]), (kind, a)
        assert _pairs(m * g * m) == _pairs(m), (kind, a)
        outcomes.add(want is None)
        if want is None:
            assert got is None, (kind, a, b)
        else:
            assert got is not None and (got.rows, got.cols) == (cols, bcols)
            assert _pairs(got) == want, (kind, a, b)
            assert _pairs(g * _to_exact(b, bcols)) == want, (kind, a, b)
    assert outcomes == {True, False}


def _ref_det(rows):
    """Determinant by Fraction-pair Gaussian elimination, first nonzero pivot."""
    rows = [list(r) for r in rows]
    det = _C_ONE
    for c in range(len(rows)):
        piv = next((i for i in range(c, len(rows)) if rows[i][c] != _C_ZERO), None)
        if piv is None:
            return _C_ZERO
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = (-det[0], -det[1])
        det = _c_mul(det, rows[c][c])
        for i in range(c + 1, len(rows)):
            f = _c_div(rows[i][c], rows[c][c])
            rows[i] = [_c_sub(x, _c_mul(f, y)) for x, y in zip(rows[i], rows[c])]
    return det


def test_char_poly_matches_determinant_oracle():
    # a monic degree-n polynomial is pinned by its values det(sI - M) at s = 0..n
    rng = random.Random(1940)
    for t in range(240):
        n, kind, shape = t % 9, _KINDS[t % len(_KINDS)], ("dense", "nilpotent", "diagonal")[t // 5 % 3]
        a = _rand(rng, n, n, kind)
        if shape != "dense":
            keep = (lambda i, j: i < j) if shape == "nilpotent" else (lambda i, j: i == j)
            perm = rng.sample(range(n), n)
            a = [[a[perm[i]][perm[j]] if keep(perm[i], perm[j]) else _C_ZERO for j in range(n)]
                 for i in range(n)]
        coeffs = [(c.re, c.im) for c in _char_poly_of(_to_exact(a, n))]
        assert len(coeffs) == n + 1 and coeffs[0] == _C_ONE, (kind, shape, a)
        for s in range(n + 1):
            value = _C_ZERO
            for c in coeffs:
                v = _c_mul(value, (Fraction(s), Fraction(0)))
                value = (v[0] + c[0], v[1] + c[1])
            shifted = [[_c_sub((Fraction(s if i == j else 0), Fraction(0)), x) for j, x in enumerate(r)]
                       for i, r in enumerate(a)]
            assert value == _ref_det(shifted), (kind, shape, a, s)


def test_char_poly_is_exact_only():
    with pytest.raises(ValueError):
        nm.char_poly(float_mat([[1, 2], [3, 4]]))


def _faddeev_leverrier(m):
    """det(tI - M), leading first, as Gaussian rationals, by the
    Faddeev-LeVerrier loop on N = d*M: M_1 = I, c_k = -tr(N M_k) / k,
    M_(k+1) = N M_k + c_k I, and c_k / d^k is the coefficient of t^(n-k)."""
    size = m.rows
    n_rows, d = nm.zi_form(m)
    mk = [{i: (1, 0)} for i in range(size)]
    coeffs = [gr(1)]
    dk = 1
    for k in range(1, size + 1):
        prod = [nm._zi_row_product(row, n_rows, size) for row in mk]
        tr_re = sum(re[i] for i, (re, _) in enumerate(prod))
        tr_im = sum(im[i] for i, (_, im) in enumerate(prod))
        assert tr_re % k == 0 and tr_im % k == 0
        c_re, c_im = -tr_re // k, -tr_im // k
        dk *= d
        coeffs.append(nm._gr_over(c_re, c_im, dk))
        if k < size:
            mk = [nm._zi_sparse(re, im) for re, im in prod]
            if c_re or c_im:
                for i, row in enumerate(mk):
                    a, b = row.get(i, (0, 0))
                    row[i] = (a + c_re, b + c_im)
    return coeffs


def _reference_eigenvalues(m):
    """Roots of the Faddeev-LeVerrier polynomial of M itself (not of d*M),
    sorted by scalar_key one root at a time; ExactFactorizationFailure when
    they are not all Gaussian rationals."""
    if m.rows == 0:
        return []
    roots = _multiset(nm._poly_roots_exact(nm._clear_denominators(_faddeev_leverrier(m))[0]))
    return sorted(roots, key=nm.scalar_key)


def _outcome(eig, m):
    try:
        return eig(m)
    except ExactFactorizationFailure:
        return ExactFactorizationFailure


def _conjugated(rng, rows, n):
    """U A U^-1 for a random unimodular U, as an exact matrix."""
    from liespec import lab

    if n == 0:
        return _to_exact(rows, 0)
    u = lab.unimodular_matrix(rng, n, EXACT)
    return u * _to_exact(rows, n) * nm.inverse(u)


def _jordan_like(rng, lam, n, kind):
    """lam*I plus a random strictly upper triangular part, as (re, im) rows."""
    return [[lam if i == j else (_entry(rng, kind) if i < j else _C_ZERO) for j in range(n)]
            for i in range(n)]


def _direct_sum(blocks, n):
    out = [[_C_ZERO] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            out[at + i][at:at + len(row)] = row
        at += len(block)
    return out


def _eigen_cases():
    """(shape, matrix, eigenvalues or None) on seeded matrices of sizes 0-9."""
    rng = random.Random(1840)
    for t in range(320):
        n, kind = t % 10, ("int", "frac", "imag", "mixed")[t // 10 % 4]
        shape = ("dense", "jordan", "diagonal", "sum")[t // 40 % 4]
        lams = [_entry(rng, kind) for _ in range(3)]
        if shape == "dense":
            yield shape, _to_exact(_rand(rng, n, n, kind), n), None
        elif shape == "jordan":
            yield shape, _conjugated(rng, _jordan_like(rng, lams[0], n, kind), n), [lams[0]] * n
        elif shape == "diagonal":
            values = [rng.choice(lams) for _ in range(n)]
            yield shape, _to_exact([[values[i] if i == j else _C_ZERO for j in range(n)]
                                    for i in range(n)], n), values
        else:
            sizes = [n // 3, (n + 1) // 3, n - n // 3 - (n + 1) // 3]
            blocks = [_jordan_like(rng, lam, k, kind) for lam, k in zip(lams, sizes)]
            values = [lam for lam, k in zip(lams, sizes) for _ in range(k)]
            yield shape, _conjugated(rng, _direct_sum(blocks, n), n), values


def test_exact_eigenvalues_match_the_faddeev_leverrier_reference():
    seen = {"dense": 0, "jordan": 0, "diagonal": 0, "sum": 0}
    factored = 0
    for shape, m, values in _eigen_cases():
        got = _outcome(lambda m: _multiset(nm.eigenvalues(m)), m)
        assert got == _outcome(_reference_eigenvalues, m), (shape, m)
        if values is not None:
            assert got == sorted((gr(*v) for v in values), key=nm.scalar_key), (shape, m)
        seen[shape] += 1
        factored += got is not ExactFactorizationFailure
    # dense matrices mostly have irrational eigenvalues, where both raise
    assert min(seen.values()) == 80 and factored > 250


def test_pure_powers_skip_guesses_deflation_and_divisor_search(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a pure power reached the general root search")

    for name in ("_float_root_guesses", "_zi_deflate", "_lifted_roots"):
        monkeypatch.setattr(nm, name, unreachable)
    rng = random.Random(1976)
    for t in range(120):
        n, kind = 1 + t % 9, ("int", "frac", "imag", "mixed")[t % 4]
        lam = _entry(rng, kind)
        m = _conjugated(rng, _jordan_like(rng, lam, n, kind), n)
        assert _multiset(nm.eigenvalues(m)) == [gr(*lam)] * n
        # zero roots are stripped first, so 0 (+) lam I + nilpotent is one too
        zero = _jordan_like(rng, _C_ZERO, t % 3, kind)
        m = _conjugated(rng, _direct_sum([zero, _jordan_like(rng, lam, n, kind)], n + t % 3), n + t % 3)
        assert _multiset(nm.eigenvalues(m)) == sorted([gr(0)] * (t % 3) + [gr(*lam)] * n, key=nm.scalar_key)


def test_pure_power_root_from_the_trace_agrees_with_the_square_free_path():
    def via_trace(p):
        root = nm._pure_power_root(p)
        return None if root is None else gr(Fraction(root[0][0], root[1]), Fraction(root[0][1], root[1]))

    def via_square_free(p):
        q = nm._squarefree_part(p)
        if len(q) != 2:
            return None
        (a, _), (ba, bb) = q
        return gr(Fraction(-ba, a), Fraction(-bb, a))

    units = ((1, 0), (-1, 0), (0, 1), (0, -1))
    rng = random.Random(1977)
    misses = 0
    for t in range(160):
        n = 1 + t % 8
        d, c = (rng.randint(1, 6), rng.randint(-3, 3)), (rng.randint(-9, 9), rng.randint(-9, 9))
        p = nm._clear_denominators(_poly_from_factors([(d, c, n)]))[0]
        assert via_trace(p) == via_square_free(p) == gr(*c) / gr(*d), (d, c, n)
        assert nm._poly_roots_exact(p) == [(gr(*c) / gr(*d), n)]
        # one coefficient moved by a unit: a pure power no more, bar chance
        k = rng.randrange(n + 1)
        bumped = list(p)
        bumped[k] = tuple(a + b for a, b in zip(p[k], rng.choice(units)))
        if bumped[0] == (0, 0):
            continue
        assert via_trace(bumped) == via_square_free(bumped), (bumped, k)
        misses += via_trace(bumped) is None
    assert misses > 100


def test_to_complex_is_the_complex_sum_bit_for_bit():
    import struct

    def bits(z):
        return struct.pack("<dd", z.real, z.imag)

    tiny = Fraction(1, 10 ** 400)  # a part that underflows to a signed 0.0
    parts = [Fraction(0), Fraction(3, 7), Fraction(-3, 7), Fraction(-5), tiny, -tiny,
             Fraction(10 ** 300, 3), -Fraction(10 ** 300, 3)]
    for re in parts:
        for im in parts:
            want = complex(re) + 1j * complex(im)
            assert bits(GaussianRational(re, im).to_complex()) == bits(want), (re, im)
    huge = Fraction(10 ** 400)
    for re, im in ((huge, Fraction(1)), (Fraction(1), -huge), (-huge, tiny)):
        with pytest.raises(OverflowError):
            complex(re) + 1j * complex(im)
        with pytest.raises(OverflowError):
            GaussianRational(re, im).to_complex()


def test_exact_eigenvalues_do_no_gaussian_rational_arithmetic(monkeypatch):
    # the characteristic polynomial and its roots are found on Gaussian
    # integers; GaussianRational appears only in the returned values
    from liespec import lab

    m = lab.random_nilpotent_rep(1, "F4", 8).mats[0]
    calls = []
    for name in ("__add__", "__sub__", "__mul__"):
        honest = getattr(GaussianRational, name)
        monkeypatch.setattr(GaussianRational, name,
                            lambda x, y, honest=honest, name=name: calls.append(name) or honest(x, y))
    assert len(_multiset(nm.eigenvalues(m))) == 8
    assert calls == []


def test_shape_and_deflation_checks_raise_typed_errors():
    a = exact_mat([[1, 2], [3, 4]])
    b = exact_mat([[1, 2, 3]])
    ops = (
        lambda: a * b, lambda: a + b, lambda: a - b,
        lambda: nm.Matrix(2, 2, (gr(1),), nm.EXACT),
        lambda: nm.matrix_from_rows([], nm.EXACT),
        lambda: nm.matrix_from_rows([[gr(1)], [gr(1), gr(2)]], nm.EXACT),
        lambda: nm.hstack([]), lambda: nm.hstack([a, b]),
        lambda: nm.solve_matrix(a, b), lambda: nm.inverse(b),
        lambda: nm.char_poly(b), lambda: nm.eigenvalues(b),
    )
    for op in ops:
        with pytest.raises(nm.VerificationFailure):
            op()
    with pytest.raises(nm.VerificationFailure):
        nm._zi_deflate([(1, 0), (0, 0), (-1, 0)], (2, 0), 1)  # 2 is no root of t^2 - 1
    assert issubclass(nm.VerificationFailure, RuntimeError)


def _entrywise(m):
    # repr keeps the sign of a float zero, which == does not
    return tuple(repr(x) for x in m.entries) if m.backend == FLOAT else m.entries


def test_sub_diagonal_matches_subtracting_a_scaled_identity():
    from liespec import lab

    def check(m, lam):
        want = m - identity(m.rows, m.backend).scale(lam)
        got = nm.sub_diagonal(m, lam)
        assert (got.rows, got.cols, got.backend) == (want.rows, want.cols, want.backend)
        assert _entrywise(got) == _entrywise(want), (m, lam)

    checked = 0
    for backend in (EXACT, FLOAT):
        for fix in lab.catalog(backend):
            for mat in fix.rep.mats:
                lams = _multiset(nm.eigenvalues(mat)) + [nm.sc_one(backend), nm.make_scalar(gr(-3, 2), backend)]
                for m in (mat, -mat):
                    for lam in lams:
                        check(m, lam)
                        checked += 1
    rng = random.Random(117)
    signed = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), -1.5 + 2j, 2 - 0.5j]
    for t in range(200):
        kind = _KINDS[t % len(_KINDS)]
        n = rng.randint(0, 5)
        m = _to_exact(_rand(rng, n, n, kind), n)
        lam = gr(*_entry(rng, kind))
        check(m, lam)
        for fm in (m.to_float(), -m.to_float()):
            check(fm, lam.to_complex())
            check(fm, rng.choice(signed))
        checked += 3
    assert checked > 600
    with pytest.raises(nm.VerificationFailure):
        nm.sub_diagonal(exact_mat([[1, 2, 3]]), gr(1))


def test_scalar_of_reads_c_off_the_form_alone():
    for n, c in ((3, gr(-5, 7) / gr(6)), (2, gr(0)), (1, gr(4)), (0, gr(0))):
        m = nm.zi_matrix(n, n, *nm.zi_form(identity(n, EXACT).scale(c)))
        assert nm.scalar_of(m) == c and m._entries is None
    assert nm.scalar_of(nm.zeros(2, 2, EXACT)) is nm.GR_ZERO
    for rows in ([[1, 0], [0, 2]], [[1, 1], [0, 1]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]):
        assert nm.scalar_of(exact_mat(rows)) is None, rows
    with pytest.raises(nm.VerificationFailure):
        nm.scalar_of(exact_mat([[1, 0]]))


def _identity_sum(rng, kind):
    """(n, c, terms): Fraction-pair terms (x, y, inner) with the sum of the
    x y equal to the n x n identity.  x y comes split in one or two terms of
    random inner sizes (0 allowed, as is n = 0), then g a with a = c I for a
    random nonzero c and g = (I - x y) / c, so that the denominators differ."""
    n, k = rng.randint(0, 5), rng.randint(0, 4)
    x, y = _rand(rng, n, k, kind), _rand(rng, k, n, kind)
    c = (Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 7)), Fraction(rng.randint(-2, 2), 3))
    xy = _ref_mul(x, y, k, n)
    g = [[_c_div(_c_sub(_C_ONE if i == j else _C_ZERO, xy[i][j]), c) for j in range(n)]
         for i in range(n)]
    a = [[c if i == j else _C_ZERO for j in range(n)] for i in range(n)]
    s = rng.randint(0, k) if rng.random() < 0.3 else k
    terms = [([r[:s] for r in x], y[:s], s), ([r[s:] for r in x], y[s:], k - s)][: 1 + (s < k)]
    return n, c, terms + [(g, a, n)]


def _ref_sums_to_identity(n, terms):
    total = [[_C_ZERO] * n for _ in range(n)]
    for x, y, inner in terms:
        for i, row in enumerate(_ref_mul(x, y, inner, n)):
            total[i] = [(u[0] + v[0], u[1] + v[1]) for u, v in zip(total[i], row)]
    return total == [[_C_ONE if i == j else _C_ZERO for j in range(n)] for i in range(n)]


def test_sums_to_identity_matches_the_materialised_sum():
    # true cases, and near misses one entry off: off the diagonal, on it, or
    # in an imaginary part only (g + E / c times c I adds E to the sum)
    rng = random.Random(131)
    seen = set()
    for t in range(300):
        kind = _KINDS[t % len(_KINDS)]
        n, c, terms = _identity_sum(rng, kind)
        misses = [None] + (["diagonal", "imaginary"] if n else []) + (["off-diagonal"] if n > 1 else [])
        for miss in misses:
            case = list(terms)
            if miss:
                g, a, _ = case[-1]
                i = rng.randrange(n)
                j = rng.choice([j for j in range(n) if j != i]) if miss == "off-diagonal" else i
                e = (Fraction(0), Fraction(1, 2)) if miss == "imaginary" else (Fraction(-1, 3), Fraction(0))
                g = [list(r) for r in g]
                g[i][j] = (g[i][j][0] + _c_div(e, c)[0], g[i][j][1] + _c_div(e, c)[1])
                case[-1] = (g, a, n)
            if rng.random() < 0.5:
                case.reverse()
            pairs = [(_to_exact(x, inner), _to_exact(y, n)) for x, y, inner in case]
            total = pairs[0][0] * pairs[0][1]
            for x, y in pairs[1:]:
                total = total + x * y
            want = total == identity(n, EXACT)
            assert want == _ref_sums_to_identity(n, case) == (miss is None), (kind, miss, case)
            assert nm.sums_to_identity(pairs) == want, (kind, miss, case)
            seen.add((miss, n == 0, min(inner for _, _, inner in case) == 0, len(case)))
    assert {(None, True), (None, False), ("imaginary", False)} <= {s[:2] for s in seen}
    assert {s[2] for s in seen} == {True, False} and {s[3] for s in seen} == {2, 3}


def test_sums_to_identity_refuses_shapes_that_do_not_fit():
    two, three = identity(2, EXACT), identity(3, EXACT)
    for pairs in ([], [(nm.zeros(2, 3, EXACT), nm.zeros(2, 2, EXACT))],
                  [(nm.zeros(2, 3, EXACT), nm.zeros(3, 3, EXACT))], [(two, two), (three, three)],
                  [(two, two), (nm.zeros(2, 1, EXACT), nm.zeros(1, 3, EXACT))],
                  [(identity(2, FLOAT), identity(2, FLOAT))]):
        with pytest.raises(nm.VerificationFailure):
            nm.sums_to_identity(pairs)
    assert nm.sums_to_identity([(two, two)]) and not nm.sums_to_identity([(two, two), (two, two)])


def _ref_kron_sum(terms, bm, bn, rows, cols):
    """sum c (A (x) B) over (c, A, B) terms of Fraction pairs, B being bm x
    bn, written out as a dense grid: entry (i bm + k, j bn + l) adds c A[i][j]
    B[k][l]."""
    grid = [[_C_ZERO] * cols for _ in range(rows)]
    for c, a, b in terms:
        for i, arow in enumerate(a):
            for j, x in enumerate(arow):
                for k, brow in enumerate(b):
                    for l, y in enumerate(brow):
                        p = _c_mul(_c_mul(c, x), y)
                        e = grid[i * bm + k][j * bn + l]
                        grid[i * bm + k][j * bn + l] = (e[0] + p[0], e[1] + p[1])
    return grid


def _float_kron_sum(terms, rows, cols):
    """The float sum entry by entry from 0j, in term order, each term adding
    (c a) b for every entry a of A and b of B, zeros included."""
    grid = [[0j] * cols for _ in range(rows)]
    for c, a, b in terms:
        for i in range(a.rows):
            for j in range(a.cols):
                for k in range(b.rows):
                    for l in range(b.cols):
                        r, s = i * b.rows + k, j * b.cols + l
                        grid[r][s] = grid[r][s] + (c * a.at(i, j)) * b.at(k, l)
    return tuple(repr(x) for row in grid for x in row)


def test_kron_sum_matches_a_dense_kronecker_sum():
    # up to four terms of one A shape and one B shape, each with a
    # coefficient of the same kind as the entries, or 1; each exact case
    # again with its terms shuffled, which must give the same Z[i] form
    rng, order = random.Random(121), random.Random(1210)
    for t in range(300):
        kind = _KINDS[t % len(_KINDS)]
        ar, ac, bm, bn = (rng.randint(0, 3) for _ in range(4))
        raw = [(_entry(rng, kind) if rng.random() < 0.8 else _C_ONE,
                _rand(rng, ar, ac, kind), _rand(rng, bm, bn, kind)) for _ in range(rng.randint(1, 4))]
        terms = [(gr(*c), _to_exact(a, ac), _to_exact(b, bn)) for c, a, b in raw]
        got = nm.kron_sum(terms, ar * bm, ac * bn, EXACT)
        assert (got.rows, got.cols) == (ar * bm, ac * bn)
        assert _pairs(got) == _ref_kron_sum(raw, bm, bn, ar * bm, ac * bn), (kind, raw)
        shuffled = order.sample(terms, len(terms))
        assert nm.zi_form(nm.kron_sum(shuffled, ar * bm, ac * bn, EXACT)) == nm.zi_form(got), (kind, raw)
        floats = [(c.to_complex(), a.to_float(), b.to_float()) for c, a, b in terms]
        got = nm.kron_sum(floats, ar * bm, ac * bn, FLOAT)
        assert _entrywise(got) == _float_kron_sum(floats, ar * bm, ac * bn), (kind, raw)


def test_float_kron_sum_keeps_the_order_of_its_terms_bit_for_bit():
    # signed zeros, tiny and large parts: the sum runs entry by entry from 0j
    # in term order, so a reordering or a skipped zero that flips a sign
    # shows in the repr of the entries
    rng = random.Random(122)
    parts = [0.0, -0.0, 1.0, -1.0, 1e-17, -3e-9, 2.5, 1e16]
    for _ in range(200):
        ar, ac, bm, bn = (rng.randint(1, 3) for _ in range(4))
        mat = lambda r, c: Matrix(r, c, tuple(complex(rng.choice(parts), rng.choice(parts))
                                              for _ in range(r * c)), FLOAT)
        terms = [(complex(rng.choice(parts), rng.choice(parts)), mat(ar, ac), mat(bm, bn))
                 for _ in range(rng.randint(1, 4))]
        got = nm.kron_sum(terms, ar * bm, ac * bn, FLOAT)
        assert _entrywise(got) == _float_kron_sum(terms, ar * bm, ac * bn)


def test_kron_sum_edge_cases():
    a = exact_mat([[1, 2], [0, gr(0, 1)]])
    b = exact_mat([[gr(Fraction(1, 2)), 0], [3, gr(Fraction(1, 3), -1)]])
    # terms that cancel to zero, in part and in whole
    half = nm.kron_sum([(gr(1), a, b), (gr(-1), a, b)], 4, 4, EXACT)
    assert half.is_zero() and nm.zi_form(half) == (({},) * 4, 1)
    part = nm.kron_sum([(gr(1), a, b), (gr(-1), exact_mat([[1, 0], [0, 0]]), b)], 4, 4, EXACT)
    assert part.to_lists() == nm.kron_sum([(gr(1), exact_mat([[0, 2], [0, gr(0, 1)]]), b)], 4, 4,
                                          EXACT).to_lists()
    _check_form(part, [[(e.re, e.im) for e in r] for r in part.to_lists()])
    # a term cancelled by its negative, first, last, and between two others
    w, neg, u, v = (gr(1), a, b), (gr(-1), a, b), (gr(2, -1), b, a), (gr(Fraction(-1, 3)), a, a)
    rest = nm.kron_sum([u, v], 4, 4, EXACT)
    for terms in ([w, neg, u, v], [u, v, w, neg], [u, w, neg, v], [w, u, v, neg], [neg, u, w, v]):
        got = nm.kron_sum(terms, 4, 4, EXACT)
        assert got == rest
        _check_form(got, _pairs(rest))
    # mixed denominators and Gaussian entries, over the lcm of them all
    c = gr(Fraction(2, 7), Fraction(-1, 5))
    mixed = nm.kron_sum([(c, a, b), (gr(Fraction(1, 6)), b, a)], 4, 4, EXACT)
    want = _ref_kron_sum([((c.re, c.im), _pairs(a), _pairs(b)),
                          ((Fraction(1, 6), Fraction(0)), _pairs(b), _pairs(a))], 2, 2, 4, 4)
    _check_form(mixed, want)
    # 1 x 1 left factors: a linear combination, on both backends
    one = identity(1, EXACT)
    combo = nm.kron_sum([(gr(3), one, a), (gr(0, -1), one, b)], 2, 2, EXACT)
    assert combo == a.scale(gr(3)) + b.scale(gr(0, -1))
    fone = identity(1, FLOAT)
    fcombo = nm.kron_sum([(3 + 0j, fone, a.to_float()), (-1j, fone, b.to_float())], 2, 2, FLOAT)
    assert fcombo.entries == combo.to_float().entries
    # I - X Y as the two-term sum of I and -X Y, 0 rows and 0 inner included
    rng = random.Random(118)
    for t in range(300):
        kind = _KINDS[t % len(_KINDS)]
        rows, inner = rng.randint(0, 5), rng.randint(0, 5)
        x = _to_exact(_rand(rng, rows, inner, kind), inner)
        y = _to_exact(_rand(rng, inner, rows, kind), rows)
        for xm, ym in ((x, y), (x.to_float(), y.to_float())):
            k, unit, eye = nm.sc_one(xm.backend), identity(1, xm.backend), identity(rows, xm.backend)
            got = nm.kron_sum([(k, unit, eye), (-k, unit, xm * ym)], rows, rows, xm.backend)
            want = eye - xm * ym
            assert (got.rows, got.cols, got.backend) == (want.rows, want.cols, want.backend)
            assert _entrywise(got) == _entrywise(want), (kind, x, y)
    # no terms: the zero matrix of the given shape
    for backend in (EXACT, FLOAT):
        empty = nm.kron_sum([], 3, 0, backend)
        assert (empty.rows, empty.cols, empty.backend) == (3, 0, backend)
        assert nm.kron_sum([], 2, 3, backend) == nm.zeros(2, 3, backend)
    # terms of unequal shapes, backends, or a wrong total shape
    for terms, rows, cols, backend in (
        ([(gr(1), a, b), (gr(1), b, exact_mat([[1]]))], 4, 4, EXACT),
        ([(gr(1), a, b)], 4, 5, EXACT),
        ([(gr(1), a, b.to_float())], 4, 4, EXACT),
        ([(1 + 0j, a.to_float(), b.to_float())], 4, 4, EXACT),
    ):
        with pytest.raises(nm.VerificationFailure):
            nm.kron_sum(terms, rows, cols, backend)


def test_exact_rank_matches_fraction_reference_pivot_count():
    for _, kind, rows, cols, x in _cases(15, 300):
        assert nm.rank(_to_exact(x, cols)) == len(_ref_rref(x, cols)[1]), (kind, x)


def _check_form(m, want, handed_over=True):
    """m's Z[i] form holds exactly its entries: sparse rows of nonzero
    (re, im) numerators over a positive denominator coprime to them.  Its
    entries are filled from that form, so they are also compared with want,
    a Fraction-pair reference computed without the library."""
    if handed_over:
        assert m._zi is not None, "the producing routine handed over no form"
    rows, d = nm.zi_form(m)
    assert d > 0 and len(rows) == m.rows
    assert math.gcd(d, *[v for row in rows for pair in row.values() for v in pair]) == 1
    for i, row in enumerate(rows):
        assert all((a, b) != (0, 0) and 0 <= j < m.cols for j, (a, b) in row.items())
        for j in range(m.cols):
            a, b = row.get(j, (0, 0))
            assert (m.at(i, j).re, m.at(i, j).im) == (Fraction(a, d), Fraction(b, d)), (m, i, j)
    assert _pairs(m) == want, (m, want)


def _ref_transpose(a, ncols):
    return [[r[j] for r in a] for j in range(ncols)]


def _ref_generalized_inverse(x, rows, cols):
    """Row r of the right-hand block of rref [x | I] at the r-th pivot column
    of x, zero rows at its free columns."""
    ident = [[_C_ONE if i == j else _C_ZERO for j in range(rows)] for i in range(rows)]
    ech, pivots = _ref_rref([r + e for r, e in zip(x, ident)], cols + rows)
    out = [[_C_ZERO] * rows for _ in range(cols)]
    for r, pc in enumerate(pivots):
        if pc < cols:
            out[pc] = ech[r][cols:]
    return out


def test_exact_form_matches_entries_for_every_producer():
    from liespec import koszul as kz
    from liespec import lab
    from liespec import lie_core as lc
    from liespec import representation as rp
    from test_koszul import _naive_differential

    rng = random.Random(120)
    for t, (_, kind, rows, cols, x) in enumerate(_cases(16, 200)):
        m = _to_exact(x, cols)
        _check_form(m, x, handed_over=False)
        yx = _rand(rng, cols, rows, _KINDS[t % len(_KINDS)])
        y = _to_exact(yx, rows)
        xy = _ref_mul(x, yx, cols, rows)
        _check_form(m * y, xy)
        c = _entry(random.Random(t), kind)  # its own stream: the draws below stay as they were
        _check_form(nm.kron_sum([(gr(*c), m, y), (gr(1), m, y)], rows * cols, cols * rows, EXACT),
                    _ref_kron_sum([(c, x, yx), (_C_ONE, x, yx)], cols, rows, rows * cols, cols * rows))
        g, _ = nm.generalized_inverse(m)
        _check_form(g, _ref_generalized_inverse(x, rows, cols), handed_over=rows > 0 and cols > 0)
        _check_form(nm.nullspace_basis(m), _ref_transpose(_ref_nullspace(x, cols), cols))
        if rows == cols:
            lam = _entry(rng, kind)
            _check_form(nm.sub_diagonal(m, gr(*lam)),
                        [[_c_sub(e, lam) if i == j else e for j, e in enumerate(r)]
                         for i, r in enumerate(x)])
        # equal matrices built different ways compare and hash equal
        same = m * identity(cols, EXACT)
        assert same == m and hash(same) == hash(m)
        prod = matrix_from_rows((m * y).to_lists(), EXACT, cols=rows)
        assert prod == m * y and hash(prod) == hash(m * y)
    # Koszul differentials, over rational conjugators, with and without a
    # shift, against the dense assembly of the shifted representation
    for seed, base in ((0, "H3"), (1, "F4"), (2, "Z3")):
        rep = lab.random_nilpotent_rep(seed, base, 4)
        s = _to_exact(_rand(random.Random(seed), 4, 4, "frac"), 4)
        rep = rp.conjugate_representation(rep, s)
        L = rep.algebra
        shift = lc.character(L, [gr(Fraction(1, 2), Fraction(-3, 4))] + [gr(0)] * (L.n - 1))
        for p in range(1, L.n + 1):
            for shifted in (rep, rp.shift(rep, shift)):
                d = kz._differential(shifted, p)
                _check_form(d, [[(e.re, e.im) for e in r] for r in _naive_differential(shifted, p)])
                assert nm.zi_form(d)[1] > 1
                rebuilt = matrix_from_rows(d.to_lists(), EXACT, cols=d.cols)
                assert d == rebuilt and hash(d) == hash(rebuilt)


@dataclass(frozen=True)
class _DataclassMatrix:
    """Matrix as the plain frozen dataclass it was before its entries were
    filled on demand; only its repr text is used."""

    rows: int
    cols: int
    entries: tuple
    backend: str


_DataclassMatrix.__qualname__ = "Matrix"


def test_exact_equality_and_hash_are_equality_of_entries():
    # each matrix twice: from entries, and by zi_matrix from a form that is
    # not reduced (k*D over k*N), which must come out canonical
    cases = [(rows, cols, x) for _, _, rows, cols, x in _cases(21, 120)]
    neg = [(Fraction(1, 2), Fraction(-3)), (Fraction(0), Fraction(-1, 4))]
    cases += [(0, 3, []), (3, 0, [[]] * 3), (2, 3, [[_C_ZERO] * 3] * 2), (1, 2, [neg]),
              (1, 2, [[(Fraction(1, 2), Fraction(3)), neg[1]]])]
    pool = []
    for t, (rows, cols, x) in enumerate(cases):
        want = tuple(gr(*e) for r in x for e in r)
        denom = math.lcm(*[q.denominator for r in x for e in r for q in e])
        k = 2 + t % 5
        form = [{j: (int(a * denom) * k, int(b * denom) * k) for j, (a, b) in enumerate(r)
                 if (a, b) != _C_ZERO} for r in x]
        a, b = _to_exact(x, cols), nm.zi_matrix(rows, cols, form, k * denom)
        assert b.entries == a.entries == want
        assert a == b and b == a and hash(a) == hash(b) and not a != b
        assert repr(a) == repr(b) == repr(_DataclassMatrix(rows, cols, want, EXACT))
        pool += [a, b]
    for p in pool:
        for q in pool:
            same = (p.rows, p.cols, p.entries) == (q.rows, q.cols, q.entries)
            assert (p == q) is same and (p != q) is not same, (p, q)
            assert not same or hash(p) == hash(q), (p, q)
    assert sum(p == q for p in pool for q in pool) < len(pool) ** 2 / 4


def test_exact_product_clears_each_operand_once(monkeypatch):
    rng = random.Random(122)
    x_rows = [_rand(rng, r, 4, kind) for r, kind in ((2, "frac"), (5, "imag"), (3, "mixed"))]
    y_rows = _rand(rng, 4, 3, "mixed")
    lefts = [_to_exact(x, 4) for x in x_rows]
    y = _to_exact(y_rows, 3)
    calls = []
    honest = nm._clear_denominators
    monkeypatch.setattr(nm, "_clear_denominators", lambda values: calls.append(1) or honest(values))
    products = [x * y for x in lefts]
    # four matrices were built from entries: each is cleared at most once
    assert len(calls) <= 4, calls
    for x, got in zip(x_rows, products):
        assert _pairs(got) == _ref_mul(x, y_rows, 4, 3)
    # the products carry their form: multiplying one on clears only the
    # new right operand, a fifth matrix built from entries
    products[0] * y.transpose()
    assert len(calls) <= 5, calls


# --- the float kernel against its per-entry loops ---------------------------------


def _old_float_mul(x, y):
    out = []
    for i in range(x.rows):
        ri = x.row(i)
        for j in range(y.cols):
            acc = 0j
            for k in range(x.cols):
                acc = acc + ri[k] * y.at(k, j)
            out.append(acc)
    return out


def _old_rref(rows, thr):
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
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
            if nm.sc_is_zero(f, thr):
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _bits(values):
    # hex keeps the sign of a zero, which == does not
    return [(z.real.hex(), z.imag.hex()) for z in values]


def _seeded_float_rows(rng, rows, cols):
    # signed zeros, exact small integers, tiny entries near the threshold
    pool = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1 + 0j, -2 + 0j, 1j,
            complex(1e-12, 0.0), complex(0.0, -3e-10)]
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < 0.5:
                row.append(rng.choice(pool))
            else:
                row.append(complex(rng.uniform(-3, 3), rng.choice([0.0, -0.0, rng.uniform(-1, 1)])))
        out.append(row)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_float_kernel_is_bit_identical_to_its_per_entry_loops(seed):
    rng = random.Random(seed)
    a, b, c = (rng.randint(0, 5) for _ in range(3))
    x = matrix_from_rows(_seeded_float_rows(rng, a, b), FLOAT, cols=b)
    y = matrix_from_rows(_seeded_float_rows(rng, b, c), FLOAT, cols=c)
    assert _bits((x * y).entries) == _bits(_old_float_mul(x, y))
    old_norm = max((nm.sc_abs(v) for v in x.entries), default=0.0)
    assert x.maxnorm().hex() == old_norm.hex()
    rows = _seeded_float_rows(rng, a, b)
    for tol in (None, 1e-6):
        old_thr = nm.zero_threshold(FLOAT, tol, lambda: max(
            (nm.sc_abs(v) for row in rows for v in row), default=0.0))
        want_rows, want_pivots = _old_rref([list(r) for r in rows], old_thr)
        got_rows, got_pivots = nm._echelon(rows, tol)
        assert got_pivots == want_pivots
        assert [_bits(r) for r in got_rows] == [_bits(r) for r in want_rows]
        for thr in (0.0, old_thr, 0.5):
            want = _old_rref([list(r) for r in rows], thr)
            got = nm._rref([list(r) for r in rows], thr)
            assert got[1] == want[1] and [_bits(r) for r in got[0]] == [_bits(r) for r in want[0]]


def test_gaussian_rational_hash_agrees_with_equality():
    half = GaussianRational(Fraction(2, 4), Fraction(0))
    assert half == GaussianRational(Fraction(1, 2), Fraction(0)) == gr(Fraction(1, 2))
    assert hash(half) == hash(GaussianRational(Fraction(1, 2), Fraction(0)))
    assert hash(GaussianRational(Fraction(-6, -4), Fraction(3, -9))) == hash(gr(Fraction(3, 2), Fraction(-1, 3)))
    assert hash(GaussianRational(1, 0)) == hash(gr(1))
    assert len({gr(Fraction(1, 2), 1), GaussianRational(Fraction(2, 4), Fraction(3, 3)), gr(1, Fraction(1, 2))}) == 2


def _checked_triple(x):
    """x, after checking it is held as ints (a, b, d) with d > 0 and gcd 1."""
    assert type(x) is GaussianRational
    assert all(type(v) is int for v in (x.a, x.b, x.d)), x
    assert x.d > 0 and math.gcd(x.a, x.b, x.d) == 1, (x.a, x.b, x.d)
    return x


def _ref_text(re, im):
    """The canonical text of re + im*i, written from the Fraction parts."""
    def frac(q):
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    if re == 0 and im == 0:
        return "0"
    out = frac(re) if re != 0 else ""
    if im != 0:
        imtxt = {1: "i", -1: "-i"}.get(im) or frac(im) + "i"
        out += imtxt if not out or imtxt.startswith("-") else "+" + imtxt
    return out


def test_gaussian_rational_matches_a_fraction_pair_reference():
    import struct

    def bits(z):
        return struct.pack("<dd", z.real, z.imag)

    rng = random.Random(24)

    def part():
        size = 10 ** rng.choice((1, 2, 25))
        return Fraction(rng.randint(-size, size), rng.randint(1, size)) if rng.random() < 0.85 else Fraction(0)

    zero_divisions = 0
    for _ in range(1500):
        p, q = (part(), part()), (part(), part())
        x, y = _checked_triple(GaussianRational(*p)), _checked_triple(GaussianRational(*q))
        assert (x.re, x.im) == p and (y.re, y.im) == q
        results = [
            (x + y, (p[0] + q[0], p[1] + q[1])),
            (x - y, (p[0] - q[0], p[1] - q[1])),
            (x * y, (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])),
            (-x, (-p[0], -p[1])),
        ]
        n = q[0] * q[0] + q[1] * q[1]
        if n:
            results.append((x / y, ((p[0] * q[0] + p[1] * q[1]) / n, (p[1] * q[0] - p[0] * q[1]) / n)))
        else:
            zero_divisions += 1
            with pytest.raises(ZeroDivisionError):
                x / y
        for z, want in results + [(x, p)]:
            _checked_triple(z)
            assert (z.re, z.im) == want
            # an equal value built from an unreduced triple, and from text
            k = rng.randint(2, 50)
            same = nm._gr_over(z.a * k, z.b * k, z.d * k)
            assert same == z and hash(same) == hash(z) and same is not z
            assert (z == GaussianRational(want[0] + 1, want[1])) is False
            assert z.is_zero == (want == (0, 0))
            text = scalar_to_text(z)
            assert text == _ref_text(*want)
            assert _checked_triple(scalar_from_text(text)) == z
            assert bits(z.to_complex()) == bits(complex(want[0]) + 1j * complex(want[1]))
        assert (x == y) == (p == q)
    assert zero_divisions > 0
    x = gr(Fraction(1, 2), -3)
    for name in ("a", "b", "d", "re", "im"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert (x.a, x.b, x.d) == (1, -6, 2)
    assert repr(x) == "GaussianRational(re=Fraction(1, 2), im=Fraction(-3, 1))"
    assert pickle.loads(pickle.dumps(x)) == copy.deepcopy(x) == x


def test_scalar_text_parses_into_the_triple_without_fractions(monkeypatch):
    calls = []
    honest = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(lambda cls, *args, **kw: calls.append(args) or honest(cls, *args, **kw)))
    cases = {"-6/4+10/-i": None, "4/6-8/12i": (2, -2, 3), "+12/8": (3, 0, 2), "-i": (0, -1, 1),
             "0/7": (0, 0, 1), "5/5i": (0, 1, 1), "7": (7, 0, 1), "12i": (0, 12, 1),
             "95/18i": (0, 95, 18), "-1/2+34/56i": (-14, 17, 28), "10/4-21/3i": (5, -14, 2)}
    for text, triple in cases.items():
        if triple is None:
            with pytest.raises(ValueError):
                scalar_from_text(text)
            continue
        x = _checked_triple(scalar_from_text(text))
        assert (x.a, x.b, x.d) == triple, text
    with pytest.raises(ValueError):
        scalar_from_text("1/0")
    assert calls == []


def test_exact_routes_build_no_fraction(monkeypatch):
    # every exact scalar of both spectrum routes and of the splitting
    # homotopies is an integer triple: no Fraction is made on the way
    from liespec import koszul as kz
    from liespec import lab
    from liespec import lie_core as lc
    from liespec import spectra as sp

    rep = lab.random_nilpotent_rep(2, "H3", 7)
    outside = lc.character(rep.algebra, [7, 0, 0])
    calls = []
    honest = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(lambda cls, *args, **kw: calls.append(args) or honest(cls, *args, **kw)))
    taylor = sp.all_spectra(rep)["taylor"]
    pairs = sp.joint_eigencharacters(rep)
    homotopies = [kz.splitting_homotopy(rep, outside, p) for p in range(rep.algebra.n + 1)]
    assert calls == []
    assert taylor.members and len(pairs) == len(taylor.members) and len(homotopies) == 4
    assert outside.coeffs not in taylor.member_coeffs
    Fraction(1, 2)
    assert calls == [(1, 2)]



def _reference_restriction(mat, space, rows):
    """Rows `rows` of mat * space, kept when space * R == mat * space: the
    restriction formed from two products and a submatrix, else None."""
    moved = mat * space
    restricted = nm.submatrix(moved, rows, range(space.cols))
    return restricted if space * restricted == moved else None


def _captured_restrictions(monkeypatch):
    """The (rho(e), V, P) triples that weight_blocks and the joint
    eigenvector search restrict, on seeded nilpotent inputs."""
    from liespec import lab
    from liespec import spectra as sp

    triples = {"generalized weight space": [], "joint eigenspace": []}
    honest = sp.restrict_to_span

    def captured(mat, space, rows, what):
        triples[what].append((mat, space, list(rows)))
        return honest(mat, space, rows, what)

    monkeypatch.setattr(sp, "restrict_to_span", captured)
    for base in ("H3", "F4", "A1", "Z3"):
        for seed in range(4):
            rep = lab.random_nilpotent_rep(seed, base, 8)
            sp.weight_blocks(rep)
            sp.joint_eigencharacters(rep)
    assert all(len(found) > 20 for found in triples.values()), {k: len(v) for k, v in triples.items()}
    return [t for found in triples.values() for t in found]


def test_restrict_to_span_matches_the_two_product_reference(monkeypatch):
    triples = _captured_restrictions(monkeypatch)
    for mat, space, rows in triples:
        expected = _reference_restriction(mat, space, rows)
        assert expected is not None
        assert nm.restrict_to_span(mat, space, rows, "span") == expected
    # one more entry in a row off P moves that row of mat V by V[P[0]] = e_0
    # and leaves R as it was, so the span is no longer invariant
    for mat, space, rows in triples:
        off = next((i for i in range(space.rows) if i not in rows), None)
        if off is None or not rows:
            continue
        bumped = mat + Matrix(mat.rows, mat.cols, tuple(
            gr(int(t == off * mat.cols + rows[0])) for t in range(mat.rows * mat.cols)), EXACT)
        assert _reference_restriction(bumped, space, rows) is None
        with pytest.raises(nm.VerificationFailure, match="^span is not invariant$"):
            nm.restrict_to_span(bumped, space, rows, "span")
    # rows on which V is not the identity, in another order
    for mat, space, rows in triples:
        if len(rows) > 1:
            with pytest.raises(nm.VerificationFailure, match="^span is not invariant$"):
                nm.restrict_to_span(mat, space, rows[::-1], "span")


def test_restrict_to_span_refuses_what_it_cannot_check():
    def exact(rows, cols=None):
        return matrix_from_rows([[gr(x) for x in r] for r in rows], EXACT, cols)

    def refused(mat, space, rows, match="^span is not invariant$"):
        with pytest.raises(nm.VerificationFailure, match=match):
            nm.restrict_to_span(mat, space, rows, "span")

    # e_0 goes to e_1: not invariant
    refused(exact([[0, 0], [1, 0]]), exact([[1], [0]]), [0])
    assert _reference_restriction(exact([[0, 0], [1, 0]]), exact([[1], [0]]), [0]) is None
    # rho V = 0 satisfies V R == rho V whatever the rows P; V must be the
    # identity on them all the same
    zero = nm.zeros(2, 2, EXACT)
    for space in (exact([[0], [1]]), exact([[2], [0]])):
        assert _reference_restriction(zero, space, [0]) == nm.zeros(1, 1, EXACT)
        refused(zero, space, [0])
    refused(zero, identity(2, EXACT), [0, 0])
    assert nm.restrict_to_span(zero, exact([[1], [2]]), [0], "span") == nm.zeros(1, 1, EXACT)
    assert nm.restrict_to_span(zero, exact([[], []], 0), [], "span") == nm.zeros(0, 0, EXACT)
    # float input, and shapes that do not fit
    f = identity(2, FLOAT)
    refused(f, f, [0, 1], "exact input")
    refused(identity(2, EXACT), f, [0, 1], "exact input")
    shapes = "no restriction"
    refused(exact([[1, 0, 0], [0, 1, 0]]), identity(3, EXACT), [0, 1, 2], shapes)
    refused(identity(3, EXACT), identity(2, EXACT), [0, 1], shapes)
    refused(identity(2, EXACT), identity(2, EXACT), [0], shapes)
    refused(identity(2, EXACT), exact([[1], [0]]), [2], shapes)
    refused(identity(2, EXACT), exact([[0], [1]]), [-1], shapes)


@pytest.mark.parametrize("build,error,message", [
    (lambda: nm.scalar_from_json(1.5, EXACT), ValueError,
     'non-integral float 1.5 not accepted on the exact backend; use "a/b" text'),
    (lambda: nm.scalar_from_json([1, 0.5], EXACT), ValueError,
     "non-integral float in [1, 0.5] not accepted on the exact backend"),
    (lambda: nm.make_scalar("1", EXACT), TypeError, "cannot build exact scalar from '1'"),
    (lambda: nm.make_scalar("1", FLOAT), TypeError, "cannot build float scalar from '1'"),
])
def test_scalars_the_backend_cannot_hold_are_refused_with_their_message(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert (raised.type, str(raised.value)) == (error, message)


def test_make_scalar_takes_a_float_pair_of_any_real_numbers():
    assert nm.make_scalar((1, Fraction(-1, 2)), FLOAT) == complex(1, -0.5)
    assert nm.make_scalar((0.25, 3), FLOAT) == complex(0.25, 3)
