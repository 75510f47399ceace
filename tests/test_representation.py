"""Representation layer: homomorphism validation, shifts, duals, restriction.

E_{ij} below means the matrix unit with a single 1 in row i, column j
(1-based in the comments, 0-based in code).
"""

import random
from fractions import Fraction

import pytest

from liespec import lab
from liespec import lie_core as lc
from liespec import representation as rp
from liespec import spectra as sp
from liespec.numeric import (
    EXACT, FLOAT, Matrix, gr, identity, make_scalar, matrix_from_rows, scalar_from_text, zi_form,
    zi_matrix,
)


def h3_rep():
    # rho(x)=E12, rho(y)=E23, rho(z)=E13 on C^3; [E12,E23]=E13 checked by hand
    L = lc.lie_algebra(["x", "y", "z"], {(0, 1): [0, 0, 1]})
    return rp.representation(
        L,
        [
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        ],
    )


def aff1_rep():
    # [x,y]=y realized by rho(x)=E11, rho(y)=E12 on C^2
    L = lc.lie_algebra(["x", "y"], {(0, 1): [0, 1]})
    return rp.representation(L, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])


def a1_rep():
    L = lc.abelian_algebra(["e1"])
    return rp.representation(L, [[[2, 0], [0, 3]]])


def broken_h3_rep():
    # rho(z)=0 breaks the law at (x,y): commutator E13 != 0
    L = lc.lie_algebra(["x", "y", "z"], {(0, 1): [0, 0, 1]})
    return rp.representation(
        L,
        [
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        ],
    )


def test_validate_fixtures_ok():
    assert rp.validate_representation(h3_rep()) == []
    assert rp.validate_representation(aff1_rep()) == []
    assert rp.validate_representation(a1_rep()) == []


def test_validate_broken_rep():
    violations = rp.validate_representation(broken_h3_rep())
    assert len(violations) == 1
    (pair, residual) = violations[0]
    assert pair == (0, 1)
    assert residual.at(0, 2) == gr(1)


def test_apply_linear_combination():
    rep = h3_rep()
    mat = rep.apply((gr(1), gr(2), gr(0)))
    assert mat.at(0, 1) == gr(1) and mat.at(1, 2) == gr(2)


def _fraction_apply(rep, coeffs):
    """sum_k c_k rho(e_k) entry by entry, as (re, im) pairs of Fractions."""
    out = [[(Fraction(0), Fraction(0))] * rep.m for _ in range(rep.m)]
    for c, mat in zip(coeffs, rep.mats):
        for i in range(rep.m):
            for j in range(rep.m):
                x = mat.at(i, j)
                a, b = out[i][j]
                out[i][j] = (a + c.re * x.re - c.im * x.im, b + c.re * x.im + c.im * x.re)
    return out


def _fraction_pairs(mat):
    return [[(x.re, x.im) for x in mat.row(i)] for i in range(mat.rows)]


def _watch_entry_fills(monkeypatch):
    """Matrices whose entries are filled from their Z[i] form from now on."""
    filled = []
    honest = Matrix.entries.fget

    def entries(m):
        if m._entries is None:
            filled.append(m)
        return honest(m)

    monkeypatch.setattr(Matrix, "entries", property(entries))
    return filled


def _seeded_matrices(seed, n, m):
    # rational and Gaussian entries over unequal denominators, many zeros
    rng = random.Random(seed)
    pool = [0, 0, 0, 1, -2, Fraction(1, 2), Fraction(-3, 4), (Fraction(1, 3), 1), (0, Fraction(-2, 5)),
            (Fraction(7, 6), Fraction(5, 9))]
    return [[[rng.choice(pool) for _ in range(m)] for _ in range(m)] for _ in range(n)]


@pytest.mark.parametrize("seed", range(6))
def test_exact_apply_sums_the_forms(monkeypatch, seed):
    # apply is linear algebra on the matrices alone, so they need not be a
    # homomorphism here
    L = lc.lie_algebra(["x", "y", "z"], {(0, 1): [0, 0, 1]})
    built = rp.representation(L, _seeded_matrices(seed, 3, 4))
    # matrices that hold only their Z[i] form, as kernel results do
    rep = rp.Representation(L, 4, tuple(zi_matrix(4, 4, *zi_form(mat)) for mat in built.mats))
    rng = random.Random(100 + seed)
    values = ["0", "1", "-1", "i", "1/2", "-3/7+2/5i", "5/3i"]
    coeff_lists = [[scalar_from_text(rng.choice(values)) for _ in range(3)] for _ in range(8)]
    coeff_lists += [[gr(0)] * 3, [gr(0), gr(0), gr(Fraction(2, 3), -1)]]
    filled = _watch_entry_fills(monkeypatch)
    results = [rep.apply(coeffs) for coeffs in coeff_lists]
    assert filled == []
    for coeffs, got in zip(coeff_lists, results):
        assert _fraction_pairs(got) == _fraction_apply(rep, coeffs)


@pytest.mark.parametrize("ideal_text", ["1,1,0;0,0,1", "1,i,0;0,0,1", "2,3,0;0,0,5", "1/2,3,0;0,0,1",
                                        "0,0,1", "1,0,0;0,1,0;0,0,1"])
@pytest.mark.parametrize("make", [lambda: lab.fixture("H3").rep, lambda: lab.random_nilpotent_rep(1, "H3", 5),
                                  lambda: lab.random_nilpotent_rep(4, "H3", 7)], ids=["H3", "H3-5-1", "H3-7-4"])
def test_exact_restrict_rep_on_forms(monkeypatch, make, ideal_text):
    rep = make()  # fresh matrices: a filled entry tuple stays on its matrix
    L = rep.algebra
    ideal = lc.span(L, [[scalar_from_text(x) for x in v.split(",")] for v in ideal_text.split(";")])
    lc.is_ideal(L, ideal, None)  # the algebra's cached echelon rows are filled by design
    filled = _watch_entry_fills(monkeypatch)
    sub = rp.restrict_rep(rep, ideal)
    assert filled == []
    assert sub.algebra.n == ideal.dim and sub.m == rep.m
    for b, mat in zip(ideal.basis, sub.mats):
        assert _fraction_pairs(mat) == _fraction_apply(rep, b)
    assert rp.validate_representation(sub) == []


def test_shift_diagonal():
    rep = a1_rep()
    f = lc.character(rep.algebra, [2])
    shifted = rp.shift(rep, f)
    assert shifted.mats[0].to_lists() == matrix_from_rows(
        [[gr(0), gr(0)], [gr(0), gr(1)]], EXACT
    ).to_lists()


def test_shift_preserves_law_and_composes():
    rep = h3_rep()
    f = lc.character(rep.algebra, [1, 0, 0])
    g = lc.character(rep.algebra, [0, 2, 0])
    once = rp.shift(rep, f)
    assert rp.validate_representation(once) == []
    twice = rp.shift(once, lc.Character(once.algebra, g.coeffs))
    fg = lc.character(rep.algebra, [1, 2, 0])
    assert twice == rp.shift(rep, fg)
    assert rp.shift(rep, lc.Character(rep.algebra, rep.algebra.zero_vector())) == rep


def test_shift_rejects_non_character():
    rep = h3_rep()
    with pytest.raises(lc.NotACharacter):
        rp.shift(rep, lc.Character(rep.algebra, (gr(0), gr(0), gr(1))))


def test_adjoint_rep_transposes_over_opposite():
    rep = h3_rep()
    dual = rp.adjoint_rep(rep)
    assert dual.mats[0].at(1, 0) == gr(1)  # E12 -> E21
    assert dual.algebra.structure(0, 1) == (gr(0), gr(0), gr(-1))
    assert rp.validate_representation(dual) == []
    assert rp.adjoint_rep(dual) == rep


def test_restrict_rep_to_abelian_ideal():
    rep = h3_rep()
    ideal = lc.span(rep.algebra, [(gr(0), gr(1), gr(0)), (gr(0), gr(0), gr(1))])
    sub = rp.restrict_rep(rep, ideal)
    assert sub.algebra.table == ()
    assert sub.mats[0].at(1, 2) == gr(1)  # rho(y) = E23
    assert sub.mats[1].at(0, 2) == gr(1)  # rho(z) = E13
    assert rp.validate_representation(sub) == []


def test_float_restriction_reads_the_pivots_the_echelon_form_carries():
    # all of F4, spanned by a skewed basis: the float echelon rows keep
    # entries near 1e-17 left of their pivots, and brackets keep such
    # entries at the pivots of other rows
    skewed = "4/5,2/3,1,1/5;-5/3,1,-3/4,1/3;-2/3,2/5,1/3,-5/4;0,-1/3,-3/4,0"
    subs = {}
    for backend in (EXACT, FLOAT):
        f4 = lab.fixture("F4", backend).rep
        L = f4.algebra
        rep = rp.direct_sum(f4, rp.shift(f4, lc.character(L, [-1, 2, 0, 0])))
        vectors = [[make_scalar(scalar_from_text(x), backend) for x in row.split(",")]
                   for row in skewed.split(";")]
        subs[backend] = rp.restrict_rep(rep, lc.span(L, vectors))
    exact, flt = subs[EXACT].algebra, subs[FLOAT].algebra
    assert exact.table != ()
    for i in range(exact.n):
        for j in range(i + 1, exact.n):
            got, want = flt.structure(i, j), exact.structure(i, j)
            assert all(abs(g - w.to_complex()) <= 1e-9 for g, w in zip(got, want)), (i, j, got)
            # a residue left where the bracket vanishes makes the float
            # triangularization of the induced algebra's adjoint fail
            assert all(g == 0 for g, w in zip(got, want) if w.is_zero), (i, j, got)
    assert rp.validate_representation(subs[FLOAT]) == []
    assert len(sp.homology_support(flt)) == 1


def test_restrict_rep_to_full_algebra_is_identity():
    rep = h3_rep()
    sub = rp.restrict_rep(rep, lc.full_subspace(rep.algebra))
    assert sub.mats == rep.mats


def test_restrict_rep_rejects_non_ideal():
    rep = h3_rep()
    with pytest.raises(lc.NotAnIdeal):
        rp.restrict_rep(rep, lc.span(rep.algebra, [(gr(1), gr(0), gr(0))]))


def test_conjugation_keeps_law():
    rep = h3_rep()
    s = matrix_from_rows(
        [[gr(1), gr(2), gr(0)], [gr(0), gr(1), gr(3)], [gr(0), gr(0), gr(1)]], EXACT
    )
    conj = rp.conjugate_representation(rep, s)
    assert rp.validate_representation(conj) == []
    assert conj != rep


def test_direct_sum_blocks():
    rep = a1_rep()
    two = rp.direct_sum(rep, rep)
    assert two.m == 4
    assert rp.validate_representation(two) == []
    assert two.mats[0].at(2, 2) == gr(2) and two.mats[0].at(3, 3) == gr(3)


def test_adjoint_action_is_representation():
    for L in (
        lc.lie_algebra(["x", "y", "z"], {(0, 1): [0, 0, 1]}),
        lc.lie_algebra(["x", "y"], {(0, 1): [0, 1]}),
    ):
        ad = rp.adjoint_action(L)
        assert rp.validate_representation(ad) == []
    ad = rp.adjoint_action(lc.lie_algebra(["x", "y"], {(0, 1): [0, 1]}))
    # ad(x) maps y to y: column 1 is (0, 1)
    assert ad.mats[0].at(1, 1) == gr(1)
    assert ad.mats[1].at(1, 0) == gr(-1)


def test_json_round_trip():
    rep = h3_rep()
    obj = rp.rep_to_json(rep)
    assert obj["dimX"] == 3
    assert obj["matrices"][0][0] == ["0", "1", "0"]
    assert rp.rep_from_json(obj) == rep
    as_float = rp.rep_from_json(obj, backend=FLOAT)
    assert as_float.backend == FLOAT
    assert as_float.mats[0].at(0, 1) == 1 + 0j


def test_json_rejects_malformed():
    rep = h3_rep()
    obj = rp.rep_to_json(rep)
    del obj["dimX"]
    with pytest.raises(ValueError):
        rp.rep_from_json(obj)
    obj2 = rp.rep_to_json(rep)
    obj2["matrices"][1][2] = ["0", "0"]
    with pytest.raises(ValueError):
        rp.rep_from_json(obj2)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_json_parses_each_entry_text_once_and_refuses_at_the_first_path(backend, monkeypatch):
    L = lc.abelian_algebra(["e1"])

    def load(rows):
        return rp.rep_from_json({"algebra": lc.algebra_to_json(L), "dimX": len(rows), "matrices": [rows]},
                                backend)

    texts = []
    honest = rp.scalar_from_json
    monkeypatch.setattr(rp, "scalar_from_json",
                        lambda value, backend: texts.append(value) or honest(value, backend))
    rows = [["1/2", "0", "1/2"], ["0", "i", 0], ["1/2", 0, "i"]]
    rep = load(rows)
    assert sorted(t for t in texts if isinstance(t, str)) == ["0", "1/2", "i"]
    assert rep.mats[0].to_lists() == [[honest(x, backend) for x in row] for row in rows]
    # a bad text fails where it first stands, and is not taken as parsed
    for bad in ("x", "1/0"):
        with pytest.raises(ValueError, match=r"^representation\.matrices\[0\]\[1\]: "):
            load([["0", "0", "0"], ["0", bad, "0"], [bad, "0", "0"]])
    # JSON true equals 1 as a dict key; it is still no number
    for row in ([1, True, 0], ["1", 1, True]):
        with pytest.raises(ValueError, match=r"^representation\.matrices\[0\]\[2\]: not a scalar: True$"):
            load([["0"] * 3, ["1"] * 3, row])
