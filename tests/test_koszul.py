"""Chain complex construction, homology, and homotopy certificates.

Expected matrices for the 2-dimensional fixtures below were expanded from
the differential formula by hand; larger ranks are cross-checked against
the naive float elimination oracle _oracle_rank, which shares no code with
the library's rank path.
"""

import ast
import itertools
import os
import random
import subprocess
import sys
import textwrap

import pytest

from liespec import koszul as kz
from liespec import lab
from liespec import lie_core as lc
from liespec import numeric as nm
from liespec import representation as rp
from liespec.numeric import EXACT, FLOAT, Fraction, GaussianRational, gr, identity, sc_one, sc_zero, zeros


def _oracle_rank(mat):
    grid = [[complex(mat.at(i, j).to_complex() if hasattr(mat.at(i, j), "to_complex")
                     else mat.at(i, j)) for j in range(mat.cols)] for i in range(mat.rows)]
    rank = 0
    for c in range(mat.cols):
        piv = next((i for i in range(rank, mat.rows) if abs(grid[i][c]) > 1e-9), None)
        if piv is None:
            continue
        grid[rank], grid[piv] = grid[piv], grid[rank]
        for i in range(mat.rows):
            if i != rank and abs(grid[i][c]) > 1e-9:
                f = grid[i][c] / grid[rank][c]
                grid[i] = [a - f * b for a, b in zip(grid[i], grid[rank])]
        rank += 1
    return rank


def a1_rep(backend=EXACT):
    L = lc.abelian_algebra(["e1"], backend)
    return rp.representation(L, [[[2, 0], [0, 3]]])


def s2_rep():
    L = lc.lie_algebra(["x", "y"], {(0, 1): [0, 1]})
    return rp.representation(L, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])


def h3_rep():
    L = lc.lie_algebra(["x", "y", "z"], {(0, 1): [0, 0, 1]})
    return rp.representation(
        L,
        [
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        ],
    )


def f4_rep():
    L = lc.lie_algebra(
        ["e1", "e2", "e3", "e4"],
        {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]},
    )
    z4 = [[0] * 4 for _ in range(4)]

    def unit(i, j):
        out = [row[:] for row in z4]
        out[i][j] = 1
        return out

    e21_32 = [row[:] for row in z4]
    e21_32[1][0] = 1
    e21_32[2][1] = 1
    return rp.representation(L, [e21_32, unit(0, 3), unit(1, 3), unit(2, 3)])


def ch(L, values):
    return lc.character(L, values)


# --- exterior basis -----------------------------------------------------------


def test_exterior_basis_enumeration():
    assert kz.exterior_basis(3, 2) == ((0, 1), (0, 2), (1, 2))
    assert kz.exterior_basis(5, 0) == ((),)
    assert kz.exterior_basis(4, 4) == ((0, 1, 2, 3),)
    assert kz.exterior_basis(3, 5) == ()
    assert kz.exterior_basis(3, -1) == ()
    assert len(kz.exterior_basis(6, 3)) == 20


# --- differentials ------------------------------------------------------------


def test_differential_a1():
    C = kz.build_complex(a1_rep())
    assert C.dims == (2, 2)
    assert C.d(1).to_lists() == [[gr(2), gr(0)], [gr(0), gr(3)]]


def test_differential_s2_hand_expansion():
    # d_1 = [rho(x) | rho(y)]; d_2 blocks: target {x}: -rho(y),
    # target {y}: rho(x) + I (the +I from [x,y] = y)
    C = kz.build_complex(s2_rep())
    assert C.dims == (2, 4, 2)
    assert C.d(1).to_lists() == [
        [gr(1), gr(0), gr(0), gr(1)],
        [gr(0), gr(0), gr(0), gr(0)],
    ]
    assert C.d(2).to_lists() == [
        [gr(0), gr(-1)],
        [gr(0), gr(0)],
        [gr(2), gr(0)],
        [gr(0), gr(1)],
    ]


def test_differential_zero_rep_of_abelian():
    L = lc.abelian_algebra(["a", "b"])
    rep = rp.representation(L, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    C = kz.build_complex(rep)
    for p in range(1, 3):
        assert C.d(p).is_zero()


def test_complex_property_all_fixtures():
    for rep in (a1_rep(), s2_rep(), h3_rep(), f4_rep()):
        assert rp.validate_representation(rep) == []
        C = kz.build_complex(rep)
        assert kz.validate_complex(C) == []


def test_complex_property_under_shifts():
    rep = h3_rep()
    for coeffs in ([1, 0, 0], [0, 2, 0], [1, 1, 0], [-3, 5, 0]):
        C = kz.build_complex(rep, ch(rep.algebra, coeffs))
        assert kz.validate_complex(C) == []


def test_validate_complex_catches_broken_rep():
    # rho(z) = 0 violates the homomorphism law; d o d picks up the defect
    L = lc.lie_algebra(["x", "y", "z"], {(0, 1): [0, 0, 1]})
    broken = rp.representation(
        L,
        [
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        ],
    )
    C = kz.build_complex(broken)
    assert kz.validate_complex(C) != []


# --- homology -----------------------------------------------------------------


def test_homology_a1():
    rep = a1_rep()
    L = rep.algebra
    assert kz.homology_dims(rep, ch(L, [2])).h == (1, 1)
    assert kz.homology_dims(rep, ch(L, [5])).h == (0, 0)
    assert kz.homology_dims(rep, ch(L, [3])).h == (1, 1)


def test_homology_h3_at_zero_frozen():
    rep = h3_rep()
    C = kz.build_complex(rep)
    dims, ranks, betti = kz.complex_profile(C)
    assert dims == (3, 9, 9, 3)
    assert ranks == (2, 5, 2)
    assert betti.h == (1, 2, 2, 1)
    # independent float elimination agrees on every rank
    assert tuple(_oracle_rank(C.d(p)) for p in range(1, 4)) == ranks


def test_homology_s2_values():
    rep = s2_rep()
    L = rep.algebra
    assert kz.homology_dims(rep, ch(L, [0, 0])).h == (1, 1, 0)
    assert kz.homology_dims(rep, ch(L, [2, 0])).h == (0, 1, 1)
    # the joint eigencharacter (1,0) has exact homology everywhere
    assert kz.homology_dims(rep, ch(L, [1, 0])).h == (0, 0, 0)


def test_homology_f4_common_kernel_shows_at_zero():
    rep = f4_rep()
    betti = kz.homology_dims(rep)
    assert betti.h[0] == 1
    assert betti.h[4] == 1
    oracle = tuple(_oracle_rank(kz.build_complex(rep).d(p)) for p in range(1, 5))
    C = kz.build_complex(rep)
    assert kz.complex_profile(C)[1] == oracle


def test_euler_alternating_sum_vanishes():
    cases = [
        (a1_rep(), [2]),
        (a1_rep(), [7]),
        (s2_rep(), [0, 0]),
        (s2_rep(), [1, 0]),
        (h3_rep(), [0, 0, 0]),
        (h3_rep(), [2, -1, 0]),
        (f4_rep(), [0, 0, 0, 0]),
        (f4_rep(), [1, 2, 0, 0]),
    ]
    for rep, coeffs in cases:
        betti = kz.homology_dims(rep, ch(rep.algebra, coeffs))
        assert sum((-1) ** p * h for p, h in enumerate(betti.h)) == 0


def test_homology_similarity_invariant():
    from liespec.numeric import matrix_from_rows

    rep = h3_rep()
    s = matrix_from_rows(
        [[gr(1), gr(1), gr(0)], [gr(0), gr(1), gr(2)], [gr(0), gr(0), gr(1)]], EXACT
    )
    conj = rp.conjugate_representation(rep, s)
    assert kz.homology_dims(conj).h == kz.homology_dims(rep).h


def test_homology_zero_dim_algebra():
    L = lc.abelian_algebra([])
    rep = rp.representation(L, [], m=2)
    betti = kz.homology_dims(rep)
    assert betti.h == (2,)


def test_float_backend_agrees_on_betti():
    for rep_exact in (a1_rep(), s2_rep(), h3_rep()):
        obj = rp.rep_to_json(rep_exact)
        rep_float = rp.rep_from_json(obj, backend=FLOAT)
        f_pairs = {
            1: [[2]],
            2: [[0, 0], [2, 0]],
            3: [[0, 0, 0]],
        }[rep_exact.algebra.n]
        for coeffs in f_pairs:
            be = kz.homology_dims(rep_exact, ch(rep_exact.algebra, coeffs))
            bf = kz.homology_dims(rep_float, ch(rep_float.algebra, coeffs))
            assert be.h == bf.h


def test_dimension_cap(monkeypatch):
    rep = h3_rep()
    monkeypatch.setattr(kz, "MAX_DIFFERENTIAL_ENTRIES", 5)
    with pytest.raises(kz.DimensionCap):
        kz.build_complex(rep)
    with pytest.raises(kz.DimensionCap):
        kz.homology_dims(rep)


def test_entry_budget_is_checked_before_allocating(monkeypatch):
    # abelian n = 10 with m = 10: no chain space exceeds dimension 2 520, but
    # d_4 would be 1 200 x 2 100 and d_5 2 100 x 2 520 dense entries
    L = lc.abelian_algebra([f"x{k}" for k in range(10)])
    rep = rp.representation(L, [[[0] * 10 for _ in range(10)] for _ in range(10)])
    honest = kz._differential
    built = []

    def recording(rep, p, fs):
        rows, cols = rep.m * len(kz.exterior_basis(L.n, p - 1)), rep.m * len(kz.exterior_basis(L.n, p))
        if rows * cols > 10 ** 6:
            raise AssertionError(f"allocating a {rows}x{cols} differential")
        built.append(p)
        return honest(rep, p, fs)

    monkeypatch.setattr(kz, "_differential", recording)
    with pytest.raises(kz.DimensionCap, match="d_4 would have 1200x2100"):
        kz.build_complex(rep)
    with pytest.raises(kz.DimensionCap):
        kz.homology_dims(rep)
    assert built == []
    # the splitting at degree 0 builds d_1 alone (10 x 100): within the budget
    h0, _ = kz.splitting_homotopy(rep, lc.character(L, [1] + [0] * 9), p=0)
    assert built == [1] and (h0.rows, h0.cols) == (100, 10)


# --- homotopies ------------------------------------------------------------------


def test_splitting_homotopy_invertible_single_operator():
    rep = a1_rep()
    f = ch(rep.algebra, [5])
    h0, h_m1 = kz.splitting_homotopy(rep, f, p=0)
    # d_1 h_0 = I with h_0 = (diag(2,3) - 5I)^{-1}
    assert h0.to_lists() == [
        [gr(Fraction(-1, 3)), gr(0)],
        [gr(0), gr(Fraction(-1, 2))],
    ]
    assert h_m1.cols == 0


def test_splitting_homotopy_refuses_nonzero_homology():
    rep = a1_rep()
    with pytest.raises(kz.NotSplit):
        kz.splitting_homotopy(rep, ch(rep.algebra, [2]), p=0)


def test_splitting_homotopy_h3_all_degrees():
    rep = h3_rep()
    f = ch(rep.algebra, [1, 0, 0])
    C = kz.build_complex(rep, f)
    for p in range(0, 4):
        h_p, h_pm1 = kz.complex_splitting(C, p)
        lhs = C.d(p + 1) * h_p + h_pm1 * C.d(p)
        assert (lhs - identity(C.dims[p], EXACT)).is_zero()


def test_splitting_homotopy_middle_degree_with_kernel():
    # S2 at the eigencharacter (1,0): exact complex, homotopies at every p
    rep = s2_rep()
    f = ch(rep.algebra, [1, 0])
    C = kz.build_complex(rep, f)
    for p in range(0, 3):
        h_p, h_pm1 = kz.complex_splitting(C, p)
        lhs = C.d(p + 1) * h_p + h_pm1 * C.d(p)
        assert (lhs - identity(C.dims[p], EXACT)).is_zero()


def test_splitting_homotopy_float_residual():
    obj = rp.rep_to_json(h3_rep())
    rep = rp.rep_from_json(obj, backend=FLOAT)
    f = lc.character(rep.algebra, [1, 0, 0])
    C = kz.build_complex(rep, f)
    for p in range(0, 4):
        h_p, h_pm1 = kz.complex_splitting(C, p)
        lhs = C.d(p + 1) * h_p + h_pm1 * C.d(p)
        assert (lhs - identity(C.dims[p], FLOAT)).maxnorm() <= 1e-6


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_complex_splitting_eliminates_twice(monkeypatch, backend):
    # one elimination per differential: the generalized inverses of d_p and d_(p+1)
    rep = rp.rep_from_json(rp.rep_to_json(h3_rep()), backend=backend)
    C = kz.build_complex(rep, lc.character(rep.algebra, [1, 0, 0]))
    calls = []
    entry = "_rref_zi" if backend == EXACT else "_rref"
    real = getattr(nm, entry)

    def counted(rows, *args):
        calls.append(len(rows))
        return real(rows, *args)

    monkeypatch.setattr(nm, entry, counted)
    kz.complex_splitting(C, 1)
    assert len(calls) == 2, calls


def test_exact_rank_of_a_differential_builds_no_gaussian_rational(monkeypatch):
    # rank counts pivots on the differential's Z[i] form, handed over when
    # it was built; no echelon row is turned back into Gaussian rationals
    rep = lab.random_nilpotent_rep(3, "F4", 6)
    ds = kz.build_complex(rep).ds
    calls = []
    honest = nm._gr_over
    monkeypatch.setattr(nm, "_gr_over", lambda *parts: calls.append(parts) or honest(*parts))
    ranks = [nm.rank(d) for d in ds]
    assert calls == []
    assert ranks == [_oracle_rank(d) for d in ds] and sum(ranks) > 0


def test_exact_complex_splitting_does_no_gaussian_rational_subtraction(monkeypatch):
    # q = I - G_A d_p is formed on Gaussian integers with the identity folded in
    rep = lab.random_nilpotent_rep(2, "H3", 5)
    C = kz.build_complex(rep, lc.character(rep.algebra, [7, 0, 0]))
    calls = []
    honest = GaussianRational.__sub__
    monkeypatch.setattr(GaussianRational, "__sub__", lambda x, y: calls.append(1) or honest(x, y))
    for p in range(C.n + 1):
        kz.complex_splitting(C, p)
    assert calls == []


def _wedge(seq):
    """(sign, sorted subset) of e_seq[0] ^ e_seq[1] ^ ..., sign 0 on a repeat."""
    if len(set(seq)) < len(seq):
        return 0, None
    inversions = sum(1 for i, j in itertools.combinations(range(len(seq)), 2) if seq[i] > seq[j])
    return (-1) ** inversions, tuple(sorted(seq))


def _cartan_operators(rep, f, k, q, ad_sign=1):
    """iota_q (e_k ^ . on the left) and theta_q (ad_sign * ad(e_k) on the
    wedge plus rho(e_k) - f_k on X) in the subset-major basis, written out
    entry by entry."""
    L, m = rep.algebra, rep.m
    zero = sc_zero(EXACT)
    src = list(itertools.combinations(range(L.n), q)) if q >= 0 else []
    dst = {S: i for i, S in enumerate(itertools.combinations(range(L.n), q + 1))}
    iota = [[zero] * (m * len(src)) for _ in range(m * len(dst))]
    for c, S in enumerate(src):
        sign, T = _wedge((k,) + S)
        for a in range(sign and m):
            iota[dst[T] * m + a][c * m + a] = gr(sign)
    here = {S: i for i, S in enumerate(src)}
    theta = [[zero] * (m * len(src)) for _ in range(m * len(src))]
    t_k = nm.sub_diagonal(rep.mats[k], f.coeffs[k])
    for c, S in enumerate(src):
        for a in range(m):
            for b in range(m):
                theta[c * m + a][c * m + b] += t_k.at(a, b)
        for pos, s in enumerate(S):
            for t, coeff in enumerate(L.structure(k, s)):
                sign, T = _wedge(S[:pos] + (t,) + S[pos + 1:])
                for a in range(sign and m):
                    theta[here[T] * m + a][c * m + a] += coeff * gr(sign * ad_sign)
    as_matrix = lambda rows, cols: nm.matrix_from_rows(rows, EXACT, cols=cols)
    return as_matrix(iota, m * len(src)), as_matrix(theta, m * len(src))


def _cartan_cases():
    for name in ("H3", "F4", "Z3"):
        yield pytest.param(name, lab.fixture(name).rep, id=name)
    for base in ("H3", "F4"):
        for seed in range(3):
            name = f"{base}-seed{seed}"
            yield pytest.param(name, lab.random_nilpotent_rep(seed, base), id=name)


@pytest.mark.parametrize("name,rep", list(_cartan_cases()))
def test_cartan_formula_pins_the_sign_convention(name, rep):
    # d_(q+1) iota_q + iota_(q-1) d_q == theta_q for every e_k and degree q:
    # the left wedge and +ad are the conventions the Cartan homotopy uses
    L = rep.algebra
    f = lab.random_character(random.Random(len(name)), L)
    C = kz.build_complex(rep, f)
    flipped = []
    for k in range(L.n):
        for q in range(L.n + 1):
            iota, theta = _cartan_operators(rep, f, k, q)
            iota_below, _ = _cartan_operators(rep, f, k, q - 1)
            lhs = C.d(q + 1) * iota + iota_below * C.d(q)
            assert lhs == theta, (name, k, q)
            flipped.append(lhs == _cartan_operators(rep, f, k, q, ad_sign=-1)[1])
    assert not all(flipped)


def _far_shift(L):
    # -7 on e_1 (on e_0 for A1), 0 elsewhere: e_0 has eigenvalue 0 on every
    # block of the H3 and F4 inputs, and -7 lies outside every spectrum built
    # from the catalog blocks and lab's small twists
    return lc.character(L, [-7 if i == min(1, L.n - 1) else 0 for i in range(L.n)])


def test_exact_nilpotent_homotopies_skip_elimination_and_entries(monkeypatch):
    reps = [lab.fixture(name).rep for name in ("A1", "H3", "F4", "Z3")]
    reps += [lab.random_nilpotent_rep(seed, base) for base in ("H3", "F4") for seed in range(3)]
    filled, pairs, ks = [], [], []
    honest_entries, honest_homotopy = nm.Matrix.entries.fget, kz._cartan_homotopy

    def entries(m):
        if m._entries is None:
            filled.append(m)
        return honest_entries(m)

    def eliminating(*args):
        raise AssertionError("complex_splitting on exact nilpotent input with an invertible T")

    with monkeypatch.context() as patched:
        patched.setattr(nm.Matrix, "entries", property(entries))
        patched.setattr(kz, "complex_splitting", eliminating)
        patched.setattr(kz, "_cartan_homotopy",
                        lambda L, k, *rest: ks.append(k) or honest_homotopy(L, k, *rest))
        for rep in reps:
            f = _far_shift(rep.algebra)
            pairs += [(rep, f, p, kz.splitting_homotopy(rep, f, p)) for p in range(rep.algebra.n + 1)]
    # the first e_k with rho(e_k) - f_k invertible: e_1, past the singular e_0
    assert filled == [] and set(ks) == {0, 1} and ks.count(0) == 2 * 2  # A1: 2 degrees, 2 each
    for rep, f, p, (h_p, h_pm1) in pairs:
        C = kz.build_complex(rep, f)
        lhs = C.d(p + 1) * h_p + h_pm1 * C.d(p)
        assert lhs.to_lists() == identity(C.dims[p], EXACT).to_lists(), (rep.algebra.names, p)


def test_cartan_check_forms_no_product(monkeypatch):
    # once both Cartan homotopies are built, the identity is checked row by
    # row on Z[i] rows: no product or matrix follows
    reps = [lab.fixture(name).rep for name in ("A1", "H3", "F4", "Z3")]
    reps += [lab.random_nilpotent_rep(seed, base) for base in ("H3", "F4") for seed in range(3)]
    events = []
    honest_homotopy, honest_mul, honest_sums = kz._cartan_homotopy, nm.Matrix.__mul__, nm.sums_to_identity
    honest_form = nm.zi_matrix

    def checked(pairs):
        events.append("check")
        events.append(honest_sums(pairs))
        return events[-1]

    with monkeypatch.context() as patched:
        patched.setattr(kz, "_cartan_homotopy", lambda *args: (honest_homotopy(*args), events.append("h"))[0])
        patched.setattr(nm.Matrix, "__mul__", lambda x, y: events.append("mul") or honest_mul(x, y))
        patched.setattr(nm, "zi_matrix", lambda *args: events.append("matrix") or honest_form(*args))
        patched.setattr(kz, "sums_to_identity", checked)
        for rep in reps:
            f = _far_shift(rep.algebra)
            for p in range(rep.algebra.n + 1):
                events.clear()
                kz.splitting_homotopy(rep, f, p)
                second = [t for t, e in enumerate(events) if e == "h"][1]
                assert events[second + 1:] == ["check", True], (rep.algebra.names, p, events)


def test_splitting_homotopy_eliminates_off_the_cartan_route(monkeypatch):
    calls = []
    honest = kz.complex_splitting
    monkeypatch.setattr(kz, "complex_splitting", lambda *args: calls.append(args[1]) or honest(*args))
    # S2 is not nilpotent: elimination at every degree of its exact complex
    s2 = lab.fixture("S2").rep
    for p in range(3):
        kz.splitting_homotopy(s2, ch(s2.algebra, [1, 0]), p)
    assert calls == [0, 1, 2]
    # float input eliminates too
    calls.clear()
    rep = rp.rep_from_json(rp.rep_to_json(h3_rep()), backend=FLOAT)
    for p in range(4):
        kz.splitting_homotopy(rep, lc.character(rep.algebra, [-7, 0, 0]), p)
    assert calls == [0, 1, 2, 3]
    # a member shift makes every rho(e_k) - f_k singular: elimination decides,
    # and raises NotSplit where the homology is nonzero
    calls.clear()
    rep = lab.random_nilpotent_rep(1, "H3", 7)
    member = lc.character(rep.algebra, [0, 0, 0])
    assert all(kz.homology_dims(rep, member).h)
    for p in range(4):
        with pytest.raises(kz.NotSplit):
            kz.splitting_homotopy(rep, member, p)
    assert calls == [0, 1, 2, 3]


# The residual check is what certifies a homotopy, and the shape checks keep
# elimination from returning wrong-shaped results; both must survive python -O,
# which strips assert statements.
_CORRUPTED_INVERSE_SCRIPT = textwrap.dedent(
    """
    from liespec import koszul as kz
    from liespec import lie_core as lc
    from liespec import representation as rp
    from liespec.numeric import (
        EXACT, Matrix, gr, identity, inverse, restrict_to_span, solve_matrix, zeros, zi_matrix)

    assert False, "assert statements are live: not running under -O"

    def report(label, fn):
        try:
            fn()
        except kz.VerificationFailure as e:
            print(label, "raised:", e)
        else:
            print(label, "accepted")

    report("inverse 2x3", lambda: inverse(zeros(2, 3, EXACT)))
    report("solve 2-row A, 3-row B", lambda: solve_matrix(identity(2, EXACT), zeros(3, 3, EXACT)))
    # a matrix built from its Z[i] form has no entries to count against its shape
    report("form 1 row for 2", lambda: zi_matrix(2, 2, [{0: (1, 0)}], 1))
    report("form column 2 of 2", lambda: zi_matrix(1, 2, [{2: (1, 0)}], 1))

    honest_inverse = kz.generalized_inverse

    def corrupted_inverse(m, tol=None):
        g, r = honest_inverse(m, tol)
        return g + Matrix(g.rows, g.cols, (gr(1, 1),) * (g.rows * g.cols), g.backend), r

    kz.generalized_inverse = corrupted_inverse
    L = lc.abelian_algebra(["e1"])
    rep = rp.representation(L, [[[2, 0], [0, 3]]])
    C = kz.build_complex(rep, lc.character(L, [5]))
    report("homotopy", lambda: kz.complex_splitting(C, 0))
    report("cartan homotopy", lambda: kz.splitting_homotopy(rep, lc.character(L, [5]), 0))
    # on S2, ad(x) fixes x ^ y: past its nilpotency gate the series never ends
    kz.is_nilpotent = lambda L: True
    S2 = lc.lie_algebra(["x", "y"], {(0, 1): [0, 1]})
    report("cartan series", lambda: kz._cartan_terms(S2, 0, 1))

    # a wrong root slipping through the eigenvalue search would surface as a
    # weight that is no character of [x, y] = y
    from liespec import spectra as sp
    s2 = rp.representation(S2, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
    sp.triangular_weights = lambda rep, tol=None: [(gr(1), gr(1))]
    report("weight", lambda: sp.weight_candidates(s2))
    sp.weight_candidates = lambda rep, tol=None: ((gr(1), gr(1)),)
    report("candidate", lambda: sp.spectral_candidates(s2))

    # a weight block restricted through the wrong free rows of its kernel
    # basis fails its invariance check
    honest_kernel = sp._kernel_with_free_rows

    def shifted_free_rows(m, tol=None):
        v, free = honest_kernel(m, tol)
        return v, [(j + 1) % v.rows for j in free]

    sp._kernel_with_free_rows = shifted_free_rows
    report("block", lambda: sp.weight_blocks(rep))

    # x alone spans no ideal of H3, so a search that restricts rho(y) to the
    # kernel of rho(x) finds that kernel not invariant
    from liespec import lab
    sp._kernel_with_free_rows = honest_kernel
    sp._ideal_order = lambda L: tuple(range(L.n))
    report("eigen", lambda: sp.joint_eigencharacters(lab.fixture("H3").rep))

    # rho V = 0 satisfies V R == rho V, but V is not the identity on row 0
    report("restrict", lambda: restrict_to_span(
        zeros(2, 2, EXACT), zi_matrix(2, 1, [{}, {0: (1, 0)}], 1), [0], "span"))
    """
)


def _run_optimised(script):
    """Run script under python -O with this checkout's src on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


_SUMS_TO_IDENTITY_SCRIPT = textwrap.dedent(
    """
    from liespec.numeric import EXACT, FLOAT, VerificationFailure, identity, sums_to_identity, zeros

    assert False, "assert statements are live: not running under -O"

    for label, pairs in [
            ("no pairs", []),
            ("inner sizes", [(zeros(2, 3, EXACT), zeros(2, 2, EXACT))]),
            ("not square", [(zeros(2, 3, EXACT), zeros(3, 3, EXACT))]),
            ("two sizes", [(identity(2, EXACT), identity(2, EXACT)), (identity(3, EXACT), identity(3, EXACT))]),
            ("float", [(identity(2, FLOAT), identity(2, FLOAT))])]:
        try:
            sums_to_identity(pairs)
        except VerificationFailure as e:
            print(label, "raised:", e)
        else:
            print(label, "accepted")
    """
)


def test_homotopy_check_survives_optimised_bytecode():
    proc = _run_optimised(_CORRUPTED_INVERSE_SCRIPT)
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("inverse 2x3 raised:"), proc.stdout
    assert lines[1].startswith("solve 2-row A, 3-row B raised:"), proc.stdout
    assert lines[2] == "form 1 row for 2 raised: 1 sparse rows do not fit a 2x2 matrix", proc.stdout
    assert lines[3] == "form column 2 of 2 raised: 1 sparse rows do not fit a 1x2 matrix", proc.stdout
    assert lines[4] == "homotopy raised: homotopy identity failed verification", proc.stdout
    assert lines[5] == "cartan homotopy raised: homotopy identity failed verification", proc.stdout
    assert lines[6] == "cartan series raised: ad(e_0) is not nilpotent on degree 2", proc.stdout
    assert lines[7].startswith("weight raised: non-character weight"), proc.stdout
    assert lines[8].startswith("candidate raised: non-character candidate"), proc.stdout
    assert lines[9] == "block raised: generalized weight space is not invariant", proc.stdout
    assert lines[10] == "eigen raised: joint eigenspace is not invariant", proc.stdout
    assert lines[11] == "restrict raised: span is not invariant", proc.stdout


def test_identity_sum_shape_checks_survive_optimised_bytecode():
    lines = _run_optimised(_SUMS_TO_IDENTITY_SCRIPT).stdout.splitlines()
    labels = ["no pairs", "inner sizes", "not square", "two sizes", "float"]
    assert [line.split(" raised: ")[0] for line in lines] == labels, lines
    assert lines[1] == "inner sizes raised: no exact sum of square products of one size: 2x3 times 2x2"


# Caller input is checked with ValueError and the finite-rank proxy's
# invariants with VerificationFailure; python -O strips assert statements.
_INPUT_CHECKS_SCRIPT = textwrap.dedent(
    """
    import types

    from liespec import lab
    from liespec import lie_core as lc
    from liespec import representation as rp
    from liespec import spectra as sp
    from liespec.numeric import EXACT, FLOAT, VerificationFailure, gr, identity

    assert False, "assert statements are live: not running under -O"

    def report(label, fn, error):
        try:
            fn()
        except error as e:
            print(label, "raised:", e)
        else:
            print(label, "accepted")

    Z2 = lc.abelian_algebra(["x", "y"])
    S2 = lc.lie_algebra(["x", "y"], {(0, 1): [0, 1]})
    s2 = rp.representation(S2, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
    z2 = rp.representation(Z2, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
    report("index pair", lambda: lc.LieAlgebra(("x", "y"), ((1, 0, (gr(0), gr(1))),), EXACT), ValueError)
    report("coefficient count", lambda: lc.LieAlgebra(("x", "y"), ((0, 1, (gr(1),)),), EXACT), ValueError)
    report("duplicate", lambda: lc.LieAlgebra(("x", "y"), ((0, 1, (gr(0), gr(1))),) * 2, EXACT),
           ValueError)
    report("bracket order", lambda: lc.lie_algebra(["x", "y"], {(1, 0): [0, 1]}), ValueError)
    report("bracket length", lambda: lc.lie_algebra(["x", "y"], {(0, 1): [1]}), ValueError)
    report("bracket vectors", lambda: lc.bracket(S2, (gr(1),), (gr(0), gr(1))), ValueError)
    report("family", lambda: sp.SpectrumKind("gamma", False, False, None), ValueError)
    report("taylor k", lambda: sp.SpectrumKind("taylor", False, False, 1), ValueError)
    report("delta k", lambda: sp.SpectrumKind("delta", False, False, None), ValueError)
    report("pi k", lambda: sp.SpectrumKind("pi", False, False, -1), ValueError)
    report("no matrices", lambda: rp.representation(lc.abelian_algebra([]), []), ValueError)
    report("conjugate shape", lambda: rp.conjugate_representation(s2, identity(3, EXACT)), ValueError)
    report("conjugate backend", lambda: rp.conjugate_representation(s2, identity(2, FLOAT)), ValueError)
    report("direct sum", lambda: rp.direct_sum(s2, z2), ValueError)

    config = lab.ExperimentConfig("h3", (6,), 3, seed=7)
    honest_conjugate = lab.conjugate_representation
    lab.conjugate_representation = lambda rep, s: rp.Representation(
        rep.algebra, rep.m, tuple(identity(rep.m, rep.backend) for _ in rep.mats))
    report("proxy rank", lambda: lab.finite_rank_proxy(config), VerificationFailure)
    lab.conjugate_representation = honest_conjugate
    lab.spectrum = lambda rep, kind: types.SimpleNamespace(member_coeffs=())
    report("proxy zero", lambda: lab.finite_rank_proxy(config), VerificationFailure)
    """
)


def test_input_checks_survive_optimised_bytecode():
    lines = _run_optimised(_INPUT_CHECKS_SCRIPT).stdout.splitlines()
    labels = ["index pair", "coefficient count", "duplicate", "bracket order", "bracket length",
              "bracket vectors", "family", "taylor k", "delta k", "pi k", "no matrices",
              "conjugate shape", "conjugate backend", "direct sum", "proxy rank", "proxy zero"]
    assert len(lines) == len(labels), lines
    for label, line in zip(labels, lines):
        assert line.startswith(f"{label} raised:"), lines


def _package_nodes():
    """(module file name, node) for every syntax node of the package."""
    package = os.path.dirname(os.path.abspath(kz.__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                yield name, node


def test_package_has_no_assert_statements():
    # checks that must hold under python -O are exceptions, never assert statements
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes() if isinstance(node, ast.Assert)]
    assert found == []


# module-level names that no code names and that stay, with the reason
_UNNAMED_KEPT = {
    "solve_matrix": "perfbench/tracing.py wraps it by its name as a string",
    "adjoint_rep": "the transpose side of the end-degree identity sigma_0 = eig(rho^T)",
}


def test_every_package_definition_is_named_somewhere():
    # a module-level def or class that no Name or Attribute in the package or
    # the benchmark refers to is dead code
    package = os.path.dirname(os.path.abspath(kz.__file__))
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
    named, defined = set(), []
    for folder in (package, bench):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    tree = ast.parse(fh.read(), name)
                named.update(getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(tree))
                if folder == package:
                    defined += [(name, node.name) for node in tree.body
                                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unnamed = [f"{module}:{d}" for module, d in defined if d not in named and d not in _UNNAMED_KEPT]
    assert unnamed == []


def test_only_numeric_names_the_float_tolerance():
    # every float zero test takes its threshold from numeric.zero_threshold
    found = [
        f"{name}:{getattr(node, 'lineno', '?')}" for name, node in _package_nodes()
        if name != "numeric.py" and "TAU" in (getattr(node, "id", None), getattr(node, "name", None),
                                              getattr(node, "attr", None))
    ]
    assert found == []


_ZI_INTERNALS = {"zi_form", "zi_matrix", "ZiRow", "ZiForm", "_clear_denominators"}


def test_only_numeric_names_the_gaussian_integer_form():
    # the Z[i] form is numeric's own: every other module goes through its
    # matrix routines, kron_sum among them
    def names(node):
        return {getattr(node, field, None) for field in ("id", "name", "attr")} - {None}

    found = [
        f"{name}:{getattr(node, 'lineno', '?')}:{sorted(names(node))}" for name, node in _package_nodes()
        if name != "numeric.py" and any(n in _ZI_INTERNALS or n.startswith("_zi_") for n in names(node))
    ]
    assert found == []


def test_negative_homology_raises_typed_error():
    # d_1 of rank 2 into a 1-dimensional degree 0 is no chain complex
    C = kz.ChainComplex(EXACT, (1, 2), (identity(2, EXACT),))
    with pytest.raises(kz.VerificationFailure):
        kz.complex_profile(C)


# Degree and shape checks guard the block assembly, which indexes rho(e_l) as
# an m x m array and the complex by degree; python -O strips assert statements.
_OPTIMISED_PREAMBLE = textwrap.dedent(
    """
    from liespec import koszul as kz
    from liespec import lie_core as lc
    from liespec import representation as rp
    from liespec.numeric import FLOAT, identity, zeros

    assert False, "assert statements are live: not running under -O"

    def report(label, fn, error):
        try:
            fn()
        except error as e:
            print(label, "raised:", e)
        else:
            print(label, "accepted")

    H3 = lc.lie_algebra(["x", "y", "z"], {(0, 1): [0, 0, 1]})
    h3 = rp.representation(H3, [
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ])
    """
)

_DEGREE_SCRIPT = _OPTIMISED_PREAMBLE + textwrap.dedent(
    """
    f = lc.character(H3, [1, 0, 0])
    report("splitting 9", lambda: kz.splitting_homotopy(h3, f, p=9), ValueError)
    report("splitting -1", lambda: kz.splitting_homotopy(h3, f, p=-1), ValueError)
    report("complex splitting 4", lambda: kz.complex_splitting(kz.build_complex(h3, f), 4), ValueError)
    """
)

_SHAPE_SCRIPT = _OPTIMISED_PREAMBLE + textwrap.dedent(
    """
    mats = h3.mats
    report("too few", lambda: rp.Representation(H3, 3, mats[:2]), kz.VerificationFailure)
    report("wrong size", lambda: rp.Representation(H3, 2, mats), kz.VerificationFailure)
    report("non-square", lambda: rp.Representation(H3, 3, mats[:2] + (zeros(3, 2, H3.backend),)),
           kz.VerificationFailure)
    report("backend", lambda: rp.Representation(H3, 3, mats[:2] + (identity(3, FLOAT),)),
           kz.VerificationFailure)
    """
)


def test_degree_checks_survive_optimised_bytecode():
    lines = _run_optimised(_DEGREE_SCRIPT).stdout.splitlines()
    assert len(lines) == 3, lines
    for label, line in zip(["splitting 9", "splitting -1", "complex splitting 4"], lines):
        assert line.startswith(f"{label} raised: degree "), lines


def test_representation_shape_checks_survive_optimised_bytecode():
    lines = _run_optimised(_SHAPE_SCRIPT).stdout.splitlines()
    assert len(lines) == 4, lines
    for label, line in zip(["too few", "wrong size", "non-square", "backend"], lines):
        assert line.startswith(f"{label} raised:"), lines


# --- block assembly against a naive reference -------------------------------------


def _naive_differential(rep, p):
    """d_p written out from the formula in koszul's module docstring: a dense
    grid, every term added entry by entry."""
    L, m, backend = rep.algebra, rep.m, rep.backend
    src = list(itertools.combinations(range(L.n), p))
    dst = list(itertools.combinations(range(L.n), p - 1))
    zero = sc_zero(backend)
    eye = identity(m, backend)
    grid = [[zero] * (m * len(src)) for _ in range(m * len(dst))]

    def add(target, si, block, coeff):
        ti = dst.index(target)
        for a in range(m):
            for b in range(m):
                grid[ti * m + a][si * m + b] = grid[ti * m + a][si * m + b] + coeff * block.at(a, b)

    one = sc_one(backend)
    for si, S in enumerate(src):
        for k, l in enumerate(S):  # (-1)^(k+1) with k counted from 1
            add(S[:k] + S[k + 1:], si, rep.mats[l], one if k % 2 == 0 else -one)
        for i, j in itertools.combinations(range(p), 2):
            rest = tuple(x for t, x in enumerate(S) if t not in (i, j))
            for t, c in enumerate(L.structure(S[i], S[j])):
                if t in rest:
                    continue
                # e_t ^ e_rest: moving e_t into place passes the smaller indices
                parity = (i + j + 1) + sum(1 for u in rest if u < t)
                add(tuple(sorted(rest + (t,))), si, eye, c if parity % 2 == 0 else -c)
    return grid


def _assembly_cases():
    for backend in (EXACT, FLOAT):
        for name in ("A1", "H3", "S2", "Z3", "F4"):
            yield backend, lab.fixture(name, backend).rep
        for seed, base, m in ((0, "H3", 5), (1, "H3", 6), (0, "F4", 6), (2, "A1", 4), (3, "Z3", 5)):
            yield backend, lab.random_nilpotent_rep(seed, base, m, backend)


@pytest.mark.parametrize("backend,rep", list(_assembly_cases()))
def test_build_complex_matches_shift_then_naive_assembly(backend, rep):
    L = rep.algebra
    rng = random.Random(L.n * 100 + rep.m)
    shifts = [None, lc.character(L, [0] * L.n)] + [lab.random_character(rng, L) for _ in range(2)]
    if backend == EXACT:
        # a Gaussian-rational shift, on the coordinates a character may use
        free = [lab.random_character(random.Random(7), L).coeffs[k] for k in range(L.n)]
        shifts.append(lc.character(L, [c * gr(Fraction(1, 3), Fraction(-2, 5)) for c in free]))
    for f in shifts:
        shifted = rep if f is None else rp.shift(rep, f)
        C = kz.build_complex(rep, f)
        assert len(C.ds) == L.n
        for p in range(1, L.n + 1):
            assert C.d(p).to_lists() == _naive_differential(shifted, p), (p, f)


def test_float_differential_folds_the_shift_into_the_bracket_scalar_first():
    # on S2, [x, y] = y puts the bracket scalar c of B_2 and the shift -f_x of
    # E_(x,2) on one block of d_2: a float diagonal entry there is v + (c - f),
    # with c - f rounded before rho(x)'s entry v is added
    L = lc.lie_algebra(["x", "y"], {(0, 1): [0, 1]}, FLOAT)
    v = 2.0 ** 53 + 2  # one ulp is 2 here, so each order of the two sums rounds differently
    rep = rp.Representation(L, 1, (nm.matrix_from_rows([[complex(v)]], FLOAT),
                                   nm.matrix_from_rows([[0j]], FLOAT)))
    ops, scalars = kz._differential_pattern(L, 2)
    c = scalars.at(1, 0)  # the block of d_2 from x ^ y to y
    f = complex(c.real) if c.real else 1 + 0j
    assert ops[0].at(1, 0) == 1 and c != 0
    got = kz._differential(rep, 2, (f, 0j)).at(1, 0)
    assert got == v + (c - f) and got not in ((v + c) - f, (v - f) + c), (got, c, f)


def test_build_complex_rejects_non_characters():
    rep = s2_rep()  # [x, y] = y, so a character vanishes on y
    not_a_character = lc.Character(rep.algebra, (gr(0), gr(1)))
    with pytest.raises(lc.NotACharacter):
        kz.build_complex(rep, not_a_character)
    with pytest.raises(lc.NotACharacter):
        kz.splitting_homotopy(rep, not_a_character, p=1)
    z3 = lab.fixture("Z3").rep  # the zero representation of the Heisenberg algebra
    other = lc.character(lc.abelian_algebra(["a", "b", "c"]), [1, 0, 0])
    with pytest.raises(lc.NotACharacter):
        kz.build_complex(z3, other)
    with pytest.raises(lc.NotACharacter):
        kz.homology_dims(z3, other)


def test_splitting_homotopy_builds_at_most_two_differentials(monkeypatch):
    built = []
    real = kz._differential

    def counted(rep, p, fs):
        built.append(p)
        return real(rep, p, fs)

    def no_shift(*args, **kwargs):
        raise AssertionError("the Koszul build must not call representation.shift")

    monkeypatch.setattr(kz, "_differential", counted)
    monkeypatch.setattr(rp, "shift", no_shift)
    monkeypatch.setattr(kz, "shift", no_shift, raising=False)
    for rep, coeffs in ((h3_rep(), [1, 0, 0]), (f4_rep(), [1, 2, 0, 0]), (s2_rep(), [1, 0])):
        f = ch(rep.algebra, coeffs)
        full = kz.build_complex(rep, f)
        assert sorted(built) == list(range(1, rep.algebra.n + 1))
        for p in range(rep.algebra.n + 1):
            built.clear()
            h_p, h_pm1 = kz.splitting_homotopy(rep, f, p)
            assert sorted(built) == [q for q in (p, p + 1) if 1 <= q <= rep.algebra.n]
            expect = kz.complex_splitting(full, p)
            assert (h_p.to_lists(), h_pm1.to_lists()) == (expect[0].to_lists(), expect[1].to_lists())
        built.clear()
