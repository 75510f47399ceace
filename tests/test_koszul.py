"""Chain complex construction, homology, and homotopy certificates.

Expected matrices for the 2-dimensional fixtures below were expanded from
the differential formula by hand; larger ranks are cross-checked against
the naive float elimination oracle _oracle_rank, which shares no code with
the library's rank path.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from liespec import koszul as kz
from liespec import lie_core as lc
from liespec import representation as rp
from liespec.numeric import EXACT, FLOAT, Fraction, GaussianRational, gr, identity, zeros


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


def test_dimension_cap():
    rep = h3_rep()
    with pytest.raises(kz.DimensionCap):
        kz.build_complex(rep, cap=5)
    with pytest.raises(kz.DimensionCap):
        kz.homology_dims(rep, cap=5)


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


# The residual check is what certifies a homotopy; it must survive python -O,
# which strips assert statements.
_CORRUPTED_INVERSE_SCRIPT = textwrap.dedent(
    """
    import sys
    from liespec import koszul as kz
    from liespec import lie_core as lc
    from liespec import representation as rp
    from liespec.numeric import gr, identity

    assert False, "assert statements are live: not running under -O"
    honest_inverse = kz.inverse

    def corrupted_inverse(m, tol=None):
        inv = honest_inverse(m, tol)
        return inv + identity(inv.rows, inv.backend).scale(gr(1, 1))

    kz.inverse = corrupted_inverse
    L = lc.abelian_algebra(["e1"])
    rep = rp.representation(L, [[[2, 0], [0, 3]]])
    C = kz.build_complex(rep, lc.character(L, [5]))
    try:
        kz.complex_splitting(C, 0)
    except kz.VerificationFailure as e:
        print("raised:", e)
        sys.exit(0)
    print("corrupted homotopy was accepted")
    sys.exit(1)
    """
)


def test_homotopy_check_survives_optimised_bytecode():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPTED_INVERSE_SCRIPT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "raised: homotopy identity failed verification" in proc.stdout


def test_negative_homology_raises_typed_error():
    # d_1 of rank 2 into a 1-dimensional degree 0 is no chain complex
    C = kz.ChainComplex(EXACT, (1, 2), (identity(2, EXACT),))
    with pytest.raises(kz.VerificationFailure):
        kz.complex_profile(C)


def test_fredholm_split_certificate_is_degenerate_identity():
    rep = s2_rep()
    for p in range(0, 3):
        cert = kz.fredholm_split_certificate(rep, p=p)
        assert cert.degenerate
        C = kz.build_complex(rep)
        lhs = C.d(p + 1) * cert.h_p + cert.h_pm1 * C.d(p)
        rhs = identity(C.dims[p], EXACT) - cert.k_p
        assert (lhs - rhs).is_zero()
