"""Structure-constant algebra layer: validation, series, flags, characters.

Fixtures used throughout:
  h3      Heisenberg, [x,y] = z, z central.
  aff1    [x,y] = y; solvable, not nilpotent.
  ab2     abelian on two generators.
"""

import itertools
import random
from fractions import Fraction

import pytest

from liespec import cli, lab
from liespec import lie_core as lc
from liespec import numeric as nm
from liespec.numeric import EXACT, FLOAT, gr


def h3():
    return lc.lie_algebra(["x", "y", "z"], {(0, 1): [0, 0, 1]})


def aff1():
    return lc.lie_algebra(["x", "y"], {(0, 1): [0, 1]})


def ab2():
    return lc.abelian_algebra(["e1", "e2"])


# --- validation ---------------------------------------------------------------


def test_validate_h3_and_abelian_ok():
    assert lc.validate_lie_algebra(h3()) == []
    assert lc.validate_lie_algebra(ab2()) == []
    assert lc.validate_lie_algebra(aff1()) == []


def test_validate_reports_jacobi_violation():
    # [x,y]=x, [y,z]=y, [x,z]=0: the cyclic sum at (x,y,z) is
    # [[x,y],z] + [[y,z],x] + [[z,x],y] = 0 + [y,x] + 0 = -x != 0
    bad = lc.lie_algebra(
        ["x", "y", "z"], {(0, 1): [1, 0, 0], (1, 2): [0, 1, 0]}
    )
    violations = lc.validate_lie_algebra(bad)
    assert len(violations) == 1
    triple, residual = violations[0]
    assert triple == (0, 1, 2)
    assert residual == (gr(-1), gr(0), gr(0))


def test_validate_float_backend():
    bad = lc.lie_algebra(
        ["x", "y", "z"], {(0, 1): [1, 0, 0], (1, 2): [0, 1, 0]}, backend=FLOAT
    )
    assert len(lc.validate_lie_algebra(bad)) == 1
    ok = lc.lie_algebra(["x", "y", "z"], {(0, 1): [0, 0, 1]}, backend=FLOAT)
    assert lc.validate_lie_algebra(ok) == []


def _all_triples_violations(L, tol=None):
    # reference: the residual of every triple i < j < k, whether or not any
    # of its pairs has a table entry
    scale = max((nm.sc_abs(c) for _, _, row in L.table for c in row), default=0.0)
    thr = nm.zero_threshold(L.backend, tol, lambda: max(1.0, scale * scale))
    basis = [tuple(nm.make_scalar(int(k == i), L.backend) for k in range(L.n)) for i in range(L.n)]
    out = []
    for i in range(L.n):
        for j in range(i + 1, L.n):
            for k in range(j + 1, L.n):
                r1 = lc.bracket(L, L.structure(i, j), basis[k])
                r2 = lc.bracket(L, L.structure(j, k), basis[i])
                r3 = lc.bracket(L, L.structure(k, i), basis[j])
                residual = tuple(a + b + c for a, b, c in zip(r1, r2, r3))
                if not all(nm.sc_is_zero(x, thr) for x in residual):
                    out.append(((i, j, k), residual))
    return out


def _sparse_algebra(seed, backend):
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = {}
    for i, j in rng.sample(pairs, rng.randint(1, min(4, len(pairs)))):
        brackets[(i, j)] = [rng.choice((0, 0, 0, 1, -2)) for _ in range(n)]
    return lc.lie_algebra([f"e{k}" for k in range(n)], brackets, backend)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_validate_matches_the_all_triples_loop(backend):
    algebras = [fix.rep.algebra for fix in lab.catalog(backend)]
    algebras += [_sparse_algebra(seed, backend) for seed in range(40)]
    violating = 0
    for L in algebras:
        expected = _all_triples_violations(L)
        assert lc.validate_lie_algebra(L) == expected
        violating += bool(expected)
    assert 0 < violating < len(algebras)


def test_validate_brackets_nothing_on_an_abelian_algebra(monkeypatch):
    calls = []
    honest = lc.bracket

    def counting(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(lc, "bracket", counting)
    assert lc.validate_lie_algebra(lc.abelian_algebra([f"e{k}" for k in range(40)])) == []
    assert calls == []


# --- bracket ----------------------------------------------------------------


def test_bracket_defining_relation_and_alternation():
    L = h3()
    x, y = (gr(1), gr(0), gr(0)), (gr(0), gr(1), gr(0))
    assert lc.bracket(L, x, y) == (gr(0), gr(0), gr(1))
    assert lc.bracket(L, y, x) == (gr(0), gr(0), gr(-1))
    assert lc.bracket(L, x, x) == L.zero_vector()


def test_bracket_bilinear():
    L = h3()
    xy = (gr(1), gr(1), gr(0))  # x + y
    y = (gr(0), gr(1), gr(0))
    assert lc.bracket(L, xy, y) == (gr(0), gr(0), gr(1))


def _counted_products(monkeypatch):
    """The list that every GaussianRational product appends to from now on."""
    calls = []
    honest = nm.GaussianRational.__mul__

    def counting(self, other):
        calls.append(1)
        return honest(self, other)

    monkeypatch.setattr(nm.GaussianRational, "__mul__", counting)
    return calls


def test_bracket_without_a_table_entry_multiplies_nothing(monkeypatch):
    L = h3()
    x, z = (gr(1), gr(0), gr(0)), (gr(0), gr(0), gr(1))
    calls = _counted_products(monkeypatch)
    assert lc.bracket(L, x, z) == L.zero_vector()
    assert calls == []


def test_structure_of_an_abelian_algebra_multiplies_nothing(monkeypatch):
    # the full expansion made 159 120 products here, all of them c * 0
    L = lc.abelian_algebra([f"ab40_{k}" for k in range(40)])
    calls = _counted_products(monkeypatch)
    facts = cli._structure(L, None)
    assert facts["lower_central_dims"] == [40, 0] and facts["chain_dims"] == list(range(41))
    assert calls == []


def _full_expansion_bracket(L, u, v):
    """bracket over every pair of nonzero coordinates, table entry or not."""
    out = list(L.zero_vector())
    for i in range(L.n):
        if nm.sc_is_zero(u[i]):
            continue
        for j in range(L.n):
            if nm.sc_is_zero(v[j]) or i == j:
                continue
            c = u[i] * v[j]
            for k, s in enumerate(L.structure(i, j)):
                out[k] = out[k] + c * s
    return tuple(out)


def test_bracket_is_bit_identical_to_the_full_expansion():
    rng = random.Random(5)
    for fix in lab.catalog(FLOAT):
        for seed in range(3):
            L = _in_seeded_basis(lab.fixture(fix.name).rep.algebra, seed, FLOAT)
            for _ in range(20):
                u, v = ([complex(rng.randint(-3, 3), rng.randint(-3, 3)) / rng.randint(1, 7)
                         * rng.randint(0, 1) for _ in range(L.n)] for _ in range(2))
                # repr keeps the sign of a float zero, which == does not
                assert ([repr(x) for x in lc.bracket(L, u, v)]
                        == [repr(x) for x in _full_expansion_bracket(L, u, v)]), (L, u, v)


# --- derived subalgebra and series -------------------------------------------


def test_derived_subalgebra():
    assert lc.derived_subalgebra(ab2()).dim == 0
    d = lc.derived_subalgebra(h3())
    assert d.basis == ((gr(0), gr(0), gr(1)),)
    d2 = lc.derived_subalgebra(aff1())
    assert d2.basis == ((gr(0), gr(1)),)


def test_series_and_classification():
    assert lc.is_nilpotent(h3()) and lc.is_solvable(h3())
    assert lc.is_nilpotent(ab2())
    A = aff1()
    assert lc.is_solvable(A) and not lc.is_nilpotent(A)
    # lower central series of aff1 stabilizes at <y>
    lcs = lc.lower_central_series(A)
    assert [s.dim for s in lcs] == [2, 1]
    assert [s.dim for s in lc.lower_central_series(h3())] == [3, 1, 0]


def test_derived_vs_lower_central_first_step():
    for L in (h3(), aff1(), ab2()):
        series = lc.lower_central_series(L)
        step1 = series[1] if len(series) > 1 else lc.zero_subspace(L)
        assert lc.derived_subalgebra(L).basis == step1.basis


def test_series_stops_when_the_dimension_does_not_drop():
    # a float series once read 4, 2, 1, 3, 2, 1, 3, ... and stopped only on a tie
    L = lc.abelian_algebra([f"cyc{k}" for k in range(4)])
    dims = itertools.cycle([2, 1, 3])
    calls = []

    def step(S):
        calls.append(S.dim)
        if len(calls) > 2 * (L.n + 1):
            raise AssertionError(f"series still stepping after {len(calls) - 1} steps")
        return lc.span(L, [lc._basis_vector(L, k) for k in range(next(dims))])

    assert [S.dim for S in lc._series(lc.full_subspace(L), step)] == [4, 2, 1]
    assert calls == [4, 2, 1]


# --- flags --------------------------------------------------------------------


def verify_chain(L, chain):
    """Explicit check of the flag conditions; empty list means ok.

      i.  L_0 = 0 and L_n = L;
      ii. L_i ⊆ L_{i+1} with dim L_i = i;
      iii.[L_i, L_j] ⊆ L_{i-1} for 1 ≤ i < j ≤ n.
    """
    problems = []
    if len(chain) != L.n + 1:
        problems.append(f"condition ii fails: chain length {len(chain)} != {L.n + 1}")
        return problems
    if chain[0].dim != 0:
        problems.append("condition i fails: L_0 != 0")
    if chain[-1].dim != L.n:
        problems.append("condition i fails: L_n != L")
    for i in range(len(chain)):
        if chain[i].dim != i:
            problems.append(f"condition ii fails: dim L_{i} = {chain[i].dim}")
        if i > 0 and not all(lc.contains(chain[i], v) for v in chain[i - 1].basis):
            problems.append(f"condition ii fails: L_{i-1} not inside L_{i}")
    if problems:
        return problems
    for i in range(1, L.n + 1):
        for j in range(i + 1, L.n + 1):
            if not all(lc.contains(chain[i - 1], lc.bracket(L, u, v))
                       for u in chain[i].basis for v in chain[j].basis):
                problems.append(
                    f"condition iii fails at (i,j)=({i},{j}): [L_{i},L_{j}] not inside L_{i-1}"
                )
    return problems


def test_chain_h3_frozen():
    L = h3()
    chain = lc.jordan_holder_chain(L)
    assert [s.dim for s in chain] == [0, 1, 2, 3]
    assert chain[1].basis == ((gr(0), gr(0), gr(1)),)
    assert chain[2].basis == ((gr(0), gr(1), gr(0)), (gr(0), gr(0), gr(1)))
    assert verify_chain(L, chain) == []


@pytest.mark.parametrize("base", ["H3", "F4"])
def test_chain_refines_lower_central_series_with_central_summand(base):
    # base ⊕ ℂw: the center holds w outside [L, L], so a valid flag may
    # start at ⟨w⟩ or inside [L, L]; this one runs through every C^k
    A = lab.fixture(base).rep.algebra
    L = lc.lie_algebra(A.names + ("w",), {(i, j): c + (0,) for i, j, c in A.table})
    chain = lc.jordan_holder_chain(L)
    assert all(term in chain for term in lc.lower_central_series(L))
    assert verify_chain(L, chain) == []


def test_chain_abelian():
    L = ab2()
    chain = lc.jordan_holder_chain(L)
    assert [s.dim for s in chain] == [0, 1, 2]
    assert verify_chain(L, chain) == []


def test_chain_rejects_non_nilpotent():
    with pytest.raises(lc.NotNilpotent):
        lc.jordan_holder_chain(aff1())


def test_verify_chain_flags_bad_flag():
    L = h3()
    bad = [
        lc.zero_subspace(L),
        lc.span(L, [(gr(1), gr(0), gr(0))]),
        lc.span(L, [(gr(1), gr(0), gr(0)), (gr(0), gr(1), gr(0))]),
        lc.full_subspace(L),
    ]
    problems = verify_chain(L, bad)
    assert problems and all("condition iii" in p for p in problems)
    assert any("(2,3)" in p for p in problems)


def test_verify_chain_flags_wrong_length():
    L = h3()
    assert verify_chain(L, [lc.zero_subspace(L), lc.full_subspace(L)])


def test_derived_inside_second_from_top_flag_member():
    # for these flags L^2 sits below the (n-2)nd member whenever n >= 2
    for L in (h3(), ab2(), lc.abelian_algebra(["a"])):
        if L.n < 2:
            continue
        chain = lc.jordan_holder_chain(L)
        assert all(lc.contains(chain[L.n - 2], v) for v in lc.derived_subalgebra(L).basis)


def _greedy_chain(L, tol=None):
    """The flag as a search: each step reduces every basis vector of the
    layer's top term modulo the current member, scales each nonzero result
    to a leading 1 and takes the lexicographically smallest in (re, im)."""
    def normalize_leading(vec, thr):
        lead = next(x for x in vec if not nm.sc_is_zero(x, thr))
        return tuple(x / lead for x in vec)

    chain = [lc.zero_subspace(L)]
    for target in reversed(lc.lower_central_series(L, tol)):
        while chain[-1].dim < target.dim:
            current = chain[-1]
            candidates = []
            for b in target.basis:
                r = lc.reduce_mod(current, b, tol)
                thr = nm.zero_threshold(L.backend, tol, lambda: max(nm.sc_abs(x) for x in r))
                if not all(nm.sc_is_zero(x, thr) for x in r):
                    candidates.append(normalize_leading(r, thr))
            pick = min(candidates, key=lambda v: tuple(nm.scalar_key(x) for x in v))
            chain.append(lc.span(L, list(current.basis) + [pick], tol))
    return tuple(chain)


def _strictly_upper_triangular(k):
    """n_k: strictly upper-triangular k x k matrices in the basis E_ab, a < b,
    with [E_ab, E_cd] = [b == c] E_ad - [d == a] E_cb."""
    units = [(a, b) for a in range(k) for b in range(a + 1, k)]
    index = {u: i for i, u in enumerate(units)}
    brackets = {}
    for i, (a, b) in enumerate(units):
        for j, (c, d) in enumerate(units[i + 1:], start=i + 1):
            coeffs = [0] * len(units)
            if b == c:
                coeffs[index[(a, d)]] += 1
            if d == a:
                coeffs[index[(c, b)]] -= 1
            brackets[(i, j)] = coeffs
    return lc.lie_algebra([f"E{a}{b}" for a, b in units], brackets)


def _flag_algebras():
    """Exact nilpotent algebras: the nilpotent catalog, H3 and F4 with a
    central summand, and n_3, n_4, n_5."""
    out = [lab.fixture(name).rep.algebra for name in ("A1", "H3", "Z3", "F4")]
    for base in ("H3", "F4"):
        A = lab.fixture(base).rep.algebra
        out.append(lc.lie_algebra(A.names + ("w",), {(i, j): c + (0,) for i, j, c in A.table}))
    return out + [_strictly_upper_triangular(k) for k in (3, 4, 5)]


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_chain_matches_the_greedy_search(backend):
    # exact in the standard basis and four skewed ones; float in the standard
    # basis only, where the search sees no rounding residue
    checked = 0
    for A in _flag_algebras():
        algebras = [lc.lie_algebra(A.names, {(i, j): c for i, j, c in A.table}, backend)]
        if backend == EXACT:
            algebras += [_in_seeded_basis(A, seed, EXACT) for seed in range(4)]
        for L in algebras:
            assert lc.jordan_holder_chain(L) == _greedy_chain(L), L
            checked += 1
    with pytest.raises(lc.NotNilpotent):
        lc.jordan_holder_chain(lab.fixture("S2", backend).rep.algebra)
    assert checked == (45 if backend == EXACT else 9)


def test_float_chain_in_skewed_bases_follows_the_exact_chain():
    # the float series once stalled above 0 here (F4, seed 0: not nilpotent)
    # or looped; the search itself could take the residue of a zero vector
    # for a candidate, and pick a vector outside the layer or inside the member
    for A in _flag_algebras():
        for seed in range(4):
            exact = lc.jordan_holder_chain(_in_seeded_basis(A, seed, EXACT))
            approx = lc.jordan_holder_chain(_in_seeded_basis(A, seed, FLOAT))
            assert [S.pivots for S in approx] == [S.pivots for S in exact], (A, seed)
            assert all(abs(x - y.to_complex()) <= 1e-9 for S, T in zip(approx, exact)
                       for u, v in zip(S.basis, T.basis) for x, y in zip(u, v)), (A, seed)


# --- characters -----------------------------------------------------------------


def test_is_character():
    L = h3()
    assert lc.is_character(L, (gr(1), gr(1), gr(0)))
    assert not lc.is_character(L, (gr(0), gr(0), gr(1)))
    with pytest.raises(lc.NotACharacter):
        lc.character(L, [0, 0, 1])


def test_restrict_character():
    L = h3()
    f = lc.character(L, [1, 1, 0])
    ideal = lc.span(L, [(gr(0), gr(1), gr(0)), (gr(0), gr(0), gr(1))])
    assert lc.restrict_character(f, ideal) == (gr(1), gr(0))


def test_restrict_character_rejects_non_ideal():
    L = h3()
    f = lc.character(L, [1, 0, 0])
    not_ideal = lc.span(L, [(gr(1), gr(0), gr(0))])
    with pytest.raises(lc.NotAnIdeal):
        lc.restrict_character(f, not_ideal)


def test_induced_algebra_abelian_ideal():
    L = h3()
    ideal = lc.span(L, [(gr(0), gr(1), gr(0)), (gr(0), gr(0), gr(1))])
    sub = lc.induced_algebra(ideal)
    assert sub.n == 2 and sub.table == ()


def test_induced_algebra_full():
    L = h3()
    sub = lc.induced_algebra(lc.full_subspace(L))
    assert sub.structure(0, 1) == (gr(0), gr(0), gr(1))


# --- echelon pivots ------------------------------------------------------------


def _in_seeded_basis(L, seed, backend):
    """The exact algebra L rewritten in the basis f_i = P e_i, for a seeded
    unimodular P: [f_i, f_j] = P^-1 [P e_i, P e_j], on the given backend.
    Fresh basis names keep every structural cache cold."""
    p = lab.unimodular_matrix(random.Random(seed), L.n, EXACT)
    p_inv = nm.inverse(p)
    cols = [tuple(p.at(k, i) for k in range(L.n)) for i in range(L.n)]
    brackets = {}
    for i in range(L.n):
        for j in range(i + 1, L.n):
            w = nm.matrix_from_rows([[x] for x in lc.bracket(L, cols[i], cols[j])], EXACT)
            brackets[(i, j)] = list((p_inv * w).entries)
    return lc.lie_algebra([f"s{seed}_{k}" for k in range(L.n)], brackets, backend)


def _recorded_spans(monkeypatch):
    """Every (vectors, tol, subspace) that span returns, on both backends,
    while the structure of the catalog algebras in seeded bases is computed,
    and on seeded rational vectors and a skewed basis of F4, where some
    float echelon rows keep entries near 1e-17 left of their pivots."""
    honest = lc.span
    spans = []

    def recording(L, vectors, tol=None):
        S = honest(L, vectors, tol)
        spans.append((list(vectors), tol, S))
        return S

    monkeypatch.setattr(lc, "span", recording)
    skewed = "4/5,2/3,1,1/5;-5/3,1,-3/4,1/3;-2/3,2/5,1/3,-5/4;0,-1/3,-3/4,0"
    for backend in (EXACT, FLOAT):
        rng = random.Random(21)
        for fix in lab.catalog(backend):
            for seed in range(4):
                L = _in_seeded_basis(lab.fixture(fix.name).rep.algebra, seed, backend)
                lc.derived_subalgebra(L)
                lc.derived_series(L)
                lc.lower_central_series(L)
                if lc.is_nilpotent(L):
                    for S in lc.jordan_holder_chain(L):
                        lc.is_ideal(L, S)
            L = fix.rep.algebra
            for _ in range(100):
                lc.span(L, [[nm.make_scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 5)), backend)
                             for _ in range(L.n)] for _ in range(rng.randint(1, L.n + 1))])
        lc.span(lab.fixture("F4", backend).rep.algebra,
                [[nm.make_scalar(nm.scalar_from_text(x), backend) for x in row.split(",")]
                 for row in skewed.split(";")])
    return spans


def test_span_pivots_are_the_elimination_pivots(monkeypatch):
    spans = _recorded_spans(monkeypatch)
    for vectors, tol, S in spans:
        n = S.algebra.n
        assert len(S.pivots) == S.dim
        if S.algebra.backend == EXACT:
            form = nm.zi_form(nm.matrix_from_rows(vectors, EXACT, cols=n))[0]
            assert list(S.pivots) == nm._rref_zi(form, n)[1], vectors
            for row, p in zip(S.basis, S.pivots):
                assert row[p] == gr(1) and all(x.is_zero for x in row[:p]), (vectors, row)
        else:
            thr = nm.zero_threshold(FLOAT, tol, lambda: max(
                (abs(x) for v in vectors for x in v), default=0.0))
            assert list(S.pivots) == nm._rref([list(v) for v in vectors], thr)[1], vectors
    # float rows that a scan for the first nonzero entry would misread: the
    # skewed basis of F4 alone has two
    assert sum(any(x != 0 for x in row[:p]) for _, _, S in spans if S.algebra.backend == FLOAT
               for row, p in zip(S.basis, S.pivots)) >= 2


def _scanning_reduce_mod(S, vec, tol=None):
    """reduce_mod as it was before subspaces carried their pivots: each
    row's pivot is its first entry above the membership threshold."""
    thr = lc._membership_threshold(S, vec, tol)
    out = list(vec)
    for row in S.basis:
        p = next(k for k, x in enumerate(row) if not nm.sc_is_zero(x, thr))
        c = out[p]
        if not nm.sc_is_zero(c, thr):
            out = [a - c * b for a, b in zip(out, row)]
    return tuple(out)


def test_reduce_mod_is_bit_identical_to_scanning_for_pivots(monkeypatch):
    checked = 0
    for vectors, tol, S in _recorded_spans(monkeypatch):
        L = S.algebra
        probes = [tuple(v) for v in vectors] + [L.structure(i, j) for i in range(L.n)
                                                 for j in range(L.n)]
        for vec in probes:
            got, want = lc.reduce_mod(S, vec, tol), _scanning_reduce_mod(S, vec, tol)
            # repr keeps the sign of a float zero, which == does not
            assert [repr(x) for x in got] == [repr(x) for x in want], (S, vec)
            checked += 1
    assert checked > 1000


# --- opposite algebra and JSON -----------------------------------------------


def test_opposite_algebra_negates():
    L = h3()
    op = lc.opposite_algebra(L)
    assert op.structure(0, 1) == (gr(0), gr(0), gr(-1))
    assert lc.validate_lie_algebra(op) == []


def test_json_round_trip():
    L = h3()
    obj = lc.algebra_to_json(L)
    assert obj == {
        "dim": 3,
        "basis": ["x", "y", "z"],
        "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "0", "1"]}],
    }
    back = lc.algebra_from_json(obj)
    assert back == L
    as_float = lc.algebra_from_json(obj, backend=FLOAT)
    assert as_float.structure(0, 1) == (0j, 0j, 1 + 0j)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_algebra_hash_is_cached_and_agrees_with_equality(backend):
    for fix in lab.catalog(backend):
        L = fix.rep.algebra
        back = lc.algebra_from_json(lc.algebra_to_json(L), backend)
        assert back is not L and back._hash is None
        assert back == L and hash(back) == hash(L)
        assert back._hash == hash((L.names, L.table, L.backend))
        # the cached value is in neither == nor repr
        fresh = lc.algebra_from_json(lc.algebra_to_json(L), backend)
        assert fresh._hash is None and fresh == back and repr(fresh) == repr(back)
        assert "_hash" not in repr(back)


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        lc.algebra_from_json({"dim": 2})
    with pytest.raises(ValueError):
        lc.algebra_from_json({"dim": 2, "basis": ["a"], "brackets": []})
    with pytest.raises(ValueError):
        lc.algebra_from_json(
            {"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 1, "j": 0, "coeffs": ["0", "0"]}]}
        )
    with pytest.raises(ValueError):
        lc.algebra_from_json(
            {"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "coeffs": ["bogus", "0"]}]}
        )


def test_zero_dimensional_algebra():
    L = lc.abelian_algebra([])
    assert lc.is_nilpotent(L)
    chain = lc.jordan_holder_chain(L)
    assert len(chain) == 1 and verify_chain(L, chain) == []


# --- per-algebra caches -------------------------------------------------------


def test_series_and_flags_are_tuples():
    for L in (h3(), aff1(), ab2()):
        assert type(lc.lower_central_series(L)) is tuple
        assert type(lc.derived_series(L)) is tuple
    assert type(lc.jordan_holder_chain(h3())) is tuple


def near_degenerate():
    """[x,y] = z, [x,w] = z + 1e-6 u with z, u central (float): whether the
    derived algebra has dimension 2 or 1 depends on the tolerance."""
    z, zu = [0, 0, 0, 1, 0], [0, 0, 0, 1, 1e-6]
    return lc.lie_algebra(["x", "y", "w", "z", "u"], {(0, 1): z, (0, 2): zu}, backend=FLOAT)


def test_float_tolerance_is_part_of_the_cache_key():
    L = near_degenerate()
    assert lc.validate_lie_algebra(L) == []
    coarse = lc.lower_central_series(L, 1e-3)
    assert [S.dim for S in lc.lower_central_series(L)] == [5, 2, 0]
    assert [S.dim for S in coarse] == [5, 1, 0]
    assert lc.lower_central_series(L, 1e-3) is coarse  # served from the cache
    default = lc.derived_subalgebra(L)
    assert (default.dim, lc.derived_subalgebra(L, 1e-3).dim) == (2, 1)
    assert lc.derived_subalgebra(L) is default
    # [x, w] = z + 1e-6 u lies in span{w, z} only at the coarse tolerance
    wz = lc.span(L, [(0j, 0j, 1 + 0j, 0j, 0j), (0j, 0j, 0j, 1 + 0j, 0j)])
    assert lc.is_ideal(L, wz, 1e-3) and not lc.is_ideal(L, wz)


def _cached_functions():
    """Every lru_cache'd function defined in liespec, by qualified name."""
    import importlib
    import pkgutil

    import liespec

    found = {}
    for info in pkgutil.iter_modules(liespec.__path__):
        mod = importlib.import_module(f"liespec.{info.name}")
        for name, value in vars(mod).items():
            if callable(getattr(value, "cache_clear", None)) and value.__module__ == mod.__name__:
                found[f"{mod.__name__}.{name}"] = value
    return found


def _mutable_parts(value):
    """Lists, dicts and sets reachable through tuples, frozensets and the
    compared fields of dataclasses.  Other objects are opaque: the cached
    argument parser is one, and parse_args leaves it unchanged."""
    import dataclasses

    if isinstance(value, (list, dict, set)):
        return [type(value).__name__]
    if isinstance(value, (tuple, frozenset)):
        return [t for v in value for t in _mutable_parts(v)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [t for f in dataclasses.fields(value) if f.compare
                for t in _mutable_parts(getattr(value, f.name))]
    return []


def test_cached_results_hold_no_mutable_container():
    import inspect
    import itertools

    from liespec import lab

    cached = _cached_functions()
    assert {
        "liespec.lie_core.is_ideal", "liespec.lie_core.jordan_holder_chain",
        "liespec.spectra.homology_support", "liespec.koszul.exterior_basis",
        "liespec.koszul._differential_pattern", "liespec.koszul._cartan_terms",
        "liespec.cli._build_parser",
    } <= set(cached)
    calls = 0
    for backend in (EXACT, FLOAT):
        for fix in lab.catalog(backend):
            L = fix.rep.algebra
            subspaces = {lc.zero_subspace(L), lc.full_subspace(L), lc.derived_subalgebra(L)}
            subspaces |= set(lc.lower_central_series(L)) | set(lc.derived_series(L))
            inputs = {"L": [L], "S": subspaces, "tol": [None], "n": [L.n], "p": range(1, L.n + 1),
                      "k": range(L.n), "q": range(-1, L.n + 1)}
            for name, fn in sorted(cached.items()):
                params = inspect.signature(fn).parameters
                missing = set(params) - set(inputs)
                assert not missing, f"no catalog inputs for {name} parameters {missing}"
                for args in itertools.product(*(inputs[p] for p in params)):
                    try:
                        result = fn(*args)
                    except lc.NotNilpotent:
                        continue
                    calls += 1
                    assert _mutable_parts(result) == [], (name, fix.name, backend)
    assert calls > 100


def test_malformed_bracket_tables_are_refused():
    zero = (gr(0), gr(0))
    cases = [
        (lambda: lc.LieAlgebra(("x", "y"), ((1, 0, zero),), EXACT), "bad bracket index pair (1,0)"),
        (lambda: lc.LieAlgebra(("x", "y"), ((0, 1, (gr(1),)),), EXACT), "bracket (0,1) has 1 coefficients, not 2"),
        (lambda: lc.LieAlgebra(("x", "y"), ((0, 1, zero), (0, 1, zero)), EXACT), "duplicate bracket (0,1)"),
        (lambda: lc.lie_algebra(["x", "y"], {(1, 0): [0, 1]}), "brackets must be given for i<j, got (1,0)"),
        # zero brackets are dropped before LieAlgebra sees the table
        (lambda: lc.lie_algebra(["x", "y"], {(0, 1): [0, 0, 0]}), "bracket (0,1) has 3 coefficients, not 2"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


@pytest.mark.parametrize("build,error,message", [
    (lambda: lc.algebra_from_json([]), ValueError, "algebra: expected an object"),
    (lambda: lc.algebra_from_json({"dim": 2, "basis": ["x", "y"],
                                   "brackets": [{"i": 0, "j": 1, "coeffs": ["1"]}]}),
     ValueError, "algebra.brackets[0].coeffs: expected 2 scalars"),
    (lambda: lc.bracket(h3(), (gr(0),), (gr(0),) * 3), ValueError,
     "bracket of vectors of lengths 1, 3 in dimension 3"),
    # span{x} is no ideal of h3: [x, y] = z
    (lambda: lc.induced_algebra(lc.span(h3(), [(gr(1), gr(0), gr(0))])), lc.NotAnIdeal,
     "induced structure constants need an ideal"),
])
def test_malformed_algebra_input_is_refused_with_its_message(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert (raised.type, str(raised.value)) == (error, message)
