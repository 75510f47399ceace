"""Spectrum kinds, both computation routes, and the structural checks.

The S2 fixture values are the load-bearing ones: its homology spectrum
{(0,0), (2,0)} and eigencharacter set {(1,0)} were computed by hand from
the 2x2 differentials (see test_koszul for the matrices) and are frozen
here; they exhibit the failure of the eigencharacter description on a
solvable non-nilpotent algebra.
"""

import random
import sys

import pytest

from liespec import koszul as kz
from liespec import lab
from liespec import numeric as nm
from liespec import lie_core as lc
from liespec import representation as rp
from liespec import spectra as sp
from liespec.numeric import EXACT, FLOAT, gr


def a1_rep():
    return rp.representation(lc.abelian_algebra(["e1"]), [[[2, 0], [0, 3]]])


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


def zero_rep(m=3):
    L = lc.lie_algebra(["x", "y", "z"], {(0, 1): [0, 0, 1]})
    z = [[0] * m for _ in range(m)]
    return rp.representation(L, [z, z, z], m=m)


def float_copy(rep):
    return rp.rep_from_json(rp.rep_to_json(rep), backend=FLOAT)


# --- kinds ----------------------------------------------------------------------


def test_kind_parse_render_round_trip():
    for text in (
        "taylor", "fredholm", "split", "split_e",
        "delta:0", "pi:2", "delta_e:1", "pi_e:0",
        "split_delta:1", "split_pi:2", "split_delta_e:0", "split_pi_e:3",
    ):
        assert sp.parse_kind(text).render() == text


def test_kind_parse_rejects_garbage():
    for bad in ("", "taylor:1", "delta", "pi:", "slodkowski", "delta:-1", "split_fredholm"):
        with pytest.raises(ValueError):
            sp.parse_kind(bad)


def test_kind_degree_ranges():
    n = 3
    assert list(sp.parse_kind("taylor").degree_range(n)) == [0, 1, 2, 3]
    assert list(sp.parse_kind("delta:1").degree_range(n)) == [0, 1]
    assert list(sp.parse_kind("pi:1").degree_range(n)) == [2, 3]
    assert list(sp.parse_kind("pi:0").degree_range(n)) == [3]
    # k beyond n clamps to the full range
    assert list(sp.parse_kind("delta:9").degree_range(n)) == [0, 1, 2, 3]


def test_all_kinds_inventory():
    kinds = sp.all_kinds(3)
    assert len(kinds) == 36
    assert len({k.render() for k in kinds}) == 36


# --- eigencharacter route ---------------------------------------------------------


def test_eigencharacters_a1():
    pairs = sp.joint_eigencharacters(a1_rep())
    chars = [f.coeffs for f, _ in pairs]
    assert chars == [(gr(2),), (gr(3),)]
    for (f, w) in pairs:
        mat = a1_rep().mats[0]
        assert (mat * w - w.scale(f.coeffs[0])).is_zero()


def test_eigencharacters_h3_zero_only():
    pairs = sp.joint_eigencharacters(h3_rep())
    assert [f.coeffs for f, _ in pairs] == [(gr(0), gr(0), gr(0))]
    w = pairs[0][1]
    assert tuple(w.entries) == (gr(1), gr(0), gr(0))


def test_eigencharacters_s2():
    pairs = sp.joint_eigencharacters(s2_rep())
    assert [f.coeffs for f, _ in pairs] == [(gr(1), gr(0))]


def test_eigencharacters_zero_rep():
    pairs = sp.joint_eigencharacters(zero_rep(4))
    assert [f.coeffs for f, _ in pairs] == [(gr(0), gr(0), gr(0))]


def test_eigencharacters_raise_when_no_joint_eigenvector():
    # Lie's theorem gives every nonzero module of a solvable algebra a joint
    # eigenvector; here float eigenvalues perturb a defective eigenvalue so
    # that no branch finds one, and that must fail rather than read as empty.
    rep = lab.random_nilpotent_rep(0, "H3", 5, FLOAT)
    with pytest.raises(sp.NotSolvable):
        sp.joint_eigencharacters(rep)


# --- weights, support, candidates ---------------------------------------------------


def test_weight_candidates():
    assert sp.weight_candidates(a1_rep()) == ((gr(2),), (gr(3),))
    assert sp.weight_candidates(h3_rep()) == ((gr(0), gr(0), gr(0)),)
    assert set(sp.weight_candidates(s2_rep())) == {(gr(0), gr(0)), (gr(1), gr(0))}


def shifted_s2_sums():
    """10 seeded (shifts, rep): conjugated direct sums of S2 shifted by the
    characters (a, 0), a in shifts."""
    rng = random.Random(13)
    L = s2_rep().algebra
    out = []
    for _ in range(10):
        shifts = [rng.randint(-3, 3) for _ in range(rng.randint(2, 4))]
        blocks = [rp.shift(s2_rep(), lc.Character(L, (gr(a), gr(0)))) for a in shifts]
        rep = blocks[0]
        for block in blocks[1:]:
            rep = rp.direct_sum(rep, block)
        out.append((shifts, rp.conjugate_representation(rep, lab.unimodular_matrix(rng, rep.m, EXACT))))
    return out


def test_triangular_weights_of_conjugated_sums_of_shifted_s2():
    # the multi-step quotient on a non-nilpotent algebra: S2 shifted by the
    # character (a, 0) has the weights (1 - a, 0) and (-a, 0)
    key = sp.char_sort_key
    for shifts, rep in shifted_s2_sums():
        want = [(gr(c - a), gr(0)) for a in shifts for c in (1, 0)]
        assert sorted(sp.triangular_weights(rep), key=key) == sorted(want, key=key), shifts


def intersected_leaves(rep):
    """The joint eigenvector search by subspace intersection: at every level
    the whole kernel of rho(e_k) - lam, intersected with the space so far."""
    def descend(k, space, lams):
        if not space.cols:
            return
        if k == rep.algebra.n:
            yield lams, nm.Matrix(space.rows, 1, space.entries[:: space.cols], rep.backend)
            return
        for lam, _ in nm.eigenvalues(rep.mats[k]):
            kernel = nm.nullspace_basis(nm.sub_diagonal(rep.mats[k], lam))
            nxt = kernel if space.cols == rep.m else nm.intersect_subspaces(space, kernel)
            yield from descend(k + 1, nxt, lams + (lam,))

    return list(descend(0, nm.identity(rep.m, rep.backend), ()))


def test_restricted_kernels_give_the_intersected_leaves():
    bases = ("H3", "F4", "A1", "Z3")
    reps = [lab.random_nilpotent_rep(400 + s, bases[s % 4], 4 + s % 5) for s in range(40)]
    reps += [rep for _, rep in shifted_s2_sums()]
    for rep in reps:
        got = list(sp._joint_eigenvectors(rep, None))
        want = intersected_leaves(rep)
        assert [lams for lams, _ in got] == [lams for lams, _ in want]
        for (_, v), (_, w) in zip(got, want):
            assert (v.rows, v.cols) == (w.rows, w.cols) == (rep.m, 1)
            assert v.entries == w.entries


def permuted_algebra(L, perm):
    """L in the basis e_(perm[0]), e_(perm[1]), ..."""
    n = L.n
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            c = L.structure(perm[a], perm[b])
            brackets[(a, b)] = [c[perm[t]] for t in range(n)]
    return lc.lie_algebra([L.names[i] for i in perm], brackets, L.backend)


def test_ideal_order_prefixes_span_ideals():
    catalog = {"H3": (2, 0, 1), "F4": (3, 2, 0, 1), "S2": (1, 0), "A1": (0,), "Z3": (2, 0, 1)}
    algebras = []
    for name, want in catalog.items():
        L = lab.fixture(name).rep.algebra
        assert sp._ideal_order(L) == want, name
        algebras.append(L)
    rng = random.Random(23)
    for name in ("H3", "F4", "S2"):
        L = lab.fixture(name).rep.algebra
        for _ in range(8):
            perm = list(range(L.n))
            rng.shuffle(perm)
            algebras.append(permuted_algebra(L, perm))
    for L in algebras:
        order = sp._ideal_order(L)
        assert sorted(order) == list(range(L.n)), (L.names, order)
        for j in range(1, L.n + 1):
            ideal = lc.span(L, [lc._basis_vector(L, i) for i in order[:j]])
            assert lc.is_ideal(L, ideal), (L.names, order[:j])


def skewed_h3_rep():
    """H3 in the basis (x, y, w = x + z), where [x, y] = w - x and
    [y, w] = x - w: no basis element spans an ideal."""
    L = lc.lie_algebra(["x", "y", "w"], {(0, 1): [-1, 0, 1], (1, 2): [1, 0, -1]})
    x, y, z = h3_rep().mats
    return rp.Representation(L, 3, (x, y, x + z))


def no_ideal_order_reps():
    """(none, partial): conjugated sums over skewed H3, whose basis has no
    ideal prefix, and over skewed H3 plus a central u, where only (u,) spans
    an ideal."""
    rng = random.Random(29)
    skew = skewed_h3_rep()
    none = rp.direct_sum(skew, rp.shift(skew, lc.Character(skew.algebra, (gr(1), gr(-2), gr(1)))))
    # u acts by 2 on the H3 part and by 5 on one more line
    Lu = lc.lie_algebra(["x", "y", "w", "u"], {(0, 1): [-1, 0, 1, 0], (1, 2): [1, 0, -1, 0]})

    def pad(mat, c):
        return [[mat.at(i, j) for j in range(3)] + [0] for i in range(3)] + [[0, 0, 0, c]]

    partial = rp.representation(Lu, [pad(m, 0) for m in skew.mats] + [
        [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 5]]])
    return tuple(rp.conjugate_representation(rep, lab.unimodular_matrix(rng, rep.m, EXACT))
                 for rep in (none, partial))


def test_search_without_a_full_ideal_order_gives_the_intersected_leaves():
    skew = skewed_h3_rep()
    assert lc.validate_lie_algebra(skew.algebra) == [] and rp.validate_representation(skew) == []
    conjugated = no_ideal_order_reps()
    assert [sp._ideal_order(rep.algebra) for rep in conjugated] == [(), (3,)]
    assert all(rp.validate_representation(rep) == [] for rep in conjugated)
    # every rho(e_k) but the last scalar: the leaf keeps the free-variable
    # kernel basis vector of the last level, which is no echelon vector
    scalar = rp.representation(lc.abelian_algebra(["a", "b"]), [[[0, 0], [0, 0]], [[1, 1], [1, 1]]])
    for rep in list(conjugated) + [scalar]:
        got = list(sp._joint_eigenvectors(rep, None))
        want = intersected_leaves(rep)
        assert len(got) > 1 and [lams for lams, _ in got] == [lams for lams, _ in want]
        for (_, v), (_, w) in zip(got, want):
            assert v.entries == w.entries
    assert [w.entries for _, w in got] == [(gr(-1), gr(1)), (gr(1), gr(1))]


def test_exact_eigencharacters_intersect_no_subspaces(monkeypatch):
    calls = {"intersect_subspaces": 0, "_column_echelon": 0}

    def counted(name):
        honest = getattr(nm, name)

        def call(*args):
            calls[name] += 1
            return honest(*args)
        return call

    for name in calls:  # watched through the numeric and the spectra binding
        monkeypatch.setattr(nm, name, counted(name))
        monkeypatch.setattr(sp, name, getattr(nm, name))
    # restricted levels on an ideal prefix, product kernels past it: no
    # intersection, and no echelon pass but the one that reads a leaf
    rep = lab.random_nilpotent_rep(1, "F4", 8)
    assert sp._ideal_order(rep.algebra) == (3, 2, 0, 1)
    for rep in (rep,) + no_ideal_order_reps():
        calls.update(intersect_subspaces=0, _column_echelon=0)
        leaves = len(list(sp._joint_eigenvectors(rep, None)))
        assert leaves > 1 and calls["intersect_subspaces"] == 0, calls
        assert calls["_column_echelon"] <= leaves, (calls, leaves)
    # the float search still intersects, and the count sees it
    sp.joint_eigencharacters(float_copy(h3_rep()))
    assert calls["intersect_subspaces"] > 0, calls


def test_exact_routes_fill_the_entries_of_the_returned_witnesses_only(monkeypatch):
    # Every exact intermediate (the products and generalized inverses of
    # weight_blocks, the search's kernels and sub_diagonal results) is read
    # through its Z[i] form alone; only the witnesses handed to the caller
    # are turned into Gaussian rationals, and only once something reads them.
    # The build count below depends on which per-algebra caches earlier
    # tests filled, so every liespec cache starts empty.
    for name, mod in list(sys.modules.items()):
        if name.startswith("liespec."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    rep = lab.random_nilpotent_rep(3, "F4", 6)
    built, filled, filling, converted = [], [], [], []
    honest_matrix, honest_entries, honest_gr = nm.zi_matrix, nm.Matrix.entries.fget, nm._gr_over

    def recorded_matrix(*args):
        built.append(honest_matrix(*args))
        return built[-1]

    def entries(m):
        if m._entries is not None:
            return m._entries
        filled.append(m)
        filling.append(m)
        try:
            return honest_entries(m)
        finally:
            filling.pop()

    def gr_over(*parts):
        if filling:
            converted.append(filling[-1])
        return honest_gr(*parts)

    monkeypatch.setattr(nm, "zi_matrix", recorded_matrix)
    monkeypatch.setattr(nm.Matrix, "entries", property(entries))
    monkeypatch.setattr(nm, "_gr_over", gr_over)
    sp.all_spectra(rep)
    witnesses = [w for _, w in sp.joint_eigencharacters(rep)]
    assert len(built) > 50 and filled == [] and converted == [], (len(built), len(filled))
    for w in witnesses:
        w.entries
    assert len(filled) == len(witnesses) and all(a is b for a, b in zip(filled, witnesses))
    assert converted and all(any(c is w for w in witnesses) for c in converted)


@pytest.mark.parametrize("rep", [lab.fixture("S2").rep, lab.random_nilpotent_rep(3, "F4", 6)],
                         ids=["S2", "F4-seed3-m6"])
def test_exact_weight_candidates_fill_no_entries(monkeypatch, rep):
    # each quotient basis [v | e_j] of triangular_weights is joined and
    # inverted on Z[i] forms: no matrix built from a form is read as entries.
    # The algebra's cached series are echelon rows by design; warm them first.
    lc.is_solvable(rep.algebra), lc.derived_subalgebra(rep.algebra, None)
    filled = []
    honest_entries = nm.Matrix.entries.fget

    def entries(m):
        if m._entries is None:
            filled.append(m)
        return honest_entries(m)

    monkeypatch.setattr(nm.Matrix, "entries", property(entries))
    weights = sp.weight_candidates(rep)
    assert weights and filled == []


@pytest.mark.parametrize("backend, weight, candidate", [
    (EXACT, '["1", "1"]', '["2", "1"]'),
    (FLOAT, "[[1.0, 0.0], [1.0, 0.0]]", "[[1.0, 0.0], [1.0, 0.0]]"),
], ids=[EXACT, FLOAT])
def test_non_character_errors_print_scalars_as_json(monkeypatch, backend, weight, candidate):
    # (1, 1) is no character of [x, y] = y; each error names it, or its first
    # candidate (1, 1) - g over the support, as the CLI writes a character:
    # one scalar_to_json per coordinate
    rep = s2_rep() if backend == EXACT else float_copy(s2_rep())
    w = (nm.make_scalar(1, backend),) * 2
    with pytest.raises(nm.VerificationFailure) as raised:
        sp._checked_weights(rep, [w], None)
    assert str(raised.value) == f"non-character weight {weight}"
    monkeypatch.setattr(sp, "weight_candidates", lambda rep, tol=None: (w,))
    with pytest.raises(nm.VerificationFailure) as raised:
        sp.spectral_candidates(rep)
    assert str(raised.value) == f"non-character candidate {candidate}"


def test_weight_candidates_need_solvable():
    # sl2 is not solvable: [e,f]=h, [h,e]=2e, [h,f]=-2f
    L = lc.lie_algebra(
        ["e", "f", "h"],
        {(0, 1): [0, 0, 1], (0, 2): [-2, 0, 0], (1, 2): [0, 2, 0]},
    )
    assert lc.validate_lie_algebra(L) == []
    rep = rp.adjoint_action(L)
    with pytest.raises(sp.NotSolvable):
        sp.weight_candidates(rep)


def restricted_node_dims(rep, first_leaf_only=False):
    """The dimension of the joint eigenspace V at every node of an
    ideal-ordered search where rho(e_k) is not scalar on V, in depth-first
    order, by subspace intersection.  A node where some lam has V inside
    ker(rho(e_k) - lam) is left out: V is already that eigenspace."""
    order, m = sp._ideal_order(rep.algebra), rep.m
    assert len(order) == rep.algebra.n
    dims = []

    def descend(j, space):
        if j == len(order):
            return True
        mat = rep.mats[order[j]]
        nexts = []
        for lam, _ in nm.eigenvalues(mat):
            kernel = nm.nullspace_basis(nm.sub_diagonal(mat, lam))
            nexts.append(kernel if space.cols == m else nm.intersect_subspaces(space, kernel))
        if all(nxt.cols < space.cols for nxt in nexts):
            dims.append(space.cols)
        for nxt in nexts:
            if nxt.cols and descend(j + 1, nxt) and first_leaf_only:
                return True
        return False

    descend(0, nm.identity(m, rep.backend))
    return dims


@pytest.mark.parametrize("route", ["triangular_weights", "joint_eigencharacters"])
def test_each_input_matrix_is_factored_once(monkeypatch, route):
    # one full m x m factorization at level 0; every later one is the
    # restriction of rho(e_k) to its node's joint eigenspace, s x s.  The
    # quotients of the triangularization reuse the eigenvalue multisets of
    # the whole matrices they share with their parent.
    rep = lab.random_nilpotent_rep(1, "F4", 8)
    calls, searches = [], []
    honest, honest_search = nm.char_poly, sp._joint_eigenvectors

    def search(work, tol, *rest):
        searches.append((work, len(calls)))
        return honest_search(work, tol, *rest)

    monkeypatch.setattr(nm, "char_poly", lambda m: calls.append(m) or honest(m))
    monkeypatch.setattr(sp, "_joint_eigenvectors", search)
    getattr(sp, route)(rep)
    monkeypatch.undo()
    assert calls[0] is rep.mats[sp._ideal_order(rep.algebra)[0]]
    assert sum(m.rows == rep.m for m in calls) == 1
    if route == "joint_eigencharacters":
        assert [m.rows for m in calls] == restricted_node_dims(rep)
        return
    assert len(searches) == rep.m
    whole = 0
    for i, (work, start) in enumerate(searches):
        stop = searches[i + 1][1] if i + 1 < len(searches) else len(calls)
        sizes = [m.rows for m in calls[start:stop]]
        whole += sum(size == work.m for size in sizes)
        assert all(size <= work.m for size in sizes)
        if work.m > 1:
            # the nodes on the first leaf's path below the whole space
            want = restricted_node_dims(work, first_leaf_only=True)
            assert [s for s in sizes if s < work.m] == [d for d in want if d < work.m], i
    # each whole rho(e_k) is factored at most once over all the quotients
    assert whole <= rep.algebra.n


def test_each_search_factors_each_whole_matrix_once(monkeypatch):
    # with no full ideal order, levels past the ideal prefix branch over the
    # eigenvalues of the whole rho(e_k) at every node; the search's own cache
    # factors each of them once, however many nodes reach its level
    calls = []
    honest = sp.eigenvalues
    monkeypatch.setattr(sp, "eigenvalues", lambda m, tol=None: calls.append(m) or honest(m, tol))
    for rep in no_ideal_order_reps():
        calls.clear()
        assert len(list(sp._joint_eigenvectors(rep, None))) > 1
        whole = [m for m in calls if m.rows == rep.m]
        assert all(any(m is mat for mat in rep.mats) for m in whole)
        assert len({id(m) for m in whole}) == len(whole) <= rep.algebra.n, len(whole)


def test_homology_support_nilpotent_is_zero():
    for L in (h3_rep().algebra, lc.abelian_algebra(["a", "b"])):
        assert sp.homology_support(L) == (L.zero_vector(),)


def test_homology_support_aff1():
    L = s2_rep().algebra
    assert set(sp.homology_support(L)) == {(gr(0), gr(0)), (gr(-1), gr(0))}


def test_spectral_candidates_s2():
    cands = sp.spectral_candidates(s2_rep())
    assert set(cands) == {(gr(0), gr(0)), (gr(1), gr(0)), (gr(2), gr(0))}


# --- weight blocks ------------------------------------------------------------------


def block_instances():
    """20 seeded exact nilpotent inputs, five per base algebra, m = 4..8."""
    bases = ("H3", "F4", "A1", "Z3")
    return [lab.random_nilpotent_rep(300 + s, bases[s % 4], 4 + s % 5) for s in range(20)]


def test_block_betti_equals_full_complex_betti():
    split = 0
    for rep in block_instances():
        blocks = dict(sp.weight_blocks(rep))
        split += len(blocks) > 1
        table = sp.homology_table(rep)
        assert tuple(c for c, _ in table) == sp.dedup_characters(tuple(blocks), EXACT)
        for c, betti in table:
            assert betti == kz.homology_dims(rep, lc.Character(rep.algebra, c)), c
    assert split >= 10  # most inputs have more than one weight


def test_block_dimensions_are_the_weight_multiplicities():
    for rep in block_instances():
        blocks = sp.weight_blocks(rep)
        assert sum(block.m for _, block in blocks) == rep.m
        assert all(block.algebra is rep.algebra for _, block in blocks)
        with_multiplicity = [w for w, block in blocks for _ in range(block.m)]
        key = sp.char_sort_key
        assert sorted(with_multiplicity, key=key) == sorted(sp.triangular_weights(rep), key=key)


def _blocks_through_generalized_inverses(rep):
    """weight_blocks with each block restricted as G M V, for the kernel
    basis V of (rho(e_k) - lam)^mu and G from generalized_inverse(V)."""
    blocks = [((), rep)]
    for k in range(rep.algebra.n):
        split = []
        for w, block in blocks:
            runs = nm.eigenvalues(block.mats[k])
            if len(runs) == 1:
                split.append((w + (runs[0][0],), block))
                continue
            for lam, mu in runs:
                shifted = nm.sub_diagonal(block.mats[k], lam)
                power = shifted
                for _ in range(mu - 1):
                    power = power * shifted
                v = nm.nullspace_basis(power)
                g = nm.generalized_inverse(v)[0]
                mats = tuple(g * (other * v) for other in block.mats)
                split.append((w + (lam,), rp.Representation(block.algebra, mu, mats)))
        blocks = split
    return blocks


def test_blocks_restricted_through_free_rows_equal_the_generalized_inverse_restriction():
    fixtures = [fx.rep for fx in lab.catalog() if lc.is_nilpotent(fx.rep.algebra)]
    assert len(fixtures) >= 3
    for rep in block_instances() + fixtures:
        got = sp.weight_blocks(rep)
        want = _blocks_through_generalized_inverses(rep)
        assert [w for w, _ in got] == [w for w, _ in want]
        for (_, block), (_, ref) in zip(got, want):
            assert block.m == ref.m
            # exact == compares the canonical Z[i] forms
            assert block.mats == ref.mats


def test_weight_blocks_take_no_generalized_inverse(monkeypatch):
    def refuse(*args):
        raise AssertionError("generalized_inverse called")

    instances = block_instances()  # conjugating them takes inverses
    monkeypatch.setattr(nm, "generalized_inverse", refuse)
    assert not hasattr(sp, "generalized_inverse")
    assert sum(len(sp.weight_blocks(rep)) > 1 for rep in instances) >= 10


def test_candidate_route_does_not_read_the_blocks(monkeypatch):
    # the candidates the table is built on, recomputed by triangularization
    # alone: an independent route for the soundness check
    instances = block_instances()
    tables = [tuple(c for c, _ in sp.homology_table(rep)) for rep in instances]

    def refuse(rep):
        raise AssertionError("weight_blocks called")

    monkeypatch.setattr(sp, "weight_blocks", refuse)
    for rep, table in zip(instances, tables):
        assert sp.spectral_candidates(rep) == table


def test_weight_blocks_refuse_float_and_solvable_input():
    with pytest.raises(ValueError):
        sp.weight_blocks(float_copy(a1_rep()))
    with pytest.raises(ValueError):
        sp.weight_blocks(s2_rep())


def test_exact_nilpotent_table_is_built_on_the_blocks(monkeypatch):
    rep = lab.random_nilpotent_rep(3, "F4", 8)
    dims = {w: block.m for w, block in sp.weight_blocks(rep)}
    assert len(dims) > 1
    triangular, built = [], []
    honest_weights, honest_complex = sp.triangular_weights, kz._truncated_complex

    def counted_weights(rep, tol=None):
        triangular.append(rep)
        return honest_weights(rep, tol)

    def recorded_complex(rep, f, tol, lo, hi):
        built.append((f.coeffs, rep.m))
        return honest_complex(rep, f, tol, lo, hi)

    monkeypatch.setattr(sp, "triangular_weights", counted_weights)
    monkeypatch.setattr(kz, "_truncated_complex", recorded_complex)
    sp.all_spectra(rep)
    assert triangular == []
    assert len(built) == len(dims) and dict(built) == dims


def scalar_rep(L, values, m):
    """rho(e_k) = values[k] I on C^m."""
    eye = nm.identity(m, EXACT)
    return rp.Representation(L, m, tuple(eye.scale(c) for c in values))


def gaussian_pad_rep():
    """H3's fixture block plus a 2-dim block where x, y, z act as 1+2i, -3i
    and 0."""
    block = h3_rep()
    return rp.direct_sum(block, scalar_rep(block.algebra, (gr(1, 2), gr(0, -3), gr(0)), 2))


def scalar_block_instances():
    """Seeded exact inputs with scalar weight blocks: zero pads, A1's
    diagonal blocks, and the Gaussian pad, plain and conjugated."""
    pad = gaussian_pad_rep()
    conjugated = rp.conjugate_representation(pad, lab.unimodular_matrix(random.Random(5), pad.m, EXACT))
    seeded = [lab.random_nilpotent_rep(400 + s, base, m)
              for s, (base, m) in enumerate([("H3", 4), ("H3", 5), ("F4", 5), ("F4", 6),
                                              ("Z3", 4), ("A1", 3), ("A1", 5), ("A1", 6)])]
    return seeded + [pad, conjugated]


def is_scalar_block(block):
    return all(nm.scalar_of(mat) is not None for mat in block.mats)


def test_scalar_block_betti_equals_full_complex_betti():
    scalar = other = 0
    for rep in scalar_block_instances():
        kinds = [is_scalar_block(block) for _, block in sp.weight_blocks(rep)]
        scalar, other = scalar + sum(kinds), other + len(kinds) - sum(kinds)
        for c, betti in sp.homology_table(rep):
            assert betti == kz.homology_dims(rep, lc.Character(rep.algebra, c)), c
    assert scalar >= 10 and other >= 5, (scalar, other)
    table = dict(sp.homology_table(gaussian_pad_rep()))
    assert {c: b.h for c, b in table.items()} == {
        (gr(0), gr(0), gr(0)): (1, 2, 2, 1),
        (gr(1, 2), gr(0, -3), gr(0)): (2, 4, 4, 2),
    }


def test_all_scalar_table_builds_no_differential(monkeypatch):
    L = h3_rep().algebra
    rep = rp.direct_sum(lab.zero_representation(L, 2), scalar_rep(L, (gr(1, 2), gr(0, -3), gr(0)), 3))
    rep = rp.conjugate_representation(rep, lab.unimodular_matrix(random.Random(2), rep.m, EXACT))
    assert all(is_scalar_block(block) for _, block in sp.weight_blocks(rep))
    sp._trivial_betti(L)
    built = []
    honest = kz._differential
    monkeypatch.setattr(kz, "_differential", lambda *args: built.append(args) or honest(*args))
    table = sp.homology_table(rep)
    assert built == []
    assert [b.h for _, b in table] == [(2, 4, 4, 2), (3, 6, 6, 3)]


def test_scalar_search_levels_factor_nothing(monkeypatch):
    rep = scalar_rep(h3_rep().algebra, (gr(1, 2), gr(0, -3), gr(0)), 3)
    rep = rp.conjugate_representation(rep, lab.unimodular_matrix(random.Random(3), rep.m, EXACT))
    instances = scalar_block_instances()
    factored, kernels = [], []
    honest_poly, honest_kernel = nm.char_poly, sp._kernel_with_free_rows
    monkeypatch.setattr(nm, "char_poly", lambda m: factored.append(m) or honest_poly(m))
    monkeypatch.setattr(sp, "_kernel_with_free_rows",
                        lambda m, *rest: kernels.append(m) or honest_kernel(m, *rest))
    # every level scalar: one leaf, read off the scalars
    leaves = list(sp._joint_eigenvectors(rep, None))
    assert [lams for lams, _ in leaves] == [(gr(1, 2), gr(0, -3), gr(0))]
    assert factored == [] and kernels == []
    # elsewhere, no factored matrix is scalar and no kernel is of a zero one
    for rep in instances:
        assert len(sp._ideal_order(rep.algebra)) == rep.algebra.n
        factored.clear(), kernels.clear()
        assert list(sp._joint_eigenvectors(rep, None))
        assert all(nm.scalar_of(m) is None for m in factored)
        assert not any(m.is_zero() for m in kernels)


# --- homology route -----------------------------------------------------------------


def degree_members(rep, p):
    """Characters whose shifted complex has nonzero homology in degree p."""
    return {c for c, betti in sp.homology_table(rep) if betti.h[p] != 0}


def test_sigma_p_a1():
    rep = a1_rep()
    assert degree_members(rep, 0) == {(gr(2),), (gr(3),)}
    assert degree_members(rep, 1) == {(gr(2),), (gr(3),)}


def test_sigma_p_s2():
    rep = s2_rep()
    assert (gr(0), gr(0)) in degree_members(rep, 0)
    assert degree_members(rep, 1) == {(gr(0), gr(0)), (gr(2), gr(0))}
    assert degree_members(rep, 2) == {(gr(2), gr(0))}


def test_taylor_spectrum_h3():
    report = sp.spectrum(h3_rep(), "taylor")
    assert report.member_coeffs == ((gr(0), gr(0), gr(0)),)
    assert report.route == "homology"
    coeffs, betti = report.betti[0]
    assert betti.h == (1, 2, 2, 1)


def test_taylor_spectrum_a1():
    report = sp.spectrum(a1_rep(), "taylor")
    assert set(report.member_coeffs) == {(gr(2),), (gr(3),)}


def test_taylor_spectrum_s2_frozen():
    # the homology route sees (0,0) and (2,0); the eigencharacter (1,0) has
    # vanishing homology in every degree and is absent
    report = sp.spectrum(s2_rep(), "taylor")
    assert set(report.member_coeffs) == {(gr(0), gr(0)), (gr(2), gr(0))}


def test_delta_pi_collapse_at_top():
    for rep in (a1_rep(), h3_rep(), s2_rep()):
        n = rep.algebra.n
        taylor = set(sp.spectrum(rep, "taylor").member_coeffs)
        assert set(sp.spectrum(rep, f"delta:{n}").member_coeffs) == taylor
        assert set(sp.spectrum(rep, f"pi:{n}").member_coeffs) == taylor


def test_delta_pi_monotone():
    rep = h3_rep()
    n = rep.algebra.n
    for family in ("delta", "pi"):
        prev = set()
        for k in range(n + 1):
            cur = set(sp.spectrum(rep, f"{family}:{k}").member_coeffs)
            assert prev <= cur
            prev = cur


def test_essential_kinds_empty_with_annotation():
    rep = h3_rep()
    for text in ("fredholm", "delta_e:1", "pi_e:2", "split_e", "split_delta_e:0", "split_pi_e:1"):
        report = sp.spectrum(rep, text)
        assert report.members == ()
        assert sp.ANN_ESSENTIAL in report.annotations


def test_pi_kinds_carry_closed_range_annotation():
    rep = h3_rep()
    assert sp.ANN_CLOSED_RANGE in sp.spectrum(rep, "pi:1").annotations
    assert sp.ANN_CLOSED_RANGE in sp.spectrum(rep, "split_pi:1").annotations
    pi_e = sp.spectrum(rep, "pi_e:1")
    assert sp.ANN_CLOSED_RANGE_READINGS in pi_e.annotations


def test_split_kinds_match_and_annotate():
    for rep in (a1_rep(), h3_rep(), s2_rep()):
        taylor = sp.spectrum(rep, "taylor").member_coeffs
        split = sp.spectrum(rep, "split")
        assert split.member_coeffs == taylor
        assert sp.ANN_SPLIT in split.annotations
        n = rep.algebra.n
        for k in range(n + 1):
            assert (
                sp.spectrum(rep, f"split_delta:{k}").member_coeffs
                == sp.spectrum(rep, f"delta:{k}").member_coeffs
            )


def test_members_are_sorted_and_within_candidates():
    for rep in (a1_rep(), h3_rep(), s2_rep()):
        report = sp.spectrum(rep, "taylor")
        keys = [sp.char_sort_key(c) for c in report.member_coeffs]
        assert keys == sorted(keys)
        assert set(report.member_coeffs) <= set(report.candidates)


def test_all_spectra_shares_candidates():
    reports = sp.all_spectra(h3_rep())
    assert len(reports) == 36
    non_essential = [r for r in reports.values() if not r.kind.essential]
    assert all(r.candidates == non_essential[0].candidates for r in non_essential)


def _direct_read(table, kind, n):
    """A kind's members and member Betti read off the table on their own:
    taylor is every degree 0..n, delta:k degrees 0..k, pi:k degrees
    n-k..n; a split kind reads as its plain kind, an essential one is empty."""
    if kind.essential:
        return (), ()
    k = n if kind.k is None else min(kind.k, n)
    degrees = {"taylor": range(n + 1), "delta": range(k + 1), "pi": range(n - k, n + 1)}[kind.family]
    betti = tuple((c, b) for c, b in table if any(b.h[p] != 0 for p in degrees))
    return tuple(c for c, _ in betti), betti


# the seeded float inputs whose triangularization succeeds (see the float
# caveats in README); every exact one does
SHARED_RANGE_INPUTS = (
    [(f"{f.name}/{b}", f.rep) for b in (EXACT, FLOAT) for f in lab.catalog(b)]
    + [(f"{base}-{m}-{seed}/{EXACT}", lab.random_nilpotent_rep(seed, base, m))
       for base, m in (("H3", 5), ("A1", 5), ("Z3", 5), ("F4", 6)) for seed in range(3)]
    + [(f"{base}-{m}-{seed}/{FLOAT}", lab.random_nilpotent_rep(seed, base, m, FLOAT))
       for base, m, seeds in (("H3", 5, [2]), ("A1", 5, range(3)), ("Z3", 5, range(3)),
                              ("F4", 6, [0, 2])) for seed in seeds]
)


@pytest.mark.parametrize("rep", [r for _, r in SHARED_RANGE_INPUTS],
                         ids=[name for name, _ in SHARED_RANGE_INPUTS])
def test_all_spectra_equals_a_direct_read_per_kind(rep):
    n = rep.algebra.n
    table = sp.homology_table(rep)
    reports = sp.all_spectra(rep)
    for kind in sp.all_kinds(n):
        report = reports[kind.render()]
        assert (report.member_coeffs, report.betti) == _direct_read(table, kind, n), kind.render()
        assert all(f.algebra == rep.algebra for f in report.members)
    # kinds of one degree range hand out the same tuples
    by_range = {}
    for kind in sp.all_kinds(n):
        if not kind.essential:
            first = by_range.setdefault(kind.degree_range(n), reports[kind.render()])
            assert reports[kind.render()].members is first.members
    assert len(by_range) == 2 * n + 1


def test_shared_ranges_keep_delta_and_pi_apart():
    # on S2, sigma_0 and sigma_n differ, so a key that merged delta:k with
    # pi:k would change the members the direct read above compares
    reports = sp.all_spectra(lab.fixture("S2").rep)
    assert reports["delta:0"].member_coeffs != reports["pi:0"].member_coeffs
    assert reports["delta:0"].member_coeffs == reports["split_delta:0"].member_coeffs


def test_spectrum_zero_dim_algebra():
    L = lc.abelian_algebra([])
    rep = rp.representation(L, [], m=2)
    report = sp.spectrum(rep, "taylor")
    assert report.member_coeffs == ((),)


# --- eigencharacter shortcut and cross-validation --------------------------------------


def test_via_eigencharacters_h3():
    report = sp.spectrum_via_eigencharacters(h3_rep())
    assert report.member_coeffs == ((gr(0), gr(0), gr(0)),)
    assert report.route == "eigencharacter"


def test_via_eigencharacters_refuses_non_nilpotent():
    with pytest.raises(sp.HypothesisViolation):
        sp.spectrum_via_eigencharacters(s2_rep())
    forced = sp.spectrum_via_eigencharacters(s2_rep(), override=True)
    assert forced.member_coeffs == ((gr(1), gr(0)),)


def test_cross_validate_nilpotent_equal():
    for rep in (a1_rep(), h3_rep(), zero_rep()):
        cv = sp.cross_validate(rep)
        assert cv.nilpotent and cv.equal


def test_cross_validate_s2_divergence():
    # the eigencharacter (1,0) does not even lie in the homology spectrum
    # here, so containment fails; this documents how far the nilpotent
    # characterization breaks on solvable non-nilpotent input
    cv = sp.cross_validate(s2_rep())
    assert not cv.nilpotent
    assert not cv.equal
    assert set(cv.homology_members) == {(gr(0), gr(0)), (gr(2), gr(0))}
    assert cv.eigen_members == ((gr(1), gr(0)),)
    assert not cv.eigen_contained
    assert not cv.strict


# --- projection and duality ---------------------------------------------------------


def test_projection_h3_ideals():
    rep = h3_rep()
    L = rep.algebra
    yz = lc.span(L, [(gr(0), gr(1), gr(0)), (gr(0), gr(0), gr(1))])
    z = lc.span(L, [(gr(0), gr(0), gr(1))])
    for ideal in (yz, z):
        report = sp.projection_check(rep, ideal, "taylor")
        assert report.equal
        assert report.projected == ((gr(0),) * ideal.dim,)


def test_projection_full_ideal_identity():
    rep = a1_rep()
    report = sp.projection_check(rep, lc.full_subspace(rep.algebra), "taylor")
    assert report.equal
    assert set(report.projected) == {(gr(2),), (gr(3),)}


def test_projection_zero_ideal():
    rep = h3_rep()
    report = sp.projection_check(rep, lc.zero_subspace(rep.algebra), "taylor")
    assert report.equal
    assert report.projected == ((),)


def test_projection_rejects_essential_kind():
    rep = h3_rep()
    with pytest.raises(ValueError):
        sp.projection_check(rep, lc.full_subspace(rep.algebra), "fredholm")


def test_projection_rejects_non_ideal():
    rep = h3_rep()
    x_only = lc.span(rep.algebra, [(gr(1), gr(0), gr(0))])
    with pytest.raises(lc.NotAnIdeal):
        sp.projection_check(rep, x_only, "taylor")


def test_adjoint_duality_h3_and_a1():
    # {0} ∪ σ_δ,k(ρ) = {0} ∪ σ_π,k(ρ*) on a nilpotent algebra, ρ* the adjoint
    for rep in (h3_rep(), a1_rep(), zero_rep()):
        zero = rep.algebra.zero_vector()
        dual = rp.adjoint_rep(rep)
        for k in range(rep.algebra.n + 1):
            delta = sp.spectrum(rep, f"delta:{k}").member_coeffs
            pi = sp.spectrum(dual, f"pi:{k}").member_coeffs
            assert set(delta) | {zero} == set(pi) | {zero}, k


# --- backends ------------------------------------------------------------------------


def test_float_backend_member_agreement():
    for rep in (a1_rep(), h3_rep(), s2_rep(), zero_rep()):
        exact_members = sp.spectrum(rep, "taylor").member_coeffs
        f_rep = float_copy(rep)
        float_members = sp.spectrum(f_rep, "taylor").member_coeffs
        assert len(exact_members) == len(float_members)
        for e, f in zip(exact_members, float_members):
            assert all(abs(a.to_complex() - b) <= 1e-6 for a, b in zip(e, f))


def test_float_eigencharacters_match():
    f_rep = float_copy(s2_rep())
    pairs = sp.joint_eigencharacters(f_rep)
    assert len(pairs) == 1
    assert abs(pairs[0][0].coeffs[0] - 1) <= 1e-9
