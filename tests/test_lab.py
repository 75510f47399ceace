"""Catalog integrity, generator determinism, and the rank-budget rows."""

import dataclasses
import random

import pytest

from liespec import koszul as kz
from liespec import lab
from liespec import lie_core as lc
from liespec import representation as rp
from liespec import spectra as sp
from liespec.numeric import EXACT, FLOAT, identity, inverse, make_scalar, scalar_to_text


def chars(algebra, int_tuples):
    backend = algebra.backend
    return tuple(tuple(make_scalar(c, backend) for c in t) for t in int_tuples)


# --- catalog ----------------------------------------------------------------------


def test_catalog_names_and_validity():
    fixtures = lab.catalog()
    assert [f.name for f in fixtures] == ["A1", "H3", "S2", "Z3", "F4"]
    for fix in fixtures:
        assert lc.validate_lie_algebra(fix.rep.algebra) == []
        assert rp.validate_representation(fix.rep) == []


def test_catalog_zero_fixture_is_zero():
    z3 = lab.fixture("z3")
    assert z3.rep.m == 3
    assert all(mat.is_zero() for mat in z3.rep.mats)


def test_catalog_expected_values_reproduce_exact():
    for fix in lab.catalog():
        L = fix.rep.algebra
        got_taylor = sp.spectrum(fix.rep, "taylor").member_coeffs
        assert sp.same_character_sets(got_taylor, chars(L, fix.taylor), EXACT), fix.name
        got_eig = tuple(f.coeffs for f, _ in sp.joint_eigencharacters(fix.rep))
        assert sp.same_character_sets(got_eig, chars(L, fix.eigenchars), EXACT), fix.name
        if fix.chain_dims is not None:
            chain = lc.jordan_holder_chain(L)
            assert tuple(s.dim for s in chain) == fix.chain_dims, fix.name


def test_catalog_expected_values_reproduce_float():
    for fix in lab.catalog(FLOAT):
        L = fix.rep.algebra
        got = sp.spectrum(fix.rep, "taylor").member_coeffs
        assert sp.same_character_sets(got, chars(L, fix.taylor), FLOAT), fix.name


def test_fixture_lookup():
    assert lab.fixture("h3").name == "H3"
    assert lab.fixture(" F4 ").name == "F4"
    with pytest.raises(KeyError):
        lab.fixture("so3")


def test_fixture_builds_only_the_requested_instance(monkeypatch):
    built = []
    honest = lab.Fixture
    monkeypatch.setattr(lab, "Fixture", lambda name, *rest, **data: built.append(name) or honest(name, *rest, **data))
    assert lab.fixture(" z3 ") == lab.catalog()[3]
    assert built == ["Z3", "A1", "H3", "S2", "Z3", "F4"]


# --- random characters and conjugators --------------------------------------------


def test_random_character_always_a_character():
    algebras = [
        lab.fixture("h3").rep.algebra,
        lab.fixture("f4").rep.algebra,
        lab.fixture("s2").rep.algebra,
        lab.fixture("a1").rep.algebra,
    ]
    rng = random.Random(5)
    for _ in range(30):
        for L in algebras:
            f = lab.random_character(rng, L)
            assert lc.is_character(L, f.coeffs)


def test_random_character_free_coordinates_nonzero():
    L = lab.fixture("h3").rep.algebra
    rng = random.Random(11)
    for _ in range(20):
        f = lab.random_character(rng, L)
        a, b, c = f.coeffs
        assert scalar_to_text(a) in ("1", "2")
        assert scalar_to_text(b) in ("1", "2")
        assert scalar_to_text(c) == "0"  # pinned by [L, L]


def test_random_character_and_is_character_share_one_derived_subalgebra():
    # a fresh algebra: no earlier call has cached its derived subalgebra
    L = lc.lie_algebra(["p_once", "q_once", "r_once", "s_once"], {(0, 1): [0, 0, 1, 0]})
    before = lc.derived_subalgebra.cache_info().misses
    f = lab.random_character(random.Random(0), L)
    assert lc.is_character(L, f.coeffs)
    assert lc.derived_subalgebra.cache_info().misses - before == 1


def test_unimodular_matrix_integer_inverse():
    rng = random.Random(3)
    for size in (2, 3, 5, 6):
        s = lab.unimodular_matrix(rng, size, EXACT)
        for x in s.entries:
            assert "/" not in scalar_to_text(x)
        inv = inverse(s)
        # determinant +-1 forces an integer inverse
        for x in inv.entries:
            assert "/" not in scalar_to_text(x)
        assert (s * inv - identity(size, EXACT)).is_zero()


# --- random representations -------------------------------------------------------


def test_random_rep_seed1_is_conjugated_base():
    rep = lab.random_nilpotent_rep(1, "h3", 3)
    assert rp.validate_representation(rep) == []
    eig = tuple(f.coeffs for f, _ in sp.joint_eigencharacters(rep))
    assert sp.same_character_sets(eig, chars(rep.algebra, [(0, 0, 0)]), EXACT)


def test_random_rep_seed2_twisted_block():
    rep = lab.random_nilpotent_rep(2, "h3", 6)
    assert rp.validate_representation(rep) == []
    eig = tuple(f.coeffs for f, _ in sp.joint_eigencharacters(rep))
    expected = chars(rep.algebra, [(0, 0, 0), (1, 2, 0)])
    assert sp.same_character_sets(eig, expected, EXACT)


def test_random_rep_seed2_matches_block_oracle():
    # rebuild the same layout by hand: base block plus a (1,2,0)-twisted copy;
    # conjugation never moves eigencharacters, so the sets must agree
    rep = lab.random_nilpotent_rep(2, "h3", 6)
    base = lab.fixture("h3").rep
    L = base.algebra
    minus = lc.character(L, [-1, -2, 0])
    plain = rp.direct_sum(base, rp.shift(base, minus))
    want = tuple(f.coeffs for f, _ in sp.joint_eigencharacters(plain))
    got = tuple(f.coeffs for f, _ in sp.joint_eigencharacters(rep))
    assert sp.same_character_sets(got, want, EXACT)


def test_random_rep_deterministic():
    a = lab.random_nilpotent_rep(9, "f4", 8)
    b = lab.random_nilpotent_rep(9, "f4", 8)
    assert a.mats == b.mats
    c = lab.random_nilpotent_rep(10, "f4", 8)
    assert a.mats != c.mats


def test_random_rep_scalar_pad_block():
    rep = lab.random_nilpotent_rep(0, "h3", 4)
    assert rp.validate_representation(rep) == []
    eig = tuple(f.coeffs for f, _ in sp.joint_eigencharacters(rep))
    assert len(eig) == 2
    zero = rep.algebra.zero_vector()
    assert sp.char_subset((zero,), eig, EXACT)


def test_random_rep_every_seed_validates():
    for s in range(12):
        for base, m in (("h3", 7), ("f4", 5), ("a1", 5), ("z3", 6)):
            rep = lab.random_nilpotent_rep(s, base, m)
            assert rp.validate_representation(rep) == [], (s, base)


def test_random_rep_preconditions():
    with pytest.raises(ValueError):
        lab.random_nilpotent_rep(0, "h3", 2)
    with pytest.raises(ValueError):
        lab.random_nilpotent_rep(0, "s2", 4)


# --- finite-rank proxy ------------------------------------------------------------


def test_proxy_h3_schedule():
    rows = lab.finite_rank_proxy(lab.ExperimentConfig("h3", (6, 10, 14), 3, seed=7))
    assert [r.m for r in rows] == [6, 10, 14]
    for r in rows:
        assert r.rank_budget == 3
        assert r.sigma_size == 1  # only the zero character
        assert r.eigenchar_size == 1
        assert r.equality
        assert r.elapsed_ms >= 0.0


def test_proxy_a1_padding_keeps_diagonal_members():
    rows = lab.finite_rank_proxy(lab.ExperimentConfig("a1", (8,), 3, seed=1))
    (row,) = rows
    assert row.sigma_size == 3  # {0, 2, 3}
    assert row.eigenchar_size == 3
    assert row.equality


def test_proxy_csv_bytes_deterministic():
    config = lab.ExperimentConfig("h3", (6, 10), 3, seed=4)
    a = lab.proxy_csv(lab.finite_rank_proxy(config))
    b = lab.proxy_csv(lab.finite_rank_proxy(config))
    assert a == b
    assert a.splitlines()[0] == "m,rank_budget,sigma_size,eigenchar_size,equality"
    timed = lab.proxy_csv(lab.finite_rank_proxy(config), include_timing=True)
    assert timed.splitlines()[0].endswith(",elapsed_ms")


def test_proxy_preconditions():
    with pytest.raises(ValueError):
        lab.finite_rank_proxy(lab.ExperimentConfig("h3", (6, 10), 6, seed=0))
    with pytest.raises(ValueError):
        lab.finite_rank_proxy(lab.ExperimentConfig("h3", (), 1, seed=0))
    with pytest.raises(ValueError):
        # the base block operators have rank 2, over the budget
        lab.finite_rank_proxy(lab.ExperimentConfig("a1", (8,), 1, seed=0))
    with pytest.raises(ValueError):
        # schedule entry below the base block size
        lab.finite_rank_proxy(lab.ExperimentConfig("h3", (2,), 1, seed=0))


# --- property suite ---------------------------------------------------------------


def test_property_suite_catalog_and_generated_pass():
    summary = lab.run_property_suite(6)
    assert summary.instances == 11  # 5 catalog + 6 generated
    assert summary.failures == ()
    assert summary.ok
    assert summary.checks == 6 * summary.instances


def test_property_suite_builds_one_homology_table_per_representation(monkeypatch):
    # the projection check reads the suite's own reports and builds a table
    # only for the restriction to the chain ideal
    honest = sp.homology_table
    tables = []

    def counted(rep, tol=None):
        tables.append(rep)
        return honest(rep, tol)

    monkeypatch.setattr(sp, "homology_table", counted)
    summary = lab.run_property_suite(8)
    assert summary.ok
    # 13 instances, 12 of them nilpotent with a chain ideal to restrict to
    # (every nilpotent instance, A1 ones onto their zero ideal included)
    assert len(tables) == len(set(tables)) == 13 + 12


def test_property_suite_catalog_only():
    summary = lab.run_property_suite(0)
    assert summary.instances == 5
    assert summary.ok


def test_property_suite_reports_invalid_input_without_spectra(monkeypatch):
    L = lc.lie_algebra(["x", "y", "z"], {(0, 1): [0, 0, 1]})
    bad = rp.representation(
        L,
        [
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        ],
    )
    broken = lab.Fixture("broken", bad, taylor=(), eigenchars=(), chain_dims=None, notes="")
    monkeypatch.setattr(lab, "catalog", lambda backend: [broken])
    summary = lab.run_property_suite(0)
    assert not summary.ok
    bad_records = [f for f in summary.failures if f.instance == "broken"]
    assert len(bad_records) == 1
    assert bad_records[0].check == "validate"
    assert "residual" in bad_records[0].detail


def test_soundness_check_compares_block_and_full_complex_homology(monkeypatch):
    # a table whose Betti vectors differ from the full complexes is a soundness failure
    honest = lab.all_spectra

    def shifted_reports(rep, kinds=None, tol=None):
        reports = honest(rep, kinds, tol)
        taylor = reports["taylor"]
        betti = tuple((c, kz.BettiVector(tuple(h + 1 for h in b.h))) for c, b in taylor.betti)
        reports["taylor"] = dataclasses.replace(taylor, betti=betti)
        return reports

    monkeypatch.setattr(lab, "all_spectra", shifted_reports)
    summary = lab.run_property_suite(0)
    failed = {(f.instance, f.check) for f in summary.failures}
    # the catalog's exact nilpotent fixtures; s2 is solvable only
    assert failed == {(name, "soundness") for name in ("A1", "H3", "Z3", "F4")}
    assert all("weight-block homology differs" in f.detail for f in summary.failures)


@pytest.mark.parametrize("backend, failures", [
    (EXACT, [("A1", "soundness",
              'weight-block homology differs from the full complex at ["2"]')]),
    (FLOAT, []),
], ids=[EXACT, FLOAT])
def test_soundness_failure_prints_the_character_as_json(monkeypatch, backend, failures):
    # the first candidate whose full complex disagrees with the table is named
    # as the CLI writes a character; float input has no block table to check
    a1 = lab.fixture("A1", backend)
    monkeypatch.setattr(lab, "catalog", lambda backend: [a1])
    monkeypatch.setattr(lab, "homology_dims",
                        lambda rep, f, tol=None: kz.BettiVector((9,) * (rep.algebra.n + 1)))
    summary = lab.run_property_suite(0, backend=backend)
    assert [(f.instance, f.check, f.detail) for f in summary.failures] == failures


_PROJECTION_FAILED = "projection onto the codimension-one chain ideal failed"


def test_suite_records_a_moved_restriction_as_a_projection_failure(monkeypatch):
    # every restricted value moved by 1: each nilpotent instance whose chain
    # ideal is nonzero fails; A1's ideal is zero, its restrictions empty
    honest = sp.restrict_character
    one = make_scalar(1, EXACT)
    monkeypatch.setattr(sp, "restrict_character",
                        lambda f, ideal, tol=None: tuple(v + one for v in honest(f, ideal, tol)))
    summary = lab.run_property_suite(3)
    assert [(f.instance, f.check, f.detail) for f in summary.failures] == [
        (name, "projection", _PROJECTION_FAILED) for name in ("H3", "Z3", "F4", "H3#s0m3", "F4#s1m4")
    ]


def test_suite_checks_projection_on_one_dimensional_algebras(monkeypatch):
    # the restricted spectra emptied: every nilpotent instance fails, A1 included
    honest = sp.all_spectra

    def emptied(rep, kinds=None, tol=None):
        return {name: dataclasses.replace(r, members=()) for name, r in honest(rep, kinds, tol).items()}

    monkeypatch.setattr(sp, "all_spectra", emptied)
    summary = lab.run_property_suite(3)
    assert [(f.instance, f.check, f.detail) for f in summary.failures] == [
        (name, "projection", _PROJECTION_FAILED)
        for name in ("A1", "H3", "Z3", "F4", "H3#s0m3", "F4#s1m4", "A1#s2m4")
    ]
