"""Fixture catalog, seeded instance generators, and rank-budget experiments.

Free random matrix tuples almost never satisfy the homomorphism law, so
every generated representation is assembled from catalog blocks: copies of
a pinned representation, possibly twisted by a random character, padded
with a scalar block on the leftover dimensions, and conjugated by a random
unimodular integer matrix.  All of those operations preserve the law
exactly, which keeps the generators valid by construction and the exact
backend fast (integer entries, +-1 determinants).

The generators target the exact backend.  Densely conjugated nilpotent
matrices have notoriously ill-conditioned eigenvalues (a perturbation of
size eps spreads them over a ring of radius eps**(1/m)), so the float
backend is only expected to reproduce the structured catalog fixtures;
on generated instances the property suite records float failures instead
of raising.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .koszul import (
    BettiVector,
    build_complex,
    check_entry_budget,
    complex_profile,
    homology_dims,
    validate_complex,
)
from .lie_core import (
    Character,
    LieAlgebra,
    abelian_algebra,
    character,
    coeffs_text,
    derived_subalgebra,
    is_nilpotent,
    lie_algebra,
    validate_lie_algebra,
)
from .numeric import (
    EXACT,
    Matrix,
    Scalar,
    VerificationFailure,
    make_scalar,
    matrix_from_rows,
    rank,
    sc_zero,
    zeros,
)
from .representation import (
    Representation,
    conjugate_representation,
    direct_sum,
    representation,
    shift,
    validate_representation,
)
from .spectra import (
    all_spectra,
    chain_projections,
    char_subset,
    compare_routes,
    dedup_characters,
    joint_eigencharacters,
    same_character_sets,
    spectral_candidates,
    spectrum,
    taylor_kind,
)


# --- catalog ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    """A pinned representation with its expected spectral data.

    Expected members are stored as plain integer coefficient tuples so the
    same fixture serves both backends; tests coerce them as needed.
    chain_dims is the expected subspace dimension profile of the refined
    central chain, None when the algebra is not nilpotent.
    """

    name: str
    rep: Representation
    taylor: Tuple[Tuple[int, ...], ...]
    eigenchars: Tuple[Tuple[int, ...], ...]
    chain_dims: Optional[Tuple[int, ...]]
    notes: str


def _heisenberg(backend: str) -> LieAlgebra:
    return lie_algebra(["x", "y", "z"], {(0, 1): [0, 0, 1]}, backend)


def _a1_rep(backend: str) -> Representation:
    return representation(abelian_algebra(["x"], backend), [[[2, 0], [0, 3]]])


def _h3_rep(backend: str) -> Representation:
    return representation(
        _heisenberg(backend),
        [
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        ],
    )


def _s2_rep(backend: str) -> Representation:
    L = lie_algebra(["x", "y"], {(0, 1): [0, 1]}, backend)
    return representation(L, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])


def _f4_rep(backend: str) -> Representation:
    L = lie_algebra(
        ["e1", "e2", "e3", "e4"],
        {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]},
        backend,
    )
    z4 = [[0] * 4 for _ in range(4)]

    def unit(i, j):
        out = [row[:] for row in z4]
        out[i][j] = 1
        return out

    lowering = [row[:] for row in z4]
    lowering[1][0] = 1
    lowering[2][1] = 1
    return representation(L, [lowering, unit(0, 3), unit(1, 3), unit(2, 3)])


def zero_representation(L: LieAlgebra, m: int) -> Representation:
    return Representation(L, m, tuple(zeros(m, m, L.backend) for _ in range(L.n)))


# name -> representation builder and expected data of each pinned instance
_CATALOG = {
    "A1": (_a1_rep, dict(
        taylor=((2,), (3,)),
        eigenchars=((2,), (3,)),
        chain_dims=(0, 1),
        notes="one abelian generator acting as diag(2,3); the classical "
        "single-operator sanity check",
    )),
    "H3": (_h3_rep, dict(
        taylor=((0, 0, 0),),
        eigenchars=((0, 0, 0),),
        chain_dims=(0, 1, 2, 3),
        notes="Heisenberg triple on C^3; both routes give only the zero "
        "character",
    )),
    "S2": (_s2_rep, dict(
        taylor=((0, 0), (2, 0)),
        eigenchars=((1, 0),),
        chain_dims=None,
        notes="affine-line representation on C^2; the homology route gives "
        "{(0,0),(2,0)} while the eigencharacter route gives {(1,0)}, so "
        "the two descriptions genuinely part ways off the nilpotent case",
    )),
    "Z3": (lambda backend: zero_representation(_heisenberg(backend), 3), dict(
        taylor=((0, 0, 0),),
        eigenchars=((0, 0, 0),),
        chain_dims=(0, 1, 2, 3),
        notes="zero representation of the Heisenberg algebra; every "
        "spectrum collapses to the zero character",
    )),
    "F4": (_f4_rep, dict(
        taylor=((0, 0, 0, 0),),
        eigenchars=((0, 0, 0, 0),),
        chain_dims=(0, 1, 2, 3, 4),
        notes="dimension-4 filiform algebra in its standard faithful "
        "module; strictly upper-triangularizable, spectrum {0}",
    )),
}


def catalog(backend: str = EXACT) -> List[Fixture]:
    """The pinned instances every other module is tested against."""
    return [fixture(name, backend) for name in _CATALOG]


def fixture(name: str, backend: str = EXACT) -> Fixture:
    """The catalog instance of the given name (any case), built alone."""
    wanted = name.strip().upper()
    if wanted not in _CATALOG:
        raise KeyError(f"unknown fixture {name!r}; catalog has A1, H3, S2, Z3, F4")
    build, data = _CATALOG[wanted]
    return Fixture(wanted, build(backend), **data)


# --- generators -------------------------------------------------------------------


def random_character(rng: random.Random, L: LieAlgebra) -> Character:
    """Small-integer character drawn from the given stream.

    Coordinates free of [L, L] get nonzero draws (zero twists would just
    duplicate the base block), pinned coordinates are solved from the
    echelon basis of the derived subalgebra.
    """
    # tol passed as is_character passes it, so both calls share one cache entry
    derived = derived_subalgebra(L, None)
    coeffs: List[Scalar] = [sc_zero(L.backend)] * L.n
    for j in range(L.n):
        if j in derived.pivots:
            continue
        v = rng.randint(0, 2)
        while v == 0:
            v = rng.randint(0, 2)
        coeffs[j] = make_scalar(v, L.backend)
    # reduced echelon rows: pivot entry 1, zero at the other pivots
    for lead, row in zip(derived.pivots, derived.basis):
        acc = sc_zero(L.backend)
        for j, x in enumerate(row):
            if j != lead:
                acc = acc + x * coeffs[j]
        coeffs[lead] = -acc
    return character(L, coeffs)


def unimodular_matrix(rng: random.Random, size: int, backend: str) -> Matrix:
    """Random product of integer elementary operations; exactly invertible."""
    rows = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(2 * size):
        i = rng.randrange(size)
        j = rng.randrange(size)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
    rng.shuffle(rows)
    return matrix_from_rows(
        [[make_scalar(v, backend) for v in row] for row in rows], backend
    )


def _twist(rep: Representation, f: Character) -> Representation:
    # adding f*I moves every eigencharacter up by f; shift subtracts, so negate
    return shift(rep, Character(rep.algebra, tuple(-c for c in f.coeffs)))


def random_nilpotent_rep(
    seed: int,
    base: str = "H3",
    m: Optional[int] = None,
    backend: str = EXACT,
) -> Representation:
    """Seed-deterministic valid representation on C^m built from a catalog block.

    Layout before conjugation: one untwisted copy of the base block, more
    copies each twisted by a random character, and a scalar block f*I on
    the dimension remainder.
    """
    fix = fixture(base, backend)
    block = fix.rep
    L = block.algebra
    if not is_nilpotent(L):
        raise ValueError(f"base {base!r} is not a nilpotent-algebra fixture")
    if m is None:
        m = block.m
    if m < block.m:
        raise ValueError(f"target dimension {m} is below the base block size {block.m}")
    rng = random.Random(seed)
    copies, remainder = divmod(m, block.m)
    out = block
    for _ in range(copies - 1):
        out = direct_sum(out, _twist(block, random_character(rng, L)))
    if remainder:
        pad = zero_representation(L, remainder)
        out = direct_sum(out, _twist(pad, random_character(rng, L)))
    return conjugate_representation(out, unimodular_matrix(rng, m, backend))


# --- finite-rank proxy ------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for the rank-budget experiment.

    The budget must stay below every dimension in the schedule, so the
    operator tuple always has a nonzero common kernel.
    """

    algebra: str = "h3"
    schedule: Tuple[int, ...] = (6, 10, 14)
    rank_budget: int = 3
    seed: int = 0
    backend: str = EXACT


@dataclass(frozen=True)
class ProxyRow:
    m: int
    rank_budget: int
    sigma_size: int
    eigenchar_size: int
    equality: bool
    elapsed_ms: float


def finite_rank_proxy(config: ExperimentConfig) -> Tuple[ProxyRow, ...]:
    """One row per padded dimension m.

    Each generated operator tuple has per-matrix rank within the budget;
    the row records whether the spectrum equals {0} joined with the
    eigencharacter set.  Wall time is measured per row but kept out of the
    canonical CSV (see proxy_csv) so a rerun reproduces identical bytes.
    Over the entry budget at the largest m, raises DimensionCap up front.
    """
    if not config.schedule:
        raise ValueError("empty dimension schedule")
    lo = min(config.schedule)
    if config.rank_budget >= lo:
        raise ValueError(
            f"rank budget {config.rank_budget} must stay below the smallest "
            f"scheduled dimension {lo}"
        )
    base = fixture(config.algebra, config.backend).rep
    check_entry_budget(base.algebra.n, max(config.schedule), 0, base.algebra.n)
    if lo < base.m:
        raise ValueError(f"schedule entry {lo} is below the base block size {base.m}")
    for mat in base.mats:
        if rank(mat) > config.rank_budget:
            raise ValueError("base block operator rank exceeds the budget")
    rng = random.Random(config.seed)
    zero = base.algebra.zero_vector()
    rows: List[ProxyRow] = []
    for m in config.schedule:
        t0 = time.perf_counter()
        padded = base
        if m > base.m:
            padded = direct_sum(base, zero_representation(base.algebra, m - base.m))
        rep = conjugate_representation(
            padded, unimodular_matrix(rng, m, config.backend)
        )
        ranks = [rank(mat) for mat in rep.mats]
        if max(ranks) > config.rank_budget:
            raise VerificationFailure(f"conjugation raised an operator rank to {max(ranks)}")
        sigma = spectrum(rep, taylor_kind()).member_coeffs
        eig = tuple(f.coeffs for f, _ in joint_eigencharacters(rep))
        if sum(ranks) < m:
            # the operators share a nonzero kernel vector, so 0 must be a member
            if not char_subset((zero,), sigma, config.backend):
                raise VerificationFailure(
                    "0 is missing from the spectrum of operators with a common kernel")
        expected = dedup_characters((zero,) + eig, config.backend)
        eq = same_character_sets(sigma, expected, config.backend)
        elapsed = (time.perf_counter() - t0) * 1000.0
        rows.append(
            ProxyRow(m, config.rank_budget, len(sigma), len(eig), eq, elapsed)
        )
    return tuple(rows)


def proxy_csv(rows: Sequence[ProxyRow], include_timing: bool = False) -> str:
    """CSV rendering; timing column only on request, it is never canonical."""
    header = "m,rank_budget,sigma_size,eigenchar_size,equality"
    if include_timing:
        header += ",elapsed_ms"
    lines = [header]
    for r in rows:
        line = (
            f"{r.m},{r.rank_budget},{r.sigma_size},{r.eigenchar_size},"
            f"{str(r.equality).lower()}"
        )
        if include_timing:
            line += f",{r.elapsed_ms:.3f}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# --- property suite ---------------------------------------------------------------


@dataclass(frozen=True)
class SuiteFailure:
    instance: str
    seed: Optional[int]
    check: str
    detail: str


@dataclass(frozen=True)
class SuiteSummary:
    instances: int
    checks: int
    failures: Tuple[SuiteFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


_SUITE_BASES = ("H3", "F4", "A1", "Z3")
# largest module dimension of a generated suite instance
_SUITE_MAX_M = 8


def _suite_dimension(base_m: int, s: int) -> int:
    # cycle block counts and remainders so the schedule is not all multiples
    m = (1 + (s // 2) % 2) * base_m + (s // 4) % base_m
    while m > _SUITE_MAX_M:
        m -= base_m
    return max(m, base_m)


def _check_validity(rep: Representation) -> Optional[str]:
    bad_alg = validate_lie_algebra(rep.algebra)
    if bad_alg:
        return f"{len(bad_alg)} bracket residuals, first at {bad_alg[0][0]}"
    bad_rep = validate_representation(rep)
    if bad_rep:
        return f"{len(bad_rep)} homomorphism residuals, first at {bad_rep[0][0]}"
    return None


def _check_complex(rep: Representation) -> Optional[str]:
    C = build_complex(rep)
    bad = validate_complex(C)
    if bad:
        return f"d o d nonzero in degrees {bad}"
    _, _, betti = complex_profile(C)
    if rep.algebra.n >= 1:
        euler = sum((-1) ** p * h for p, h in enumerate(betti.h))
        if euler != 0:
            return f"alternating homology sum {euler}"
    return None


def _check_structure(rep: Representation, reports) -> Optional[str]:
    n = rep.algebra.n
    backend = rep.backend
    taylor = reports["taylor"].member_coeffs
    if rep.m >= 1 and not taylor:
        return "empty spectrum on a nonzero module"
    for fam in ("delta", "pi"):
        for k in range(n):
            lower = reports[f"{fam}:{k}"].member_coeffs
            upper = reports[f"{fam}:{k + 1}"].member_coeffs
            if not char_subset(lower, upper, backend):
                return f"{fam}:{k} escapes {fam}:{k + 1}"
        if not same_character_sets(reports[f"{fam}:{n}"].member_coeffs, taylor, backend):
            return f"{fam}:{n} differs from taylor"
    if not same_character_sets(reports["split"].member_coeffs, taylor, backend):
        return "split differs from taylor"
    for key, report in reports.items():
        if report.kind.essential and report.members:
            return f"essential kind {key} is not empty"
    return None


def _check_soundness(rep: Representation, reports) -> Optional[str]:
    members = reports["taylor"].member_coeffs
    if not char_subset(members, spectral_candidates(rep), rep.backend):
        return "members escape the candidate set"
    if rep.backend == EXACT and is_nilpotent(rep.algebra):
        # the reports' table, built on weight blocks, against full complexes:
        # member Betti vectors, zero off the members
        taylor = reports["taylor"]
        table = dict(taylor.betti)
        zero = BettiVector((0,) * (rep.algebra.n + 1))
        for c in taylor.candidates:
            if homology_dims(rep, Character(rep.algebra, c)) != table.get(c, zero):
                return f"weight-block homology differs from the full complex at {coeffs_text(c)}"
    return None


def _check_routes(rep: Representation, reports) -> Optional[str]:
    if not is_nilpotent(rep.algebra):
        return None  # the routes may legitimately part ways
    # raises on a disagreement, which the suite records as this check's failure
    compare_routes(rep, reports["taylor"], joint_eigencharacters(rep))
    return None


def _check_projection(rep: Representation, reports) -> Optional[str]:
    L = rep.algebra
    if not is_nilpotent(L) or L.n < 1:
        return None
    if not all(p.equal for p in chain_projections(rep, reports)):
        return "projection onto the codimension-one chain ideal failed"
    return None


def run_property_suite(
    seed_count: int = 25,
    backend: str = EXACT,
) -> SuiteSummary:
    """Runs the module invariants over the catalog plus generated instances.

    Failures carry the instance name and the reproduction seed; an
    exception inside a check is recorded as a failure, never raised.
    Instances that fail validation are reported at that stage and skipped
    for the spectral checks.
    """
    instances: List[Tuple[str, Optional[int], Representation]] = []
    for fix in catalog(backend):
        instances.append((fix.name, None, fix.rep))
    for s in range(seed_count):
        base = _SUITE_BASES[s % len(_SUITE_BASES)]
        base_m = fixture(base, backend).rep.m
        m = _suite_dimension(base_m, s)
        instances.append(
            (f"{base}#s{s}m{m}", s, random_nilpotent_rep(s, base, m, backend))
        )

    failures: List[SuiteFailure] = []
    checks = 0

    def run(name, seed, label, fn) -> bool:
        nonlocal checks
        checks += 1
        try:
            detail = fn()
        except Exception as exc:  # suite reports, never crashes
            detail = f"{type(exc).__name__}: {exc}"
        if detail:
            failures.append(SuiteFailure(name, seed, label, detail))
            return False
        return True

    for name, seed, rep in instances:
        if not run(name, seed, "validate", lambda: _check_validity(rep)):
            continue
        run(name, seed, "complex", lambda: _check_complex(rep))
        try:
            reports = all_spectra(rep)
        except Exception as exc:
            checks += 1
            failures.append(
                SuiteFailure(name, seed, "spectra", f"{type(exc).__name__}: {exc}")
            )
            continue
        run(name, seed, "structure", lambda: _check_structure(rep, reports))
        run(name, seed, "soundness", lambda: _check_soundness(rep, reports))
        run(name, seed, "routes", lambda: _check_routes(rep, reports))
        run(name, seed, "projection", lambda: _check_projection(rep, reports))
    return SuiteSummary(len(instances), checks, tuple(failures))
