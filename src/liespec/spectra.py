"""Joint spectra of a representation.

Two independent routes:

  * homology route: evaluate Betti numbers of the complex of rho - f over a
    finite candidate set, once per representation (homology_table), and
    read every spectrum kind off that one table as a union of per-degree
    membership sets.  Kinds with one degree range share one member set: in
    finite dimension a split kind has the members of its plain kind, and
    delta_n and pi_n those of taylor, so all_spectra reads the members once
    per distinct range.  The cross-check and the projections reuse the same
    tables: a report needs one for the representation and one for its
    restriction to an ideal, and chain_projections compares each distinct
    projection once;
  * eigencharacter route: enumerate joint eigenvectors directly, narrowing
    a joint eigenspace V level by level to the kernel of rho(e_k) - lam
    within V.  Exact input takes the basis in an ideal order.  While the
    levels so far span an ideal, V is rho(L)-invariant (Lie's invariance
    lemma), and a level factors and takes kernels of rho(e_k) restricted
    to V, a dim V x dim V matrix, after checking the invariance; past the
    longest such prefix a level takes the kernel of (rho(e_k) - lam) V.
    Float input intersects V with the whole kernel of rho(e_k) - lam.  For
    nilpotent algebras the two routes agree; for merely solvable ones they
    can differ, and cross_validate reports how.

The candidate set is {w - g} where w runs over the triangularization
weights of rho and g over the homology support of the algebra's
one-dimensional modules.  Soundness: filter the complex by a rho-invariant
flag; each graded piece is the complex of a one-dimensional module with
weight w - f, so nonvanishing total homology forces f = w - g for some
weight w and some g with nonvanishing one-dimensional homology.  On a
nilpotent algebra the support is {0} and the candidates are exactly the
weights.

On exact input of a nilpotent algebra the table is built on weight blocks:
X is the direct sum of its generalized weight spaces X^w, each a submodule,
homology is additive over the sum, and X^w shifted by f has no zero weight,
hence no homology, unless w = f (Dixmier).  So the Betti vector of rho - f
is that of rho restricted to X^f, minus f, on a complex of dim X^f copies of
the exterior algebra instead of m.  Float and merely solvable input keep the
full complexes over the triangularization candidates.

Often every rho(e_l) acts on X^w as the scalar w_l, as on a zero pad or a
diagonal block.  Then X^w is mu = dim X^w copies of the one-dimensional
module C_w, d_p(rho - w) on X^w is B_p (x) I_mu, and its Betti vector is mu
times that of H_*(L; C), the homology of the zero one-dimensional module
(Chevalley-Eilenberg 1948), computed once per algebra (_trivial_betti).  No
complex is built for such a block; its entry budget is still checked.  A
scalar matrix c I, read off its Z[i] form (numeric.scalar_of), is not
factored either: the block split takes it as the one run (c, dim), and a
search level descends once with lam = c.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .lie_core import (
    Character,
    LieAlgebra,
    Subspace,
    coeffs_text,
    is_character,
    is_nilpotent,
    is_solvable,
    jordan_holder_chain,
    restrict_character,
)
from .koszul import BettiVector, check_entry_budget, homology_dims
from .numeric import (
    EXACT,
    EigenRuns,
    Matrix,
    Scalar,
    VerificationFailure,
    _column_echelon,
    _kernel_with_free_rows,
    complement_columns,
    eigenvalues,
    hstack,
    identity,
    intersect_subspaces,
    inverse,
    nullspace_basis,
    restrict_to_span,
    sc_abs,
    sc_is_zero,
    scalar_key,
    scalar_of,
    sub_diagonal,
    scalar_to_json,
    submatrix,
)
from .representation import Representation, adjoint_action, restrict_rep

# float-backend threshold for merging candidate and member characters
CHAR_MERGE = 1e-6


class NotSolvable(Exception):
    """Triangularization-based candidates need a solvable algebra."""


class HypothesisViolation(Exception):
    """The eigencharacter shortcut is only a theorem for nilpotent algebras."""


class RouteDisagreement(VerificationFailure):
    """The homology and eigencharacter routes differ on a nilpotent algebra."""


Vector = Tuple[Scalar, ...]

ANN_CLOSED_RANGE = (
    "closed-range clause dropped: every subspace of a finite-dimensional "
    "space is closed"
)
ANN_CLOSED_RANGE_READINGS = (
    "clause read both as R(d_(n-k)(rho-f)) and as R(d_(n-k)(rho)); "
    "vacuous either way in finite dimension"
)
ANN_ESSENTIAL = (
    "essential membership never occurs in finite dimension: homology is "
    "finite-dimensional and the identity operator is compact"
)
ANN_SPLIT = (
    "split membership computed from homology: a finite-dimensional complex "
    "splits at p exactly when H_p = 0"
)


# ---------------------------------------------------------------------------
# spectrum kinds
# ---------------------------------------------------------------------------

_FAMILIES = {"taylor", "delta", "pi"}


@dataclass(frozen=True)
class SpectrumKind:
    family: str  # taylor | delta | pi
    split: bool
    essential: bool
    k: Optional[int]

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown spectrum family {self.family!r}")
        if self.family == "taylor":
            if self.k is not None:
                raise ValueError("the taylor family takes no degree k")
        elif self.k is None or self.k < 0:
            raise ValueError(f"the {self.family} family needs a degree k >= 0, got {self.k}")

    def render(self) -> str:
        if self.family == "taylor":
            if self.essential:
                return "split_e" if self.split else "fredholm"
            return "split" if self.split else "taylor"
        name = self.family
        if self.essential:
            name += "_e"
        if self.split:
            name = "split_" + name
        return f"{name}:{self.k}"

    def degree_range(self, n: int) -> range:
        if self.family == "taylor":
            return range(0, n + 1)
        k = min(self.k, n)
        if self.family == "delta":
            return range(0, k + 1)
        return range(n - k, n + 1)


def taylor_kind(split: bool = False, essential: bool = False) -> SpectrumKind:
    return SpectrumKind("taylor", split, essential, None)


def parse_kind(text: str) -> SpectrumKind:
    """Accepts taylor, delta:K, pi:K, fredholm, delta_e:K, pi_e:K, split,
    split_delta:K, split_pi:K, split_e, split_delta_e:K, split_pi_e:K."""
    s = text.strip()
    simple = {
        "taylor": SpectrumKind("taylor", False, False, None),
        "fredholm": SpectrumKind("taylor", False, True, None),
        "split": SpectrumKind("taylor", True, False, None),
        "split_e": SpectrumKind("taylor", True, True, None),
    }
    if s in simple:
        return simple[s]
    m = _re.match(
        r"^(?P<split>split_)?(?P<family>delta|pi)(?P<ess>_e)?:(?P<k>\d+)$", s
    )
    if m is None:
        raise ValueError(f"unknown spectrum kind: {text!r}")
    return SpectrumKind(
        m.group("family"),
        m.group("split") is not None,
        m.group("ess") is not None,
        int(m.group("k")),
    )


@lru_cache(maxsize=64)
def all_kinds(n: int) -> Tuple[SpectrumKind, ...]:
    """Every kind meaningful for an n-dimensional algebra; cached per n."""
    kinds = [
        SpectrumKind("taylor", False, False, None),
        SpectrumKind("taylor", False, True, None),
        SpectrumKind("taylor", True, False, None),
        SpectrumKind("taylor", True, True, None),
    ]
    for family in ("delta", "pi"):
        for split in (False, True):
            for ess in (False, True):
                for k in range(n + 1):
                    kinds.append(SpectrumKind(family, split, ess, k))
    return tuple(kinds)


# ---------------------------------------------------------------------------
# character bookkeeping
# ---------------------------------------------------------------------------


def char_sort_key(coeffs: Vector) -> Tuple[str, ...]:
    return tuple(str(scalar_to_json(c)) for c in coeffs)


def _char_close(a: Vector, b: Vector, thr: float) -> bool:
    return all(sc_abs(x - y) <= thr for x, y in zip(a, b))


def dedup_characters(tuples: Sequence[Vector], backend: str) -> Tuple[Vector, ...]:
    """Canonical sorted deduplication; float merges within CHAR_MERGE."""
    if backend == EXACT:
        return tuple(sorted(set(tuples), key=char_sort_key))
    ordered = sorted(tuples, key=lambda t: tuple(scalar_key(x) for x in t))
    reps: List[Vector] = []
    for t in ordered:
        if not any(_char_close(t, r, CHAR_MERGE) for r in reps):
            reps.append(t)
    return tuple(sorted(reps, key=char_sort_key))


def same_character_sets(a: Sequence[Vector], b: Sequence[Vector], backend: str) -> bool:
    if backend == EXACT:
        return set(a) == set(b)
    aa, bb = list(a), list(b)
    if len(aa) != len(bb):
        return False
    used = [False] * len(bb)
    for t in aa:
        hit = next(
            (i for i, s in enumerate(bb) if not used[i] and _char_close(t, s, CHAR_MERGE)),
            None,
        )
        if hit is None:
            return False
        used[hit] = True
    return True


def char_subset(a: Sequence[Vector], b: Sequence[Vector], backend: str) -> bool:
    if backend == EXACT:
        return set(a) <= set(b)
    return all(any(_char_close(t, s, CHAR_MERGE) for s in b) for t in a)


# ---------------------------------------------------------------------------
# eigencharacter route
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _ideal_order(L: LieAlgebra) -> Tuple[int, ...]:
    """Basis indices i_0, i_1, ... such that e_(i_0), ..., e_(i_j) span an
    ideal of L for every j: greedily the lowest index i with every
    [e_i, e_j] in the span of the indices chosen so far and i, read off the
    zero pattern of the structure constants.  Choosing more indices only
    makes the test easier to pass, so the greedy reaches all n indices
    whenever some order does; otherwise it stops at the longest such prefix
    (possibly empty).  Cached per algebra."""
    reach: List[set] = [set() for _ in range(L.n)]
    for i, j, coeffs in L.table:
        support = {k for k, c in enumerate(coeffs) if not sc_is_zero(c)}
        reach[i] |= support
        reach[j] |= support
    order: List[int] = []
    while True:
        chosen = set(order)
        i = next((i for i in range(L.n)
                  if i not in chosen and reach[i] <= chosen | {i}), None)
        if i is None:
            return tuple(order)
        order.append(i)


def _joint_eigenvectors(
    rep: Representation,
    tol: Optional[float],
    multisets: Optional[List[Optional[EigenRuns]]] = None,
) -> Iterator[Tuple[Vector, Matrix]]:
    """Joint eigenvalue tuples with one joint eigenvector each, an m x 1
    matrix.

    Exhaustive branch over eigenvalues, narrowing the joint eigenspace V (a
    basis, as the columns of one matrix) by one basis element e_k per
    level, leaves in deterministic branch order.  By Lie's theorem a
    nonzero module of a solvable algebra has a joint eigenvector, so
    finding none raises NotSolvable.

    Exact input walks the basis in _ideal_order, the longest prefix that
    spans ideals first, and V carries rows P on which it is the identity.
    While the levels so far span an ideal I, V is a joint eigenspace of I,
    hence rho(L)-invariant (Lie's invariance lemma), so a prefix level with
    V not yet everything branches over the eigenvalues of R, the rows P of
    rho(e_k) V, a dim V x dim V matrix, and takes K, the kernel of R - lam.
    numeric.restrict_to_span forms R: V must be the identity on rows P, and
    every other row i is checked as V[i] R = (rho(e_k) V)[i], so a V that
    is not invariant raises VerificationFailure.  Every other level
    branches over the eigenvalues of the whole rho(e_k) and takes K, the
    kernel of (rho(e_k) - lam) V, or of rho(e_k) - lam while V is
    everything.  Either way V moves to V K, with rows P[F] for the free
    rows F of K; a K with every column leaves V as it is.  A leaf's vector is the first column of the canonical echelon basis
    of V, unless rho(e_0), ..., rho(e_(n-2)) are all scalar: then only one
    level narrows V, from everything, and the leaf keeps the first column
    of that free-variable kernel basis.

    A level whose matrix, whole or restricted, is scalar c I does not
    factor it or take a kernel: V is already the eigenspace of c, and the
    level descends once with lam = c, to the same leaves as the kernel of
    the zero matrix would give.

    Float input walks the basis in order, takes the whole kernel of
    rho(e_k) - lam intersected with V, and reads a leaf's vector off V as
    found.

    multisets[k] is the eigenvalue multiset of the whole rep.mats[k], as
    the (value, multiplicity) runs of numeric.eigenvalues; an entry that is
    None is computed the first time the whole matrix is factored and stored
    back, so each is factored at most once per search and the caller can
    reuse the result.  A scalar whole matrix is never factored, and its
    entry stays None.
    """
    L, m = rep.algebra, rep.m
    if m == 0:
        return
    if multisets is None:
        multisets = [None] * L.n
    exact = rep.backend == EXACT
    prefix = _ideal_order(L) if exact else ()
    order = prefix + tuple(k for k in range(L.n) if k not in prefix)
    position = [order.index(k) for k in range(L.n)]
    echelon_leaf = exact and any(scalar_of(rep.mats[k]) is None for k in range(L.n - 1))

    def whole_runs(k: int) -> EigenRuns:
        if multisets[k] is None:
            multisets[k] = eigenvalues(rep.mats[k], tol)
        return multisets[k]

    def descend(j: int, space: Matrix, rows: Sequence[int], lams: Tuple[Scalar, ...]):
        if not space.cols:
            return
        if j == L.n:
            if echelon_leaf and space.cols < m:
                space = _column_echelon(space, tol)
            yield tuple(lams[p] for p in position), submatrix(space, range(m), range(1))
            return
        k = order[j]
        mat = rep.mats[k]
        if not exact:
            for lam, _ in whole_runs(k):
                nxt = nullspace_basis(sub_diagonal(mat, lam), tol)
                if space.cols < m:
                    nxt = intersect_subspaces(space, nxt, tol)
                yield from descend(j + 1, nxt, rows, lams + (lam,))
            return
        restrict = j < len(prefix) and space.cols < m
        if restrict:
            mat = restrict_to_span(mat, space, rows, "joint eigenspace")
        c = scalar_of(mat)
        if c is not None:  # V is already the eigenspace of c
            yield from descend(j + 1, space, rows, lams + (c,))
            return
        for lam, _ in eigenvalues(mat) if restrict else whole_runs(k):
            shifted = sub_diagonal(mat, lam)
            if not restrict and space.cols < m:
                shifted = shifted * space
            kernel, free = _kernel_with_free_rows(shifted)
            if kernel.cols == space.cols:
                yield from descend(j + 1, space, rows, lams + (lam,))
            elif space.cols == m:
                yield from descend(j + 1, kernel, free, lams + (lam,))
            else:
                yield from descend(j + 1, space * kernel, [rows[f] for f in free], lams + (lam,))

    found = False
    for leaf in descend(0, identity(m, rep.backend), range(m), ()):
        found = True
        yield leaf
    if not found:
        raise NotSolvable("no joint eigenvector found; algebra action is not triangularizable")


def joint_eigencharacters(
    rep: Representation, tol: Optional[float] = None
) -> List[Tuple[Character, Matrix]]:
    """All characters f with a nonzero joint eigenvector, with witnesses.

    Leaves of the joint eigenvector search that fail the character test are
    dropped (cannot happen for genuine representations, but checked).
    """
    L = rep.algebra
    backend = rep.backend
    found = [(lams, v) for lams, v in _joint_eigenvectors(rep, tol) if is_character(L, lams, tol)]
    ordered = dedup_characters(tuple(c for c, _ in found), backend)
    out = []
    for c in ordered:
        if backend == EXACT:
            witness = next(w for cc, w in found if cc == c)
        else:
            witness = next(w for cc, w in found if _char_close(cc, c, CHAR_MERGE))
        out.append((Character(L, c), witness))
    return out


# ---------------------------------------------------------------------------
# triangularization weights
# ---------------------------------------------------------------------------


def triangular_weights(rep: Representation, tol: Optional[float] = None) -> List[Vector]:
    """Diagonal weight tuples of a simultaneous triangularization, with
    multiplicity, obtained by repeated eigenvector extraction and quotient."""
    L = rep.algebra
    if not is_solvable(L):
        raise NotSolvable("simultaneous triangularization needs a solvable algebra")
    backend = rep.backend
    work = rep
    weights: List[Vector] = []
    multisets: List[Optional[EigenRuns]] = [None] * L.n
    while work.m > 0:
        lams, v = next(_joint_eigenvectors(work, tol, multisets))
        weights.append(lams)
        if work.m == 1:
            break
        basis = hstack([v, complement_columns(v, tol)])
        try:
            inv = inverse(basis, tol)
        except ZeroDivisionError:
            # exact [v | e_j] is a basis by construction; a float one can fail
            # the relative pivot threshold when v has large entries
            raise VerificationFailure(
                "quotient basis [v | e_j] of a joint eigenvector is numerically singular"
            ) from None
        sub_mats = []
        for mat in work.mats:
            sub_mats.append(submatrix(inv * mat * basis, range(1, work.m), range(1, work.m)))
        work = Representation(L, work.m - 1, tuple(sub_mats))
        if backend == EXACT:
            # the quotient's rho(e_k) keeps all of a known multiset but one
            # copy of lams[k]
            multisets = [None if ms is None else _drop_one(ms, lam)
                         for ms, lam in zip(multisets, lams)]
        else:
            multisets = [None] * L.n
    return weights


def _drop_one(runs: EigenRuns, value: Scalar) -> EigenRuns:
    """The runs with one copy of value taken out: its run shortened, or
    dropped when it held one copy."""
    out = []
    for v, k in runs:
        if v == value:
            k -= 1
        if k:
            out.append((v, k))
    return out


def weight_candidates(rep: Representation, tol: Optional[float] = None) -> Tuple[Vector, ...]:
    """Deduplicated triangularization weights, each checked to be a
    character."""
    return _checked_weights(rep, triangular_weights(rep, tol), tol)


def _checked_weights(rep: Representation, found: Sequence[Vector],
                     tol: Optional[float]) -> Tuple[Vector, ...]:
    weights = dedup_characters(found, rep.backend)
    for w in weights:
        if not is_character(rep.algebra, w, tol):
            raise VerificationFailure(f"non-character weight {coeffs_text(w)}")
    return weights


# ---------------------------------------------------------------------------
# generalized weight spaces
# ---------------------------------------------------------------------------


def _splits_by_weight(rep: Representation) -> bool:
    """Exact input of a nilpotent algebra: its generalized weight spaces are
    submodules, and exact arithmetic can verify each split."""
    return rep.backend == EXACT and is_nilpotent(rep.algebra)


def weight_blocks(rep: Representation) -> List[Tuple[Vector, Representation]]:
    """Generalized weight spaces X^w = the intersection over k of
    ker(rho(e_k) - w_k)^m, as (w, rho restricted to X^w); the weights are
    distinct and the block dimensions sum to m.

    Split level by level, k = 0..n-1: a block on which rho(e_k) is scalar
    c I keeps c as its one eigenvalue, with no characteristic polynomial.
    A block on which rho(e_k) has more than one eigenvalue is cut into the
    kernels of (rho(e_k) - lam)^mu, mu the multiplicity of lam.  Each
    kernel has dimension mu and, L being nilpotent, is invariant under every
    rho(e_j).  Both are verified.  The kernel basis V is the identity on
    its free rows F, so the restriction of M = rho(e_j) is R, the rows F of
    M V (numeric.restrict_to_span); V must be the identity on rows F, and
    every other row i is checked as V[i] R = (M V)[i].  A failure raises
    VerificationFailure.
    """
    if not _splits_by_weight(rep):
        raise ValueError("weight blocks need exact input of a nilpotent algebra")
    blocks: List[Tuple[Vector, Representation]] = [((), rep)] if rep.m else []
    for k in range(rep.algebra.n):
        split = []
        for w, block in blocks:
            mat = block.mats[k]
            c = scalar_of(mat)
            runs = eigenvalues(mat) if c is None else [(c, block.m)]
            if len(runs) == 1:  # the whole block is one weight space
                split.append((w + (runs[0][0],), block))
                continue
            for lam, mu in runs:
                # ker N^mu = ker N^j for every j >= mu: square until past mu
                power, j = sub_diagonal(mat, lam), 1
                while j < mu:
                    power, j = power * power, 2 * j
                v, free = _kernel_with_free_rows(power)
                if v.cols != mu:
                    raise VerificationFailure(
                        f"generalized eigenspace of dimension {v.cols} for an "
                        f"eigenvalue of multiplicity {mu}"
                    )
                mats = tuple(restrict_to_span(other, v, free, "generalized weight space")
                             for other in block.mats)
                split.append((w + (lam,), Representation(block.algebra, mu, mats)))
        blocks = split
    return blocks


# ---------------------------------------------------------------------------
# candidate enlargement through one-dimensional homology support
# ---------------------------------------------------------------------------


def _one_dim_rep(L: LieAlgebra, g: Vector) -> Representation:
    mats = tuple(Matrix(1, 1, (c,), L.backend) for c in g)
    return Representation(L, 1, mats)


@lru_cache(maxsize=64)
def homology_support(L: LieAlgebra, tol: Optional[float] = None) -> Tuple[Vector, ...]:
    """Characters g with nonvanishing homology of the one-dimensional module
    with weight g.  Candidates are negated subset sums of adjoint weights;
    each candidate is tested directly, so the result is exact, not an
    estimate.  For nilpotent algebras this is {0}."""
    ad_weights = triangular_weights(adjoint_action(L), tol)
    zero = L.zero_vector()
    sums = {zero}
    for w in ad_weights:
        sums |= {tuple(a + b for a, b in zip(s, w)) for s in sums}
    support = []
    for s in dedup_characters(tuple(sums), L.backend):
        g = tuple(-x for x in s)
        if not is_character(L, g, tol):
            continue
        if homology_dims(_one_dim_rep(L, g), tol=tol).total > 0:
            support.append(g)
    return dedup_characters(support, L.backend)


@lru_cache(maxsize=64)
def _trivial_betti(L: LieAlgebra) -> BettiVector:
    """H_*(L; C): the Betti vector of the zero one-dimensional module,
    cached per algebra."""
    return homology_dims(_one_dim_rep(L, L.zero_vector()))


def spectral_candidates(rep: Representation, tol: Optional[float] = None) -> Tuple[Vector, ...]:
    """Finite superset of every homology spectrum: weights minus support."""
    weights = weight_candidates(rep, tol)
    support = homology_support(rep.algebra, tol)
    out = []
    for w in weights:
        for g in support:
            c = tuple(a - b for a, b in zip(w, g))
            if not is_character(rep.algebra, c, tol):
                raise VerificationFailure(f"non-character candidate {coeffs_text(c)}")
            out.append(c)
    return dedup_characters(out, rep.backend)


# ---------------------------------------------------------------------------
# homology table and spectra
# ---------------------------------------------------------------------------


def homology_table(
    rep: Representation,
    tol: Optional[float] = None,
) -> Tuple[Tuple[Vector, BettiVector], ...]:
    """Betti vectors of rho - f over the full candidate set, sorted.  On
    exact nilpotent input the candidates are the weights, and each complex
    is built on its own weight block, except that a block on which every
    rho(e_l) is scalar takes mu times the algebra's own Betti vector (see
    the module docstring)."""
    L = rep.algebra
    if _splits_by_weight(rep):
        blocks = dict(weight_blocks(rep))
        return tuple((w, _block_betti(blocks[w], w, tol))
                     for w in _checked_weights(rep, list(blocks), tol))
    return tuple((c, homology_dims(rep, Character(L, c), tol))
                 for c in spectral_candidates(rep, tol))


def _block_betti(block: Representation, w: Vector, tol: Optional[float]) -> BettiVector:
    """The Betti vector of rho - w on the weight block X^w.  When every
    rho(e_l) is the scalar w_l there, d_p(rho - w) is B_p (x) I_mu, so the
    Betti vector is mu times that of the zero one-dimensional module; the
    entry budget is checked as building the complex would."""
    L, mu = block.algebra, block.m
    if any(scalar_of(mat) is None for mat in block.mats):
        return homology_dims(block, Character(L, w), tol)
    check_entry_budget(L.n, mu, 0, L.n)
    return BettiVector(tuple(mu * h for h in _trivial_betti(L).h))


@dataclass(frozen=True)
class SpectrumReport:
    kind: SpectrumKind
    members: Tuple[Character, ...]
    betti: Tuple[Tuple[Vector, BettiVector], ...]
    route: str
    candidates: Tuple[Vector, ...]
    annotations: Tuple[str, ...]

    @property
    def member_coeffs(self) -> Tuple[Vector, ...]:
        return tuple(f.coeffs for f in self.members)


def _annotations(kind: SpectrumKind) -> Tuple[str, ...]:
    annotations: List[str] = []
    if kind.family == "pi":
        annotations.append(ANN_CLOSED_RANGE)
        if kind.essential:
            annotations.append(ANN_CLOSED_RANGE_READINGS)
    if kind.essential:
        annotations.append(ANN_ESSENTIAL)
    elif kind.split:
        annotations.append(ANN_SPLIT)
    return tuple(annotations)


# one kind as all_spectra reads it: (kind, its name, its degree range or
# None for an essential kind, its annotations)
KindPlan = Tuple[Tuple[SpectrumKind, str, Optional[range], Tuple[str, ...]], ...]


def _plan(kinds: Sequence[SpectrumKind], n: int) -> KindPlan:
    return tuple((kind, kind.render(), None if kind.essential else kind.degree_range(n),
                  _annotations(kind)) for kind in kinds)


@lru_cache(maxsize=64)
def _kind_plan(n: int) -> KindPlan:
    """The plan of all_kinds(n), cached per algebra dimension."""
    return _plan(all_kinds(n), n)


def all_spectra(
    rep: Representation,
    kinds: Optional[Sequence[SpectrumKind]] = None,
    tol: Optional[float] = None,
) -> Dict[str, SpectrumReport]:
    """Reports for many kinds, all_kinds by default, off one shared homology
    table.  The members and their Betti vectors are read once per distinct
    degree range, and every kind with that range gets the same tuples: a
    split kind has the members of its plain kind, and delta_n and pi_n those
    of taylor.  Every essential kind reports no members."""
    L = rep.algebra
    plan = _kind_plan(L.n) if kinds is None else _plan(kinds, L.n)
    table = homology_table(rep, tol) if any(degrees is not None for _, _, degrees, _ in plan) else ()
    candidates = tuple(c for c, _ in table)
    read: Dict[range, Tuple[Tuple[Character, ...], Tuple[Tuple[Vector, BettiVector], ...]]] = {}
    out = {}
    for kind, name, degrees, annotations in plan:
        if degrees is None:
            out[name] = SpectrumReport(kind, (), (), "homology", (), annotations)
            continue
        if degrees not in read:
            member_betti = tuple((c, b) for c, b in table if any(b.h[p] != 0 for p in degrees))
            read[degrees] = tuple(Character(L, c) for c, _ in member_betti), member_betti
        members, member_betti = read[degrees]
        out[name] = SpectrumReport(kind, members, member_betti, "homology", candidates, annotations)
    return out


def spectrum(
    rep: Representation,
    kind: SpectrumKind | str,
    tol: Optional[float] = None,
) -> SpectrumReport:
    if isinstance(kind, str):
        kind = parse_kind(kind)
    return all_spectra(rep, [kind], tol)[kind.render()]


def spectrum_via_eigencharacters(
    rep: Representation,
    override: bool = False,
    tol: Optional[float] = None,
) -> SpectrumReport:
    """The Taylor/Slodkowski spectrum read off joint eigenvectors.

    A theorem only for nilpotent algebras; solvable non-nilpotent input is
    refused unless explicitly overridden, because the characterization can
    genuinely fail there.
    """
    L = rep.algebra
    if not is_nilpotent(L) and not override:
        raise HypothesisViolation(
            "eigencharacter route requested for a non-nilpotent algebra; "
            "pass the override to force it"
        )
    pairs = joint_eigencharacters(rep, tol)
    members = tuple(f for f, _ in pairs)
    return SpectrumReport(
        kind=taylor_kind(),
        members=members,
        betti=(),
        route="eigencharacter",
        candidates=tuple(f.coeffs for f in members),
        annotations=("members are joint eigencharacters with explicit witnesses",),
    )


# ---------------------------------------------------------------------------
# cross-validation and projection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossValidation:
    nilpotent: bool
    homology_members: Tuple[Vector, ...]
    eigen_members: Tuple[Vector, ...]
    equal: bool
    eigen_contained: bool
    strict: bool


def cross_validate(
    rep: Representation,
    tol: Optional[float] = None,
) -> CrossValidation:
    """Computes both routes and compares.

    Nilpotent algebras must agree (a disagreement would be an
    implementation bug, so it raises); for solvable non-nilpotent input the
    report states containment of the eigencharacter set in the homology
    spectrum and whether it is strict.
    """
    if not is_solvable(rep.algebra):
        raise NotSolvable("joint spectra here are defined for solvable algebras")
    return compare_routes(
        rep, spectrum(rep, taylor_kind(), tol), joint_eigencharacters(rep, tol)
    )


def compare_routes(
    rep: Representation,
    taylor: SpectrumReport,
    eigen_pairs: Sequence[Tuple[Character, Matrix]],
) -> CrossValidation:
    """cross_validate on an already computed Taylor report and eigencharacters."""
    backend = rep.backend
    nilp = is_nilpotent(rep.algebra)
    hom = taylor.member_coeffs
    eig = tuple(f.coeffs for f, _ in eigen_pairs)
    equal = same_character_sets(hom, eig, backend)
    contained = char_subset(eig, hom, backend)
    strict = contained and not equal
    if nilp and not equal:
        raise RouteDisagreement(
            "dual-route disagreement on a nilpotent algebra: "
            f"homology [{', '.join(map(coeffs_text, hom))}] "
            f"vs eigencharacters [{', '.join(map(coeffs_text, eig))}]"
        )
    return CrossValidation(nilp, hom, eig, equal, contained, strict)


@dataclass(frozen=True)
class ProjectionReport:
    kind: SpectrumKind
    projected: Tuple[Vector, ...]
    restricted: Tuple[Vector, ...]
    equal: bool


def projection_check(
    rep: Representation,
    ideal: Subspace,
    kind: SpectrumKind | str,
    tol: Optional[float] = None,
) -> ProjectionReport:
    """Restriction of the spectrum to an ideal vs the spectrum of the
    restricted representation.  Essential kinds are refused: both sides are
    empty in finite dimension, so the check would be vacuous."""
    if isinstance(kind, str):
        kind = parse_kind(kind)
    if kind.essential:
        raise ValueError("projection check is for non-essential kinds")
    return _projections(rep, ideal, [spectrum(rep, kind, tol)], tol)[0]


def chain_projections(rep: Representation, reports: Mapping[str, SpectrumReport],
                      tol: Optional[float] = None) -> Tuple[ProjectionReport, ...]:
    """projection_check of each non-essential report of all_spectra(rep) in
    reports, in order, onto the codimension-one chain ideal; L nilpotent, n >= 1."""
    ideal = jordan_holder_chain(rep.algebra, tol)[rep.algebra.n - 1]
    return _projections(rep, ideal, [r for r in reports.values() if not r.kind.essential], tol)


def _projections(rep: Representation, ideal: Subspace, bigs: Sequence[SpectrumReport],
                 tol: Optional[float]) -> Tuple[ProjectionReport, ...]:
    """One all_spectra of the restriction and one restriction per distinct member; a projection
    depends only on the kind's degree ranges in L and the ideal, so each pair is compared once."""
    backend = rep.backend
    small = all_spectra(restrict_rep(rep, ideal, tol), [big.kind for big in bigs], tol)
    values: Dict[Character, Vector] = {}
    compared: Dict[Tuple[range, range], tuple] = {}
    out = []
    for big in bigs:
        ranges = big.kind.degree_range(rep.algebra.n), big.kind.degree_range(ideal.dim)
        if ranges not in compared:
            for f in big.members:
                if f not in values:
                    values[f] = restrict_character(f, ideal, tol)
            projected = dedup_characters(tuple(values[f] for f in big.members), backend)
            restricted = small[big.kind.render()].member_coeffs
            compared[ranges] = projected, restricted, same_character_sets(projected, restricted, backend)
        out.append(ProjectionReport(big.kind, *compared[ranges]))
    return tuple(out)
