"""Lie algebras given by structure constants.

An algebra is a basis (names) plus the coefficient vector of [e_i, e_j] for
every i < j; antisymmetry is synthesized by the accessor, so inconsistent
input cannot be expressed.  Subspaces keep their bases in reduced echelon
form, which on exact input makes equality of spans a tuple comparison, and
the pivot of each row as the elimination found it: coordinates are read
there, never by scanning a row (a float row may keep negligible entries
left of its pivot).

Chain terminology below: a full flag of ideals L_0 ⊂ L_1 ⊂ ... ⊂ L_n with
dim L_i = i and [L_i, L_j] ⊆ L_{i-1} for i < j.  Such flags exist exactly
for nilpotent algebras and are built here by refining the lower central
series one dimension at a time.

Structural facts about an algebra (series, nilpotency, solvability, ideal
tests, the flag) are cached per (algebra, subspace, tol); series and flags
come back as tuples, so no caller can change a cached value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .numeric import (
    EXACT,
    Scalar,
    echelon_vectors,
    make_scalar,
    sc_abs,
    sc_is_zero,
    sc_one,
    sc_zero,
    scalar_from_json,
    scalar_key,
    scalar_to_json,
    zero_threshold,
)


class NotNilpotent(Exception):
    """Operation requires a nilpotent algebra."""


class NotAnIdeal(Exception):
    """The given subspace is not an ideal of its parent algebra."""


class NotACharacter(Exception):
    """The functional does not vanish on the derived subalgebra."""


Vector = Tuple[Scalar, ...]


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants stored for i < j only, zero rows omitted."""

    names: Tuple[str, ...]
    table: Tuple[Tuple[int, int, Vector], ...]
    backend: str
    _map: Dict[Tuple[int, int], Vector] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # every memoised function of an algebra hashes it: hash the table once
    _hash: Optional[int] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        n = len(self.names)
        seen = {}
        for i, j, coeffs in self.table:
            if not 0 <= i < j < n:
                raise ValueError(f"bad bracket index pair ({i},{j})")
            if len(coeffs) != n:
                raise ValueError(f"bracket ({i},{j}) has {len(coeffs)} coefficients, not {n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate bracket ({i},{j})")
            seen[(i, j)] = coeffs
        object.__setattr__(self, "_map", seen)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.names, self.table, self.backend)))
        return self._hash

    @property
    def n(self) -> int:
        return len(self.names)

    def zero_vector(self) -> Vector:
        return (sc_zero(self.backend),) * self.n

    def structure(self, i: int, j: int) -> Vector:
        """Coefficients of [e_i, e_j]; antisymmetry built in."""
        if i == j:
            return self.zero_vector()
        if i < j:
            return self._map.get((i, j), self.zero_vector())
        coeffs = self._map.get((j, i))
        if coeffs is None:
            return self.zero_vector()
        return tuple(-c for c in coeffs)


def lie_algebra(
    names: Sequence[str],
    brackets: Mapping[Tuple[int, int], Sequence],
    backend: str = EXACT,
) -> LieAlgebra:
    """Build an algebra, coercing bracket coefficients into the backend."""
    n = len(names)
    table = []
    for (i, j), coeffs in sorted(brackets.items()):
        if not i < j:
            raise ValueError(f"brackets must be given for i<j, got ({i},{j})")
        vec = tuple(make_scalar(c, backend) for c in coeffs)
        if len(vec) != n:
            raise ValueError(f"bracket ({i},{j}) has {len(vec)} coefficients, not {n}")
        if not all(sc_is_zero(c) for c in vec):
            table.append((i, j, vec))
    return LieAlgebra(tuple(names), tuple(table), backend)


def abelian_algebra(names: Sequence[str], backend: str = EXACT) -> LieAlgebra:
    return lie_algebra(names, {}, backend)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """Span inside the coefficient space of the parent algebra, basis in
    reduced echelon form (canonical on exact input: equal spans compare
    equal); pivots[r] is the pivot column of basis[r], from
    numeric.echelon_vectors."""

    algebra: LieAlgebra
    basis: Tuple[Vector, ...]
    pivots: Tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def span(L: LieAlgebra, vectors: Sequence[Sequence[Scalar]], tol: Optional[float] = None) -> Subspace:
    return Subspace(L, *echelon_vectors([tuple(v) for v in vectors], L.backend, tol))


def zero_subspace(L: LieAlgebra) -> Subspace:
    return Subspace(L, (), ())


def full_subspace(L: LieAlgebra) -> Subspace:
    return Subspace(L, tuple(_basis_vector(L, j) for j in range(L.n)), tuple(range(L.n)))


def _membership_threshold(S: Subspace, vec: Sequence[Scalar], tol: Optional[float]) -> float:
    return zero_threshold(S.algebra.backend, tol, lambda: max(
        max((sc_abs(x) for row in S.basis for x in row), default=0.0),
        max((sc_abs(x) for x in vec), default=0.0), 1.0))


def reduce_mod(S: Subspace, vec: Sequence[Scalar], tol: Optional[float] = None) -> Vector:
    """Subtract off the echelon basis of S; result has zeros in all pivot
    coordinates of S."""
    thr = _membership_threshold(S, vec, tol)
    out = list(vec)
    for row, p in zip(S.basis, S.pivots):
        c = out[p]
        if not sc_is_zero(c, thr):
            out = [a - c * b for a, b in zip(out, row)]
    return tuple(out)


def contains(S: Subspace, vec: Sequence[Scalar], tol: Optional[float] = None) -> bool:
    thr = _membership_threshold(S, vec, tol)
    return all(sc_is_zero(x, thr) for x in reduce_mod(S, vec, tol))


# ---------------------------------------------------------------------------
# bracket and validation
# ---------------------------------------------------------------------------


def bracket(L: LieAlgebra, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
    """[u, v] by bilinear expansion through the structure constants."""
    n = L.n
    if len(u) != n or len(v) != n:
        raise ValueError(f"bracket of vectors of lengths {len(u)}, {len(v)} in dimension {n}")
    out = list(L.zero_vector())
    for i in range(n):
        if sc_is_zero(u[i]):
            continue
        for j in range(n):
            if sc_is_zero(v[j]) or i == j:
                continue
            c = u[i] * v[j]
            for k, s in enumerate(L.structure(i, j)):
                out[k] = out[k] + c * s
    return tuple(out)


def _basis_vector(L: LieAlgebra, i: int) -> Vector:
    return tuple(sc_one(L.backend) if k == i else sc_zero(L.backend) for k in range(L.n))


def validate_lie_algebra(L: LieAlgebra, tol: Optional[float] = None) -> List[Tuple[Tuple[int, int, int], Vector]]:
    """Jacobi check over the basis triples i<j<k.

    Returns the list of violations, each the triple together with the
    residual vector [[ei,ej],ek] + [[ej,ek],ei] + [[ek,ei],ej], in triple
    order; empty list means the constants define a Lie algebra.  A triple
    none of whose pairs has a table entry has a zero residual and is skipped.
    """
    def scale() -> float:
        mx = max((sc_abs(c) for _, _, row in L.table for c in row), default=0.0)
        return max(1.0, mx * mx)

    thr = zero_threshold(L.backend, tol, scale)
    violations = []
    basis = [_basis_vector(L, i) for i in range(L.n)]
    for i, j, k in sorted({tuple(sorted((i, j, k))) for i, j, _ in L.table
                           for k in range(L.n) if k not in (i, j)}):
        r1 = bracket(L, L.structure(i, j), basis[k])
        r2 = bracket(L, L.structure(j, k), basis[i])
        r3 = bracket(L, L.structure(k, i), basis[j])
        residual = tuple(a + b + c for a, b, c in zip(r1, r2, r3))
        if not all(sc_is_zero(x, thr) for x in residual):
            violations.append(((i, j, k), residual))
    return violations


# ---------------------------------------------------------------------------
# series and nilpotency
# ---------------------------------------------------------------------------


def _bracket_span(L: LieAlgebra, A: Subspace, B: Subspace, tol: Optional[float] = None) -> Subspace:
    prods = [bracket(L, a, b) for a in A.basis for b in B.basis]
    return span(L, prods, tol) if prods else zero_subspace(L)


@lru_cache(maxsize=256)
def derived_subalgebra(L: LieAlgebra, tol: Optional[float] = None) -> Subspace:
    prods = [L.structure(i, j) for i in range(L.n) for j in range(i + 1, L.n)]
    return span(L, prods, tol) if prods else zero_subspace(L)


def _series(first: Subspace, step: Callable[[Subspace], Subspace]) -> Tuple[Subspace, ...]:
    """first, step(first), ... until the dimension stops changing or reaches 0."""
    series = [first]
    while series[-1].dim != 0:
        nxt = step(series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return tuple(series)


@lru_cache(maxsize=256)
def lower_central_series(L: LieAlgebra, tol: Optional[float] = None) -> Tuple[Subspace, ...]:
    """L ⊇ [L,L] ⊇ [L,[L,L]] ⊇ ... until stabilization."""
    whole = full_subspace(L)
    return _series(whole, lambda cur: _bracket_span(L, whole, cur, tol))


@lru_cache(maxsize=256)
def derived_series(L: LieAlgebra, tol: Optional[float] = None) -> Tuple[Subspace, ...]:
    return _series(full_subspace(L), lambda cur: _bracket_span(L, cur, cur, tol))


@lru_cache(maxsize=256)
def is_nilpotent(L: LieAlgebra) -> bool:
    return lower_central_series(L, None)[-1].dim == 0


@lru_cache(maxsize=256)
def is_solvable(L: LieAlgebra) -> bool:
    return derived_series(L, None)[-1].dim == 0


@lru_cache(maxsize=256)
def is_ideal(L: LieAlgebra, S: Subspace, tol: Optional[float] = None) -> bool:
    for i in range(L.n):
        e = _basis_vector(L, i)
        for b in S.basis:
            if not contains(S, bracket(L, e, b), tol):
                return False
    return True


# ---------------------------------------------------------------------------
# full flags of ideals
# ---------------------------------------------------------------------------


def _normalize_leading(vec: Vector, thr: float = 0.0) -> Vector:
    lead = next(x for x in vec if not sc_is_zero(x, thr))
    return tuple(x / lead for x in vec)


@lru_cache(maxsize=256)
def jordan_holder_chain(L: LieAlgebra, tol: Optional[float] = None) -> Tuple[Subspace, ...]:
    """Full flag 0 = L_0 ⊂ L_1 ⊂ ... ⊂ L_n = L with [L_i, L_j] ⊆ L_{i-1}.

    Built by refining the lower central series from the bottom up (C^(k+1) ⊆
    V ⊆ C^k gives [L, V] ⊆ C^(k+1)); inside each layer the lexicographically
    smallest reduced candidate vector is taken, so the output is deterministic.
    """
    if not is_nilpotent(L):
        raise NotNilpotent("a full flag of ideals with the bracket-drop "
                           "property requires a nilpotent algebra")
    chain = [zero_subspace(L)]
    for target in reversed(lower_central_series(L, tol)):
        while chain[-1].dim < target.dim:
            current = chain[-1]
            candidates = []
            for b in target.basis:
                r = reduce_mod(current, b, tol)
                thr = zero_threshold(L.backend, tol, lambda: max(sc_abs(x) for x in r))
                if not all(sc_is_zero(x, thr) for x in r):
                    candidates.append(_normalize_leading(r, thr))
            pick = min(candidates, key=lambda v: tuple(scalar_key(x) for x in v))
            chain.append(span(L, list(current.basis) + [pick], tol))
    return tuple(chain)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Character:
    """Linear functional on the algebra vanishing on [L, L]."""

    algebra: LieAlgebra
    coeffs: Vector

    def value(self, vec: Sequence[Scalar]) -> Scalar:
        acc = sc_zero(self.algebra.backend)
        for c, x in zip(self.coeffs, vec):
            acc = acc + c * x
        return acc


def is_character(L: LieAlgebra, coeffs: Sequence[Scalar], tol: Optional[float] = None) -> bool:
    thr = zero_threshold(L.backend, tol,
                         lambda: max(1.0, max((sc_abs(c) for c in coeffs), default=0.0)))
    exact = L.backend == EXACT
    for b in derived_subalgebra(L, tol).basis:
        # exact zero coordinates add nothing; float sums keep every term
        val = sum((c * x for c, x in zip(coeffs, b) if not (exact and x.is_zero)),
                  start=sc_zero(L.backend))
        if not sc_is_zero(val, thr):
            return False
    return True


def coeffs_json(coeffs: Sequence[Scalar]) -> list:
    """Coordinates as the CLI writes them: one scalar_to_json each."""
    return [scalar_to_json(c) for c in coeffs]


def coeffs_text(coeffs: Sequence[Scalar]) -> str:
    """Coordinates as an error line writes them: the JSON list the CLI
    prints for them."""
    return json.dumps(coeffs_json(coeffs))


def character(L: LieAlgebra, values: Sequence, tol: Optional[float] = None) -> Character:
    coeffs = tuple(make_scalar(v, L.backend) for v in values)
    if not is_character(L, coeffs, tol):
        raise NotACharacter(f"functional {coeffs_text(coeffs)} does not vanish on [L, L]")
    return Character(L, coeffs)


def restrict_character(f: Character, ideal: Subspace, tol: Optional[float] = None) -> Vector:
    """Values of f on the echelon basis of the ideal, in basis order."""
    L = f.algebra
    if not is_ideal(L, ideal, tol):
        raise NotAnIdeal("restriction target must be an ideal")
    return tuple(f.value(b) for b in ideal.basis)


def induced_algebra(ideal: Subspace, names: Optional[Sequence[str]] = None,
                    tol: Optional[float] = None) -> LieAlgebra:
    """The ideal as an algebra in its own echelon basis.

    Coordinates of [b_i, b_j] are read off the reduced form: the
    coefficient on b_k is the coordinate at the pivot of b_k, zero when at
    or below the membership threshold of reduce_mod.
    """
    L = ideal.algebra
    if not is_ideal(L, ideal, tol):
        raise NotAnIdeal("induced structure constants need an ideal")
    d = ideal.dim
    if names is None:
        names = [f"b{k}" for k in range(d)]
    zero = sc_zero(L.backend)
    brackets = {}
    for i in range(d):
        for j in range(i + 1, d):
            w = bracket(L, ideal.basis[i], ideal.basis[j])
            thr = _membership_threshold(ideal, w, tol)
            brackets[(i, j)] = tuple(zero if sc_is_zero(w[p], thr) else w[p] for p in ideal.pivots)
    return lie_algebra(names, brackets, L.backend)


def opposite_algebra(L: LieAlgebra) -> LieAlgebra:
    table = tuple((i, j, tuple(-c for c in coeffs)) for i, j, coeffs in L.table)
    return LieAlgebra(L.names, table, L.backend)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def algebra_to_json(L: LieAlgebra) -> dict:
    return {
        "dim": L.n,
        "basis": list(L.names),
        "brackets": [
            {"i": i, "j": j, "coeffs": coeffs_json(coeffs)}
            for i, j, coeffs in L.table
        ],
    }


def algebra_from_json(obj: dict, backend: str = EXACT) -> LieAlgebra:
    if not isinstance(obj, dict):
        raise ValueError("algebra: expected an object")
    try:
        n = obj["dim"]
        names = obj["basis"]
    except KeyError as e:
        raise ValueError(f"algebra: missing field {e.args[0]!r}") from None
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("algebra.dim: expected a nonnegative integer")
    if not isinstance(names, list) or len(names) != n:
        raise ValueError("algebra.basis: expected a list of dim names")
    for idx, name in enumerate(names):
        if not isinstance(name, str):
            raise ValueError(f"algebra.basis[{idx}]: expected a string name")
    raw_brackets = obj.get("brackets", [])
    if not isinstance(raw_brackets, list):
        raise ValueError("algebra.brackets: expected a list of bracket entries")
    brackets = {}
    for idx, entry in enumerate(raw_brackets):
        try:
            i, j, coeffs = entry["i"], entry["j"], entry["coeffs"]
        except (KeyError, TypeError) as e:
            raise ValueError(f"algebra.brackets[{idx}]: malformed entry") from None
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j)) or not 0 <= i < j < n:
            raise ValueError(f"algebra.brackets[{idx}]: need 0 <= i < j < dim")
        if (i, j) in brackets:
            raise ValueError(f"algebra.brackets[{idx}]: duplicate bracket ({i},{j})")
        if not isinstance(coeffs, list) or len(coeffs) != n:
            raise ValueError(f"algebra.brackets[{idx}].coeffs: expected {n} scalars")
        try:
            brackets[(i, j)] = [scalar_from_json(c, backend) for c in coeffs]
        except ValueError as e:
            raise ValueError(f"algebra.brackets[{idx}].coeffs: {e}") from None
    return lie_algebra(names, brackets, backend)
