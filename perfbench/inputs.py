"""Seeded benchmark inputs whose spectra are known by construction.

A seeded representation is a direct sum of catalog blocks on one algebra,
block i twisted by a character t_i (rho_i + t_i I), then conjugated by
S = lab.unimodular_matrix.  Conjugation and twisting preserve the block
structure of the spectrum, so

    Taylor spectrum = union over blocks of (block spectrum + t_i),

and for the nilpotent algebras used here the joint eigencharacters are the
same set.  The block data below are written out by hand, not read from the
program: the benchmark rebuilds every input matrix from them in Fraction
arithmetic and compares it with what the program generated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

Vec = Tuple[Fraction, ...]
Mat = List[List[Fraction]]


def _unit(size: int, i: int, j: int) -> Mat:
    out = [[Fraction(0)] * size for _ in range(size)]
    out[i][j] = Fraction(1)
    return out


def _zero(size: int) -> Mat:
    return [[Fraction(0)] * size for _ in range(size)]


def _f4_lowering() -> Mat:
    out = _zero(4)
    out[1][0] = out[2][1] = Fraction(1)
    return out


# Matrices of each catalog block, one per algebra basis element.
BLOCK_MATS = {
    "H3": lambda: [_unit(3, 0, 1), _unit(3, 1, 2), _unit(3, 0, 2)],
    "F4": lambda: [_f4_lowering(), _unit(4, 0, 3), _unit(4, 1, 3), _unit(4, 2, 3)],
    "A1": lambda: [[[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]],
    "Z3": lambda: [_zero(3) for _ in range(3)],
}
# Hand-derived Taylor spectrum of each untwisted block: a tuple of
# nilpotent operators has spectrum {0}; A1 = diag(2, 3) has {2, 3}.
BLOCK_SPECTRUM = {
    "H3": [(0, 0, 0)],
    "F4": [(0, 0, 0, 0)],
    "A1": [(2,), (3,)],
    "Z3": [(0, 0, 0)],
}
# Algebra dimension and the coordinates a character may be nonzero on
# (characters vanish on [L, L]: z for H3, e3 and e4 for F4).
ALGEBRA_DIM = {"H3": 3, "F4": 4, "A1": 1, "Z3": 3}
FREE_COORDS = {"H3": (0, 1), "F4": (0, 1), "A1": (0,), "Z3": (0, 1)}
# Twists.  The work an exact eigenvalue search does depends on the size and
# the sign of each eigenvalue, so the twists are fixed: block i (after the
# untwisted first block) gets TWISTS[base][i - 1].  What the seed varies is
# the conjugator S: every seed gives inputs with the same spectra.
# A1 twists are at least 2 apart so that shifted copies of {2, 3} never meet.
TWISTS = {
    "H3": ((-1, 2), (2, -1), (1, 1), (-2, -2)),
    "F4": ((-1, 2), (2, -1), (1, 1), (-2, -2)),
    "Z3": ((-1, 2), (2, -1), (1, 1), (-2, -2)),
    "A1": ((2,), (4,), (6,)),
}
# Coordinates of the non-member character: larger than any twist coordinate,
# and negative, which the A1 spectra never are.
NON_MEMBER_SIZE = 3
CONJ_CANDIDATES = 8
TARGET_FILL = 0.5


@dataclass(frozen=True)
class Spec:
    """Shape of one seeded representation: `copies` catalog blocks of
    `base` plus an optional zero block of size `pad` on the same algebra."""

    base: str
    copies: int
    pad: int = 0

    @property
    def label(self) -> str:
        return f"{self.base}x{self.copies}" + (f"+{self.pad}" if self.pad else "")


@dataclass(frozen=True)
class Plan:
    """Everything needed to build one input and to predict its spectra."""

    spec: Spec
    twists: Tuple[Vec, ...]   # one per block, pad last; the first is zero
    conj_seed: int            # seed of the random stream handed to lab.unimodular_matrix
    non_member: Vec           # a character outside the expected spectrum

    @property
    def m(self) -> int:
        return sum(len(b[0]) for b in block_list(self.spec))

    def expected_spectrum(self) -> Tuple[Vec, ...]:
        points = set()
        for (name, _), t in zip(_blocks(self.spec), self.twists):
            for s in BLOCK_SPECTRUM.get(name, [(0,) * ALGEBRA_DIM[self.spec.base]]):
                points.add(tuple(Fraction(a) + b for a, b in zip(s, t)))
        return tuple(sorted(points))


def _blocks(spec: Spec):
    out = [(spec.base, BLOCK_MATS[spec.base]()) for _ in range(spec.copies)]
    if spec.pad:
        out.append(("pad", [_zero(spec.pad) for _ in range(ALGEBRA_DIM[spec.base])]))
    return out


def block_list(spec: Spec) -> List[List[Mat]]:
    return [mats for _, mats in _blocks(spec)]


def _character(base: str, values: Sequence[int]) -> Vec:
    out = [Fraction(0)] * ALGEBRA_DIM[base]
    for j, v in zip(FREE_COORDS[base], values):
        out[j] = Fraction(v)
    return tuple(out)


def plan(rng: random.Random, spec: Spec, conjugator: Callable[[int, int], Mat]) -> Plan:
    """Twists, a seeded conjugator and a non-member character for one spec.

    conjugator(seed, m) returns the m x m matrix S the program draws for a
    seed.  How much work an input takes depends on how many entries of
    S rho S^-1 are nonzero, so of CONJ_CANDIDATES seeded draws the one whose
    fill is nearest TARGET_FILL is kept.
    """
    base = spec.base
    nblocks = spec.copies + (1 if spec.pad else 0)
    twists = tuple(_character(base, t) for t in
                   [(0,) * len(FREE_COORDS[base])] + list(TWISTS[base][: nblocks - 1]))
    non_member = _character(base, (-NON_MEMBER_SIZE,) * len(FREE_COORDS[base]))
    best = None
    for _ in range(CONJ_CANDIDATES):
        p = Plan(spec, twists, rng.randrange(2 ** 31), non_member)
        mats = [m for m in expected_matrices(p, conjugator(p.conj_seed, p.m)) if any(map(any, m))]
        fill = sum(x != 0 for m in mats for row in m for x in row) / (len(mats) * p.m ** 2)
        if best is None or abs(fill - TARGET_FILL) < best[0]:
            best = (abs(fill - TARGET_FILL), p)
    return best[1]


def plans(seed: int, tag: str, specs: Sequence[Spec], conjugator) -> List[Plan]:
    """One plan per spec, drawn from a stream fixed by the workload and seed."""
    rng = random.Random(f"{tag}:{seed}")
    return [plan(rng, s, conjugator) for s in specs]


# ---------------------------------------------------------------------------
# Fraction linear algebra for the independent rebuild
# ---------------------------------------------------------------------------


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def mat_inverse(a: Mat) -> Mat:
    """Gauss-Jordan inverse; raises ValueError on a singular matrix."""
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def expected_matrices(p: Plan, s: Mat) -> List[Mat]:
    """S (direct sum of rho_i + t_i I) S^-1, one matrix per basis element."""
    m = p.m
    s_inv = mat_inverse(s)
    out = []
    for k in range(ALGEBRA_DIM[p.spec.base]):
        big = _zero(m)
        off = 0
        for mats, t in zip(block_list(p.spec), p.twists):
            size = len(mats[k])
            for i in range(size):
                for j in range(size):
                    big[off + i][off + j] = mats[k][i][j] + (t[k] if i == j else 0)
            off += size
        out.append(mat_mul(mat_mul(s, big), s_inv))
    return out
