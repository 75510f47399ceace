"""Correctness checks that do not rely on the program's own arithmetic.

Expected spectra come from the construction in inputs.py; witnesses are
re-checked in Fraction arithmetic on matrices rebuilt by the benchmark;
complexes and homotopies are re-checked in numpy floats.  Every check
raises CheckFailed; selftest.py shows that each one fires on a corrupted
answer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from inputs import Mat, Vec

FLOAT_AGREE = 1e-6
RESIDUAL = 1e-9


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# reading program values into the benchmark's own types
# ---------------------------------------------------------------------------


def exact_scalar(x) -> Fraction:
    """A real exact-backend scalar (anything with Fraction .re and .im)."""
    require(x.im == 0, f"non-real scalar {x!r}")
    return Fraction(x.re)


def exact_vec(coeffs) -> Vec:
    return tuple(exact_scalar(c) for c in coeffs)


def exact_matrix(mat) -> Mat:
    return [[exact_scalar(mat.at(i, j)) for j in range(mat.cols)] for i in range(mat.rows)]


def text_vec(values: Sequence[str]) -> Vec:
    """Coefficients of a character in the exact JSON form ("2", "-1/3")."""
    try:
        return tuple(Fraction(v) for v in values)
    except (TypeError, ValueError):
        raise CheckFailed(f"not a real exact character: {values!r}") from None


def float_vec(values: Sequence[Sequence[float]]) -> Tuple[complex, ...]:
    return tuple(complex(re, im) for re, im in values)


def as_array(mat) -> np.ndarray:
    """A program matrix (either backend) as a complex numpy array."""
    out = np.zeros((mat.rows, mat.cols), dtype=complex)
    for i in range(mat.rows):
        for j in range(mat.cols):
            x = mat.at(i, j)
            out[i, j] = x if isinstance(x, complex) else complex(float(x.re), float(x.im))
    return out


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def same_set(got: Iterable[Vec], want: Iterable[Vec], what: str):
    got_s, want_s = sorted(set(got)), sorted(set(want))
    require(got_s == want_s, f"{what}: got {got_s}, expected {want_s}")


def check_generated(got: Sequence[Mat], want: Sequence[Mat], label: str):
    """The program's generated matrices equal the benchmark's rebuild."""
    require(list(got) == list(want), f"{label}: generated matrices differ from the rebuild")


def check_kinds(members: Dict[str, List[Vec]], expected: Sequence[Vec], label: str):
    """On nilpotent input every non-essential kind (taylor, split, delta:k,
    pi:k and their split forms) equals the expected Taylor spectrum, and
    every essential kind (fredholm, split_e, *_e:k) is empty."""
    require("taylor" in members, f"{label}: no taylor kind")
    for name, got in members.items():
        essential = name in ("fredholm", "split_e") or "_e:" in name
        if essential:
            require(not got, f"{label}: essential kind {name} not empty: {got}")
        else:
            same_set(got, expected, f"{label} {name}")


def check_witness(mats: Sequence[Mat], f: Vec, w: Sequence[Fraction], label: str):
    """rho(x_i) w = f_i w exactly, with w nonzero."""
    require(any(x != 0 for x in w), f"{label}: zero witness for {f}")
    for k, (mat, fk) in enumerate(zip(mats, f)):
        for row, wi in zip(mat, w):
            lhs = sum((a * b for a, b in zip(row, w)), Fraction(0))
            require(lhs == fk * wi, f"{label}: witness fails rho(x_{k}) w = f_{k} w for {f}")


def check_s2(taylor: Sequence[Vec], eigen: Sequence[Vec]):
    """Hand-derived S2 answer: [x, y] = y acting by x = diag(1, 0),
    y = e_12.  The Koszul differentials are 2x2 and give Taylor spectrum
    {(0,0), (2,0)}; the only joint eigenvector is e_1 with character (1, 0)."""
    F = Fraction
    same_set(taylor, [(F(0), F(0)), (F(2), F(0))], "S2 taylor")
    same_set(eigen, [(F(1), F(0))], "S2 eigencharacters")


def check_float_agrees(exact: dict, flt: dict, label: str):
    """Float and exact reports name the same members in every kind, give the
    same verdicts, and have the same projection table."""
    require(sorted(exact["spectra"]) == sorted(flt["spectra"]), f"{label}: kind lists differ")
    for name, rep in exact["spectra"].items():
        a = sorted(text_vec(v) for v in rep["members"])
        b = sorted((float_vec(v) for v in flt["spectra"][name]["members"]),
                   key=lambda z: tuple((x.real, x.imag) for x in z))
        require(len(a) == len(b), f"{label} {name}: {len(a)} exact vs {len(b)} float members")
        for u, v in zip(a, b):
            close = all(abs(complex(x) - y) <= FLOAT_AGREE for x, y in zip(u, v))
            require(close, f"{label} {name}: exact {u} vs float {v}")
    for key in ("equal", "eigen_contained", "strict_containment"):
        require(exact["cross_validation"][key] == flt["cross_validation"][key],
                f"{label}: crossval {key} differs between backends")
    require(exact["projections"] == flt["projections"], f"{label}: projection tables differ")


# ---------------------------------------------------------------------------
# complexes and homotopies, in numpy floats
# ---------------------------------------------------------------------------


def _zero_within(a: np.ndarray, scale: float) -> bool:
    return a.size == 0 or float(np.abs(a).max()) <= RESIDUAL * max(scale, 1.0)


def check_complex(ds: Sequence[np.ndarray], m: int, n: int, betti: Sequence[int],
                  member: bool, label: str):
    """Chain spaces have dimension m * C(n, p); d_(p-1) d_p = 0; the Betti
    numbers match numpy ranks; homology is nonzero exactly for a member."""
    dims = [m * math.comb(n, p) for p in range(n + 1)]
    require(len(ds) == n, f"{label}: {len(ds)} differentials for n = {n}")
    for p, d in enumerate(ds, start=1):
        require(d.shape == (dims[p - 1], dims[p]), f"{label}: d_{p} has shape {d.shape}")
    for p in range(1, n):
        prod = ds[p - 1] @ ds[p]
        scale = float(np.abs(ds[p - 1]).max(initial=0)) * float(np.abs(ds[p]).max(initial=0))
        require(_zero_within(prod, scale), f"{label}: d_{p} d_{p + 1} != 0")
    ranks = [0] + [int(np.linalg.matrix_rank(d)) if d.size else 0 for d in ds] + [0]
    want = [dims[p] - ranks[p] - ranks[p + 1] for p in range(n + 1)]
    require(list(betti) == want, f"{label}: Betti {list(betti)} vs numpy ranks {want}")
    require((sum(want) > 0) == member, f"{label}: homology {want} for member={member}")


def check_homotopy(d_p: np.ndarray, d_p1: np.ndarray, h_p: np.ndarray, h_pm1: np.ndarray,
                   p: int, label: str):
    """d_(p+1) h_p + h_(p-1) d_p = I on the degree-p chain space."""
    size = d_p.shape[1]
    require(h_p.shape == (d_p1.shape[1], size) and h_pm1.shape == (size, d_p.shape[0]),
            f"{label}: homotopy shapes at degree {p}")
    residual = d_p1 @ h_p + h_pm1 @ d_p - np.eye(size)
    require(_zero_within(residual, 1.0), f"{label}: d h + h d != I at degree {p}")
