"""The three workloads: their inputs, one operation each, and their checks.

Operations call liespec through module attributes (spectra.all_spectra,
not a name bound at import), so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, List, Optional, Sequence

from liespec import cli, koszul, lab, lie_core, representation, spectra
from liespec.numeric import EXACT, FLOAT

import checks
import inputs
from checks import require
from inputs import Plan, Spec


@dataclass
class Item:
    """One input of a workload: a label, the operation's argument, and what
    the checks need to know about it."""

    label: str
    arg: Any
    expected: Any = None
    plan: Optional[Plan] = None
    mats: Any = None


def build_rep(p: Plan):
    """The program's representation for a plan, and its conjugator S."""
    block = lab.fixture(p.spec.base).rep
    L = block.algebra
    parts = [block] * p.spec.copies
    if p.spec.pad:
        parts.append(lab.zero_representation(L, p.spec.pad))
    out = None
    for part, t in zip(parts, p.twists):
        if any(t):
            # shift subtracts f I, so shifting by -t adds the twist t
            part = representation.shift(part, lie_core.character(L, [-x for x in t]))
        out = part if out is None else representation.direct_sum(out, part)
    s = lab.unimodular_matrix(random.Random(p.conj_seed), p.m, EXACT)
    return representation.conjugate_representation(out, s), s


def conjugator(seed: int, m: int):
    """The conjugator lab draws for a seed, as Fractions (see inputs.plan)."""
    return checks.exact_matrix(lab.unimodular_matrix(random.Random(seed), m, EXACT))


def seeded_item(p: Plan) -> Item:
    rep, s = build_rep(p)
    mats = inputs.expected_matrices(p, checks.exact_matrix(s))
    checks.check_generated([checks.exact_matrix(m) for m in rep.mats], mats, p.spec.label)
    return Item(p.spec.label, rep, p.expected_spectrum(), p, mats)


def fixture_item(name: str) -> Item:
    rep = lab.fixture(name).rep
    mats = inputs.BLOCK_MATS[name]()
    checks.check_generated([checks.exact_matrix(m) for m in rep.mats], mats, name)
    return Item(name, rep, _block_spectrum(name), None, mats)


def _block_spectrum(name: str):
    return [tuple(map(Fraction, v)) for v in inputs.BLOCK_SPECTRUM[name]]


# ---------------------------------------------------------------------------


class Workload:
    name = ""
    specs: Sequence[Spec] = ()

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.plans = inputs.plans(seed, self.name, self.specs, conjugator)

    def generate(self) -> List[Item]:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def canon(self, result) -> Any:
        """A comparable form of a result: every timed pass must reproduce
        the checked warm-up result exactly."""
        raise NotImplementedError

    def check(self, items: Sequence[Item], results: Sequence[Any]):
        raise NotImplementedError


class DualRoute(Workload):
    """all_spectra plus joint_eigencharacters, then the route comparison."""

    name = "dual_route"
    # Many inputs of similar cost, so that neither the median operation nor
    # the pass total hangs on one input's conjugator.
    specs = (Spec("H3", 2), Spec("H3", 2), Spec("H3", 1, pad=2), Spec("H3", 1, pad=3),
             Spec("F4", 1, pad=1), Spec("F4", 1, pad=1), Spec("F4", 1, pad=2),
             Spec("A1", 2), Spec("A1", 1, pad=2), Spec("A1", 1, pad=3),
             Spec("Z3", 2), Spec("Z3", 2), Spec("Z3", 1, pad=2), Spec("Z3", 1, pad=3))
    fixtures = ("H3", "Z3", "F4")

    def generate(self):
        return [seeded_item(p) for p in self.plans] + [fixture_item(f) for f in self.fixtures]

    def run(self, item):
        rep = item.arg
        reports = spectra.all_spectra(rep)
        pairs = spectra.joint_eigencharacters(rep)
        agree = spectra.same_character_sets(
            reports["taylor"].member_coeffs, tuple(f.coeffs for f, _ in pairs), rep.backend)
        return reports, pairs, agree

    def canon(self, result):
        reports, pairs, agree = result
        kinds = tuple((k, r.member_coeffs) for k, r in sorted(reports.items()))
        return kinds, tuple((f.coeffs, w.entries) for f, w in pairs), agree

    def check(self, items, results):
        for item, (reports, pairs, agree) in zip(items, results):
            members = {k: [checks.exact_vec(c) for c in r.member_coeffs] for k, r in reports.items()}
            checks.check_kinds(members, item.expected, item.label)
            eig = [checks.exact_vec(f.coeffs) for f, _ in pairs]
            checks.same_set(eig, item.expected, f"{item.label} eigencharacters")
            for f, w in pairs:
                checks.check_witness(item.mats, checks.exact_vec(f.coeffs),
                                     [checks.exact_scalar(w.at(i, 0)) for i in range(w.rows)],
                                     item.label)
            require(agree is True, f"{item.label}: routes reported as disagreeing")


class Report(Workload):
    """`liespec report` through cli.main, fixtures on both backends."""

    name = "report"
    specs = (Spec("H3", 1, pad=1), Spec("A1", 1, pad=2))
    fixtures = ("a1", "h3", "s2", "z3", "f4")

    def generate(self):
        items = []
        for name in self.fixtures:
            # S2 is not nilpotent and has its own hand-derived check
            expected = _block_spectrum(name.upper()) if name != "s2" else None
            for backend in (EXACT, FLOAT):
                argv = ["report", "--fixture", name, "--backend", backend]
                items.append(Item(f"{name}/{backend}", argv, expected))
        os.makedirs(self.scratch, exist_ok=True)
        for k, p in enumerate(self.plans):
            rep, _ = build_rep(p)
            path = os.path.join(self.scratch, f"report-{self.seed}-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(representation.rep_to_json(rep), fh)
            items.append(Item(p.spec.label, ["report", path], p.expected_spectrum(), p))
        return items

    def run(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(item.arg)
        return code, buf.getvalue()

    def canon(self, result):
        return result

    def check(self, items, results):
        payloads = {}
        for item, (code, text) in zip(items, results):
            require(code == 0, f"{item.label}: exit code {code}")
            payload = json.loads(text)
            payloads[item.label] = payload
            if item.label.endswith(FLOAT):
                continue
            members = {k: [checks.text_vec(v) for v in r["members"]]
                       for k, r in payload["spectra"].items()}
            eigen = [checks.text_vec(v) for v in payload["cross_validation"]["eigen_members"]]
            if item.label.startswith("s2/"):
                checks.check_s2(members["taylor"], eigen)
                continue
            require(payload["algebra"]["nilpotent"] is True, f"{item.label}: not nilpotent")
            checks.check_kinds(members, item.expected, item.label)
            checks.same_set(eigen, item.expected, f"{item.label} eigencharacters")
            require(payload["cross_validation"]["equal"] is True, f"{item.label}: crossval")
            require(payload["projections"] and all(r["equal"] for r in payload["projections"]),
                    f"{item.label}: projection table")
        for name in self.fixtures:
            checks.check_float_agrees(payloads[f"{name}/{EXACT}"], payloads[f"{name}/{FLOAT}"], name)


class SplitHomotopy(Workload):
    """Koszul complex of a member shift with its d-d check and profile, then
    splitting homotopies of a non-member shift at every degree."""

    name = "split_homotopy"
    # Five inputs of one shape in the middle keep the median operation on
    # one cost level; the A1 inputs (n = 1) are cheap, Z3x1+2 is dear.
    specs = (Spec("A1", 3), Spec("A1", 1, pad=3), Spec("H3", 1, pad=1), Spec("H3", 1, pad=1),
             Spec("H3", 1, pad=1), Spec("H3", 1, pad=1), Spec("H3", 1, pad=1), Spec("Z3", 1, pad=2))

    def generate(self):
        items = []
        for it in (seeded_item(p) for p in self.plans):
            L = it.arg.algebra
            member = lie_core.character(L, it.expected[-1])
            outside = lie_core.character(L, it.plan.non_member)
            it.arg = (it.arg, member, outside)
            items.append(it)
        return items

    def run(self, item):
        rep, member, outside = item.arg
        C = koszul.build_complex(rep, member)
        bad = koszul.validate_complex(C)
        profile = koszul.complex_profile(C)
        homotopies = [koszul.splitting_homotopy(rep, outside, p)
                      for p in range(rep.algebra.n + 1)]
        return C, bad, profile, homotopies

    def canon(self, result):
        C, bad, (dims, ranks, betti), homotopies = result
        return (tuple(d.entries for d in C.ds), tuple(bad), dims, ranks, betti.h,
                tuple((h.entries, k.entries) for h, k in homotopies))

    def check(self, items, results):
        for item, (C, bad, (dims, ranks, betti), homotopies) in zip(items, results):
            rep, _, outside = item.arg
            n, m = rep.algebra.n, rep.m
            require(bad == [], f"{item.label}: validate_complex reported {bad}")
            checks.check_complex([checks.as_array(d) for d in C.ds], m, n, betti.h, True,
                                 f"{item.label} member")
            D = koszul.build_complex(rep, outside)
            ds = [checks.as_array(D.d(p)) for p in range(0, n + 2)]
            checks.check_complex(ds[1:n + 1], m, n, [0] * (n + 1), False, f"{item.label} non-member")
            require(len(homotopies) == n + 1, f"{item.label}: {len(homotopies)} homotopies")
            for p, (h_p, h_pm1) in enumerate(homotopies):
                checks.check_homotopy(ds[p], ds[p + 1], checks.as_array(h_p),
                                      checks.as_array(h_pm1), p, item.label)


WORKLOADS = {w.name: w for w in (DualRoute, Report, SplitHomotopy)}
