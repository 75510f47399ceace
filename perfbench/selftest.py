"""Shows that every correctness check fires on a deliberately corrupted answer.

    python3 perfbench/selftest.py

Runs each workload once on a small input set, confirms the real answers
pass, then corrupts one thing at a time and confirms the check rejects it.
Exits 1 if a corruption goes unnoticed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from liespec.numeric import GaussianRational, Matrix  # noqa: E402

import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from inputs import Spec  # noqa: E402

ONE = GaussianRational(Fraction(1), Fraction(0))


def bump(mat: Matrix, index: int = 0) -> Matrix:
    """The same matrix with one entry increased by 1 (exact) or 1e-3 (float)."""
    entries = list(mat.entries)
    x = entries[index]
    entries[index] = x + (1e-3 if isinstance(x, complex) else ONE)
    return Matrix(mat.rows, mat.cols, tuple(entries), mat.backend)


# -- corruptions, one per check ------------------------------------------------


def drop_taylor_member(results):
    reports, pairs, agree = results[0]
    taylor = reports["taylor"]
    reports = dict(reports, taylor=dataclasses.replace(taylor, members=taylor.members[1:]))
    return [(reports, pairs, agree)] + results[1:]


def fill_essential(results):
    reports, pairs, agree = results[0]
    fred = dataclasses.replace(reports["fredholm"], members=reports["taylor"].members)
    return [(dict(reports, fredholm=fred), pairs, agree)] + results[1:]


def change_delta(results):
    reports, pairs, agree = results[0]
    delta = dataclasses.replace(reports["delta:1"], members=())
    return [(dict(reports, **{"delta:1": delta}), pairs, agree)] + results[1:]


def drop_eigencharacter(results):
    reports, pairs, agree = results[0]
    return [(reports, pairs[1:], agree)] + results[1:]


def bad_witness(results):
    reports, pairs, agree = results[0]
    (f, w), rest = pairs[0], pairs[1:]
    return [(reports, [(f, bump(w, w.rows - 1))] + rest, agree)] + results[1:]


def routes_disagree(results):
    reports, pairs, _ = results[0]
    return [(reports, pairs, False)] + results[1:]


def _edit_report(results, label_index, edit):
    code, text = results[label_index]
    payload = json.loads(text)
    edit(payload)
    out = list(results)
    out[label_index] = (code, json.dumps(payload))
    return out


def report_exit_code(results):
    return [(1, results[0][1])] + results[1:]


def report_s2_claimed(results):
    # the externally claimed S2 spectrum {(1,0), (0,0)}
    def edit(p):
        p["spectra"]["taylor"]["members"] = [["1", "0"], ["0", "0"]]
    return _edit_report(results, 4, edit)


def report_float_drift(results):
    def edit(p):
        p["spectra"]["taylor"]["members"][0][0][0] += 1e-3
    return _edit_report(results, 3, edit)


def report_wrong_member(results):
    def edit(p):
        p["spectra"]["pi:1"]["members"] = []
    return _edit_report(results, -1, edit)


def report_projection(results):
    def edit(p):
        p["projections"][0]["equal"] = False
    return _edit_report(results, 2, edit)


def complex_not_closed(results):
    C, bad, profile, homs = results[0]
    C = dataclasses.replace(C, ds=(bump(C.ds[0], 1),) + C.ds[1:])
    return [(C, bad, profile, homs)] + results[1:]


def complex_betti(results):
    C, bad, (dims, ranks, betti), homs = results[0]
    betti = dataclasses.replace(betti, h=(betti.h[0] + 1,) + betti.h[1:])
    return [(C, bad, (dims, ranks, betti), homs)] + results[1:]


def homotopy_residual(results):
    C, bad, profile, homs = results[0]
    h_p, h_pm1 = homs[1]
    return [(C, bad, profile, [homs[0], (bump(h_p), h_pm1)] + homs[2:])] + results[1:]


CASES = {
    "dual_route": [drop_taylor_member, fill_essential, change_delta, drop_eigencharacter,
                   bad_witness, routes_disagree],
    "report": [report_exit_code, report_s2_claimed, report_float_drift, report_wrong_member,
               report_projection],
    "split_homotopy": [complex_not_closed, complex_betti, homotopy_residual],
}
SMALL = {"dual_route": (Spec("H3", 2),), "report": (Spec("A1", 2),), "split_homotopy": (Spec("H3", 1, pad=1),)}


def main() -> int:
    missed = []
    for name, cases in CASES.items():
        wl = workloads.WORKLOADS[name](seed=1, scratch=os.path.join(HERE, "out", "inputs"))
        wl.plans = workloads.inputs.plans(1, name, SMALL[name], workloads.conjugator)
        items = wl.generate()
        results = [wl.run(it) for it in items]
        wl.check(items, results)
        print(f"{name}: real answers pass")
        for corrupt in cases:
            try:
                wl.check(items, corrupt(list(results)))
            except CheckFailed as e:
                print(f"  {corrupt.__name__}: fired ({e})")
            else:
                print(f"  {corrupt.__name__}: NOT DETECTED")
                missed.append(corrupt.__name__)
    # generation: rebuild an input with a wrong twist and compare
    plan = workloads.DualRoute(seed=1, scratch="").plans[0]
    rep, s = workloads.build_rep(plan)
    wrong = dataclasses.replace(plan, twists=(plan.twists[0], tuple(x + 1 for x in plan.twists[1])))
    try:
        workloads.checks.check_generated(
            [workloads.checks.exact_matrix(m) for m in rep.mats],
            workloads.inputs.expected_matrices(wrong, workloads.checks.exact_matrix(s)), "wrong twist")
    except CheckFailed as e:
        print(f"generation, wrong twist: fired ({e})")
    else:
        print("generation, wrong twist: NOT DETECTED")
        missed.append("generation")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
