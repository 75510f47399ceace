"""Seeded hostile input.  Each seed mutates the JSON of one catalog fixture:
a change to a skewed integer basis, non-list brackets, non-string basis
names, huge entries and denominators, huge diagonal actions, ragged rows,
dimX mismatches, malformed bracket entries and Jacobi violations.  report,
koszul, validate and eigenchars run on every file in-process under both
backends.  Each run must exit 0, 1 or 2, print exactly one `error:` line
on stderr when it exits 1 or 2 (validate reports violations in its payload
instead), and let no exception escape cli.main.  The seeds are fixed; never
narrow them."""

import copy
import json
import os
import random
import subprocess
import sys

import pytest

from liespec import lab
from liespec.cli import main
from liespec.lie_core import bracket, lie_algebra
from liespec.numeric import EXACT, inverse, matrix_from_rows
from liespec.representation import Representation, rep_from_json, rep_to_json

SEEDS = range(150)
COMMANDS = ("report", "koszul", "validate", "eigenchars")
HUGE = 10 ** 400
FIXTURES = ("a1", "h3", "s2", "z3", "f4")


def _rebase(rng, obj):
    """The algebra and its matrices rewritten in the basis f_i = g e_i, for a
    seeded unimodular g: [f_i, f_j] = g^-1 [g e_i, g e_j] and rho'(f_i) =
    rho(g e_i).  The input stays valid; its integer entries grow, and float
    rounding no longer cancels exactly."""
    rep = rep_from_json(obj)
    L, n = rep.algebra, rep.algebra.n
    g = lab.unimodular_matrix(rng, n, EXACT)
    g_inv = inverse(g)
    cols = [tuple(g.at(k, i) for k in range(n)) for i in range(n)]
    brackets = {(i, j): (g_inv * matrix_from_rows([[x] for x in bracket(L, cols[i], cols[j])], EXACT)).entries
                for i in range(n) for j in range(i + 1, n)}
    rebased = Representation(lie_algebra(L.names, brackets), rep.m, tuple(rep.apply(c) for c in cols))
    obj.update(rep_to_json(rebased))


def _brackets_not_a_list(rng, obj):
    obj["algebra"]["brackets"] = rng.choice([5, True, 1.5, HUGE, "x", {"i": 0}, None])


def _name_not_a_string(rng, obj):
    names = obj["algebra"]["basis"]
    names[rng.randrange(len(names))] = rng.choice([[0], 1, None, True, {"a": 1}, 1.5])


def _entry(rng, obj):
    """(matrix, row, column) of one entry of a fixture's matrices."""
    m = obj["dimX"]
    return rng.randrange(len(obj["matrices"])), rng.randrange(m), rng.randrange(m)


def _huge_entry(rng, obj):
    k, i, j = _entry(rng, obj)
    obj["matrices"][k][i][j] = rng.choice(
        [HUGE, -HUGE, str(HUGE), f"{HUGE}i", f"-1/{HUGE}", [HUGE, 0], [0, -HUGE], 1e300])


def _huge_diagonal(rng, obj):
    """One matrix replaced by a diagonal mixing huge and small entries, as
    A1 acting as diag(10^400, 3)."""
    m = obj["dimX"]
    diag = [rng.choice([str(HUGE), str(-HUGE), f"1/{HUGE}", f"{HUGE}i", "3", "0"]) for _ in range(m)]
    obj["matrices"][rng.randrange(len(obj["matrices"]))] = [
        [diag[i] if i == j else "0" for j in range(m)] for i in range(m)]


def _ragged(rng, obj):
    k, i, _ = _entry(rng, obj)
    mat = obj["matrices"][k]
    how = rng.randrange(4)
    if how == 0:
        mat[i].pop()
    elif how == 1:
        mat[i].append("1")
    elif how == 2:
        mat.pop(i)
    else:
        mat[i] = rng.choice(["1", 1, None, {"0": 1}])


def _dim_mismatch(rng, obj):
    m = obj["dimX"]
    obj["dimX"] = rng.choice([m + 1, m - 1, 0, -1, "2", True, None, 1.5, HUGE])


def _bad_bracket(rng, obj):
    alg = obj["algebra"]
    n = alg["dim"]
    entry = {"i": 0, "j": min(1, n), "coeffs": ["0"] * n}
    how = rng.randrange(4)
    if how == 0:
        entry["coeffs"] = entry["coeffs"][:-1] or ["1", "1"]
    elif how == 1:
        entry["j"] = rng.choice([n, -1, 0, "1", True])
    elif how == 2:
        entry["coeffs"] = rng.choice([None, "0", {"0": 1}])
    else:
        entry = rng.choice([None, 3, [0, 1], {"i": 0}])
    alg["brackets"] = alg["brackets"] + [entry]


def _jacobi(rng, obj):
    """A changed structure constant: the bracket may break Jacobi or the
    matrices may stop being a representation."""
    alg = obj["algebra"]
    if alg["dim"] < 2:
        return _huge_entry(rng, obj)
    if not alg["brackets"]:
        alg["brackets"] = [{"i": 0, "j": 1, "coeffs": ["0"] * alg["dim"]}]
    coeffs = rng.choice(alg["brackets"])["coeffs"]
    coeffs[rng.randrange(len(coeffs))] = rng.choice(["1", "-2", "i", f"1/{HUGE}", str(HUGE)])


# applied in this order, so that no mutation reads what an earlier one broke
MUTATIONS = (_rebase, _jacobi, _bad_bracket, _huge_diagonal, _huge_entry, _name_not_a_string,
             _brackets_not_a_list, _ragged, _dim_mismatch)


def _mutant(seed):
    """(JSON object, mutations applied) for one seed."""
    rng = random.Random(f"fuzz:{seed}")
    obj = copy.deepcopy(rep_to_json(lab.fixture(rng.choice(FIXTURES)).rep))
    picked = rng.sample(MUTATIONS, rng.choice([1, 1, 2]))
    chosen = [m for m in MUTATIONS if m in picked]
    for mutate in chosen:
        mutate(rng, obj)
    return obj, chosen


@pytest.fixture(scope="module")
def mutants(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = []
    for seed in SEEDS:
        path = root / f"mutant_{seed}.json"
        path.write_text(json.dumps(_mutant(seed)[0]))
        paths.append(str(path))
    return paths


def test_mutations_reach_every_kind():
    assert {m for seed in SEEDS for m in _mutant(seed)[1]} == set(MUTATIONS)


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("command", COMMANDS)
def test_hostile_input_exits_with_one_typed_error(capsys, mutants, command, backend):
    bad = []
    for path in mutants:
        try:
            code = main([command, path, "--backend", backend])
        except Exception as e:  # an escaped exception is a defect
            capsys.readouterr()
            bad.append(f"{path}: raised {type(e).__name__}: {str(e)[:120]}")
            continue
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        # validate reports violations as its payload, with exit 1 and no error line
        violations = command == "validate" and code == 1 and not errors and not json.loads(out)["ok"]
        if code not in (0, 1, 2) or (code != 0 and len(errors) != 1 and not violations):
            bad.append(f"{path}: exit {code}, stderr {err[:200]!r}")
    assert not bad, "\n".join(bad)


def test_float_info_on_a_rebased_f4_stops(tmp_path):
    # the float lower central series of this input read 4, 2, 1, 3, 2, 1, ...
    # while rounding residue of zero brackets counted as a dimension
    obj = rep_to_json(lab.fixture("F4").rep)
    _rebase(random.Random(12), obj)
    assert obj["algebra"]["brackets"][0] == {"i": 0, "j": 1, "coeffs": ["-26", "72", "-310", "258"]}
    path = tmp_path / "f4_rebased.json"
    path.write_text(json.dumps(obj))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "liespec.cli", "info", str(path), "--backend", "float"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)
    assert facts["lower_central_dims"] == [4, 2, 1, 0] and facts["nilpotent"] is True
