"""Seeded hostile input.  Each seed mutates the JSON of one catalog fixture:
non-list brackets, non-string basis names, huge entries and denominators,
huge diagonal actions, ragged rows, dimX mismatches, malformed bracket
entries and Jacobi violations.  report, koszul, validate and eigenchars run
on every file in-process under both backends.  Each run must exit 0, 1 or
2, print exactly one `error:` line on stderr when it exits 1 or 2 (validate
reports violations in its payload instead), and let no exception escape
cli.main.  The seeds are fixed; never narrow them."""

import copy
import json
import random

import pytest

from liespec import lab
from liespec.cli import main
from liespec.representation import rep_to_json

SEEDS = range(150)
COMMANDS = ("report", "koszul", "validate", "eigenchars")
HUGE = 10 ** 400
FIXTURES = ("a1", "h3", "s2", "z3", "f4")


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
MUTATIONS = (_jacobi, _bad_bracket, _huge_diagonal, _huge_entry, _name_not_a_string,
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
