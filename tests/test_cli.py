"""End-to-end checks of the command-line front end: exit codes, payload
shapes, and byte determinism of the JSON rendering."""

import json
import os
import time

import pytest

from liespec import cli, lab, spectra
from liespec import numeric as nm
from liespec import koszul as kz
from liespec import lie_core as lc
from liespec import representation as rp
from liespec.cli import main
from liespec.lie_core import jordan_holder_chain
from liespec.numeric import VerificationFailure, scalar_to_json
from liespec.representation import rep_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def h3_file(tmp_path):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(rep_to_json(lab.fixture("h3").rep)))
    return str(path)


def test_validate_fixture_ok(capsys):
    code, out, _ = run(capsys, "validate", "--fixture", "h3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["algebra_violations"] == []
    assert payload["homomorphism_violations"] == []


def test_validate_broken_rep_exits_1(capsys, tmp_path):
    obj = rep_to_json(lab.fixture("h3").rep)
    # rho(z) = E11 is not the bracket of rho(x), rho(y)
    obj["matrices"][2] = [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["homomorphism_violations"]


def test_validate_file_input(capsys, h3_file):
    code, out, _ = run(capsys, "validate", h3_file)
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_koszul_and_spectrum_refuse_input_that_is_not_a_representation(
        capsys, monkeypatch, tmp_path, backend):
    # rho(z) = 0 on H3: [rho(x), rho(y)] != rho(z), so the Koszul complex has
    # d d != 0 at degrees 2 and 3 and its Betti numbers are not homology
    obj = rep_to_json(lab.fixture("h3").rep)
    obj["matrices"][2] = [["0"] * 3 for _ in range(3)]
    path = tmp_path / "not_a_rep.json"
    path.write_text(json.dumps(obj))
    assert kz.validate_complex(kz.build_complex(rp.rep_from_json(obj))) == [2, 3]
    want = "error: input is not a representation: homomorphism violation at (0, 1)\n"
    for argv in (["koszul"], ["spectrum"], ["spectrum", "--route", "eigenchar"],
                 ["eigenchars"], ["crossval"], ["project", "--chain", "1"]):
        assert run(capsys, *argv, str(path), "--backend", backend) == (1, "", want), argv
    # report pays for no homomorphism check; on exact input its eigencharacter
    # route refuses the same input
    checks = []
    honest = cli.validate_representation
    monkeypatch.setattr(cli, "validate_representation",
                        lambda *args: checks.append(1) or honest(*args))
    code, out, err = run(capsys, "report", str(path), "--backend", backend)
    if backend == "exact":
        assert (code, out, err) == (1, "", "error: joint eigenspace is not invariant\n")
    assert run(capsys, "report", "--fixture", "h3", "--backend", backend)[0] == 0
    assert checks == []


def test_truncated_json_exits_2(capsys, tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"algebra": {"dim":')
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "trunc.json" in err
    assert "JSON" in err


def test_schema_error_names_offending_path(capsys, tmp_path):
    obj = rep_to_json(lab.fixture("h3").rep)
    obj["matrices"][1] = [["0", "0", "0"]]  # wrong row count
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "matrices[1]" in err


@pytest.mark.parametrize("where", ["representation.matrices[0][0]", "algebra.brackets[0].coeffs"])
@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "1e400", "[0, -Infinity]"])
def test_non_finite_number_exits_2_naming_its_path(capsys, tmp_path, where, backend, value):
    # json.load takes these as float infinities and NaN
    obj = rep_to_json(lab.fixture("h3").rep)
    if where.startswith("representation"):
        obj["matrices"][0][0][1] = "@"
    else:
        obj["algebra"]["brackets"][0]["coeffs"][2] = "@"
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(obj).replace('"@"', value))
    code, out, err = run(capsys, "report", str(path), "--backend", backend)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: {where}: not a finite number: "), err


def _h3_with(tmp_path, where, value):
    """The H3 fixture's JSON text with the raw JSON value at the given path."""
    obj = rep_to_json(lab.fixture("h3").rep)
    if where.startswith("representation"):
        obj["matrices"][0][0][1] = "@"
    else:
        obj["algebra"]["brackets"][0]["coeffs"][2] = "@"
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(obj).replace('"@"', value))
    return path


@pytest.mark.parametrize("where", ["representation.matrices[0][0]", "algebra.brackets[0].coeffs"])
@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("value", ["[null, 1]", "[[1], 0]", "[true, false]", '["1", 2]', "[1, 2, 3]", "{}"])
def test_scalar_pair_parts_must_be_numbers(capsys, tmp_path, where, backend, value):
    path = _h3_with(tmp_path, where, value)
    code, out, err = run(capsys, "report", str(path), "--backend", backend)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: {where}: not a scalar: "), err


@pytest.mark.parametrize("where", ["representation.matrices[0][0]", "algebra.brackets[0].coeffs"])
@pytest.mark.parametrize("value", ["1" + "0" * 400, "[0, -1" + "0" * 400 + "]", '"1' + "0" * 400 + '/3"'])
def test_number_too_large_for_a_double_exits_2_on_float(capsys, tmp_path, where, value):
    path = _h3_with(tmp_path, where, value)
    code, out, err = run(capsys, "validate", str(path), "--backend", "float")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: {where}: too large for a double: "), err
    # the exact backend reads the same file
    code, _, err = run(capsys, "validate", str(path))
    assert code in (0, 1) and err == ""


_COMMANDS = ("report", "koszul", "validate", "eigenchars", "spectrum", "crossval", "info")


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("value", ["5", "true", "1.5", "1" + "0" * 400, '"xy"', "{}", "null"])
def test_brackets_that_are_not_a_list_exit_2(capsys, tmp_path, backend, value):
    obj = rep_to_json(lab.fixture("h3").rep)
    obj["algebra"]["brackets"] = "@"
    path = tmp_path / "brackets.json"
    path.write_text(json.dumps(obj).replace('"@"', value))
    for command in _COMMANDS:
        assert run(capsys, command, str(path), "--backend", backend) == (
            2, "", f"error: {path}: algebra.brackets: expected a list of bracket entries\n"), command


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_repeated_bracket_entry_exits_2(capsys, tmp_path, backend):
    # a second (0,1) entry of zeros would otherwise replace [x, y] = z and
    # load H3 as an abelian algebra
    obj = rep_to_json(lab.fixture("h3").rep)
    obj["algebra"]["brackets"].append({"i": 0, "j": 1, "coeffs": ["0", "0", "0"]})
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(obj))
    for command in _COMMANDS + ("project",):
        extra = ("--chain", "1") if command == "project" else ()
        assert run(capsys, command, str(path), "--backend", backend, *extra) == (
            2, "", f"error: {path}: algebra.brackets[1]: duplicate bracket (0,1)\n"), command


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("name", [[0], 1, None, True, {"a": 1}])
def test_basis_names_that_are_not_strings_exit_2(capsys, tmp_path, backend, name):
    obj = rep_to_json(lab.fixture("h3").rep)
    obj["algebra"]["basis"][1] = name
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(obj))
    for command in _COMMANDS:
        assert run(capsys, command, str(path), "--backend", backend) == (
            2, "", f"error: {path}: algebra.basis[1]: expected a string name\n"), command


@pytest.mark.parametrize("huge", ['"1' + "0" * 400 + '"', "1" + "0" * 400])
def test_exact_eigenvalues_past_the_double_range_are_sorted_exactly(capsys, tmp_path, huge):
    # A1 acting as diag(10^400, 3): the eigenvalue runs sort on exact keys,
    # where a float key would overflow
    path = tmp_path / "a1.json"
    path.write_text('{"algebra": {"dim": 1, "basis": ["x"], "brackets": []}, "dimX": 2, '
                    f'"matrices": [[[{huge}, "0"], ["0", "3"]]]}}')
    big = "1" + "0" * 400
    for command in _COMMANDS:
        code, out, err = run(capsys, command, str(path))
        assert (code, err) == (0, ""), command
    code, out, _ = run(capsys, "eigenchars", str(path))
    assert json.loads(out)["eigencharacters"] == [[big], ["3"]]
    rep = rp.rep_from_json(json.loads(path.read_text()))
    assert [x for x, _ in nm.eigenvalues(rep.mats[0])] == [nm.gr(3), nm.gr(10 ** 400)]


def _two_dim(i, j):
    return {"algebra": {"dim": 2, "basis": ["x", "y"], "brackets": [{"i": i, "j": j, "coeffs": ["0", "1"]}]},
            "dimX": 1, "matrices": [[["0"]], [["0"]]]}


@pytest.mark.parametrize("obj,where", [
    ({"algebra": {"dim": True, "basis": ["x"], "brackets": []}, "dimX": True, "matrices": [[[2]]]}, "algebra.dim"),
    ({"algebra": {"dim": 1, "basis": ["x"], "brackets": []}, "dimX": True, "matrices": [[[2]]]},
     "representation.dimX"),
    (_two_dim(False, 1), "algebra.brackets[0]"),
    (_two_dim(0, True), "algebra.brackets[0]"),
])
def test_booleans_are_not_integers(capsys, tmp_path, obj, where):
    path = tmp_path / "bools.json"
    path.write_text(json.dumps(obj))
    for backend in ("exact", "float"):
        code, out, err = run(capsys, "spectrum", str(path), "--backend", backend)
        assert (code, out) == (2, ""), err
        assert err.startswith(f"error: {path}: {where}"), err


def test_missing_input_exits_2(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 2
    assert "fixture" in err


def test_unknown_fixture_exits_2(capsys):
    code, _, err = run(capsys, "info", "--fixture", "so3")
    assert code == 2
    assert "so3" in err


def test_both_input_and_fixture_exits_2(capsys, h3_file):
    code, _, err = run(capsys, "validate", h3_file, "--fixture", "h3")
    assert code == 2
    assert "not both" in err


def test_info_f4(capsys):
    code, out, _ = run(capsys, "info", "--fixture", "f4")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 4
    assert payload["nilpotent"] is True
    assert payload["nilpotency_class"] == 3
    assert payload["chain_dims"] == [0, 1, 2, 3, 4]
    assert payload["lower_central_dims"] == [4, 2, 1, 0]


def test_koszul_h3_profile(capsys):
    code, out, _ = run(capsys, "koszul", "--fixture", "h3")
    assert code == 0
    payload = json.loads(out)
    assert payload["f"] == ["0", "0", "0"]
    assert payload["dims"] == [3, 9, 9, 3]
    assert payload["ranks"] == [2, 5, 2]
    assert payload["betti"] == [1, 2, 2, 1]


def test_koszul_shift_moves_homology(capsys):
    code, out, _ = run(capsys, "koszul", "--fixture", "a1", "--shift", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["f"] == ["2"]
    assert payload["betti"] == [1, 1]

    code, out, _ = run(capsys, "koszul", "--fixture", "a1", "--shift", "7")
    assert json.loads(out)["betti"] == [0, 0]


def test_koszul_shift_wrong_arity_exits_2(capsys):
    code, _, err = run(capsys, "koszul", "--fixture", "h3", "--shift", "1,2")
    assert code == 2
    assert "3" in err


def test_spectrum_h3_taylor(capsys):
    code, out, _ = run(capsys, "spectrum", "--fixture", "h3", "--kind", "taylor")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "taylor"
    assert payload["route"] == "homology"
    assert payload["members"] == [["0", "0", "0"]]
    assert payload["betti"] == {"0,0,0": [1, 2, 2, 1]}
    assert payload["annotations"] == []


def test_spectrum_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "spectrum", "--fixture", "f4", "--kind", "delta:2")
    _, second, _ = run(capsys, "spectrum", "--fixture", "f4", "--kind", "delta:2")
    assert first == second


def test_spectrum_split_a1(capsys):
    code, out, _ = run(capsys, "spectrum", "--fixture", "a1", "--kind", "split")
    assert code == 0
    payload = json.loads(out)
    assert payload["members"] == [["2"], ["3"]]
    assert any("split" in a for a in payload["annotations"])


def test_spectrum_essential_empty(capsys):
    code, out, _ = run(capsys, "spectrum", "--fixture", "h3", "--kind", "fredholm")
    assert code == 0
    payload = json.loads(out)
    assert payload["members"] == []
    assert payload["annotations"]


def test_spectrum_eigenchar_route_needs_override(capsys):
    code, _, err = run(
        capsys, "spectrum", "--fixture", "s2", "--route", "eigenchar"
    )
    assert code == 1
    assert "non-nilpotent" in err

    code, out, _ = run(
        capsys,
        "spectrum",
        "--fixture",
        "s2",
        "--route",
        "eigenchar",
        "--override-nilpotency",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["route"] == "eigencharacter"
    assert payload["members"] == [["1", "0"]]


def test_spectrum_eigenchar_route_taylor_only(capsys):
    code, _, err = run(
        capsys, "spectrum", "--fixture", "h3", "--route", "eigenchar",
        "--kind", "delta:1",
    )
    assert code == 2
    assert "taylor" in err


def test_spectrum_unknown_kind_exits_2(capsys):
    code, _, err = run(capsys, "spectrum", "--fixture", "h3", "--kind", "bogus")
    assert code == 2
    assert "bogus" in err


def test_tol_requires_float_backend(capsys):
    code, _, err = run(capsys, "spectrum", "--fixture", "h3", "--tol", "1e-8")
    assert code == 2
    assert "float" in err


# "-1e-6" does not match argparse's negative-number pattern, yet reaches the check
@pytest.mark.parametrize("tol", ["nan", "inf", "1e400", "0", "-1", "-1e-6"])
def test_tol_must_be_positive_and_finite(capsys, tol):
    code, out, err = run(capsys, "spectrum", "--fixture", "h3", "--backend", "float", "--tol", tol)
    assert code == 2
    assert out == ""
    assert err == "error: --tol must be a positive finite number\n"


@pytest.mark.parametrize("argv", [
    ["lab", "suite", "--seeds", "0", "--backend", "float", "--tol", "1e-3"],
    ["report", "--fixture", "h3", "--override-nilpotency"],
])
def test_flag_on_a_subcommand_that_does_not_read_it_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_float_backend_members(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--fixture", "h3", "--backend", "float",
        "--tol", "1e-6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["members"] == [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]


def test_eigenchars_h3(capsys):
    code, out, _ = run(capsys, "eigenchars", "--fixture", "h3")
    assert code == 0
    payload = json.loads(out)
    assert payload["eigencharacters"] == [["0", "0", "0"]]
    assert len(payload["witnesses"]) == 1
    assert len(payload["witnesses"][0]) == 3


def test_crossval_h3_agrees(capsys):
    code, out, _ = run(capsys, "crossval", "--fixture", "h3")
    assert code == 0
    payload = json.loads(out)
    assert payload["nilpotent"] is True
    assert payload["equal"] is True


def test_crossval_s2_divergence_reported(capsys):
    code, out, _ = run(capsys, "crossval", "--fixture", "s2")
    assert code == 0
    payload = json.loads(out)
    assert payload["nilpotent"] is False
    assert payload["equal"] is False
    assert payload["eigen_contained"] is False
    assert payload["eigen_members"] == [["1", "0"]]
    assert sorted(payload["homology_members"]) == [["0", "0"], ["2", "0"]]


def test_project_chain_index(capsys):
    code, out, _ = run(capsys, "project", "--fixture", "h3", "--chain", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["ideal_dim"] == 2
    assert payload["projected"] == [["0", "0"]]


def test_project_explicit_ideal(capsys):
    code, out, _ = run(
        capsys, "project", "--fixture", "h3", "--ideal", "0,0,1", "--kind", "split"
    )
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_project_non_ideal_exits_1(capsys):
    code, _, err = run(capsys, "project", "--fixture", "h3", "--ideal", "1,0,0")
    assert code == 1
    assert "ideal" in err


def test_project_chain_out_of_range_exits_2(capsys):
    code, _, err = run(capsys, "project", "--fixture", "h3", "--chain", "9")
    assert code == 2
    assert "range" in err


def test_report_h3_dossier(capsys):
    code, out, _ = run(capsys, "report", "--fixture", "h3")
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"]["nilpotency_class"] == 2
    assert payload["spectra"]["taylor"]["members"] == [["0", "0", "0"]]
    assert payload["spectra"]["fredholm"]["members"] == []
    assert payload["cross_validation"]["equal"] is True
    assert payload["projections"]
    assert all(p["equal"] for p in payload["projections"])
    assert all(p["ideal_dim"] == 2 for p in payload["projections"])


def test_report_s2_skips_projections(capsys):
    code, out, _ = run(capsys, "report", "--fixture", "s2")
    assert code == 0
    payload = json.loads(out)
    assert payload["projections"] == []
    assert payload["notes"]
    assert payload["cross_validation"]["equal"] is False


def test_table_format_smoke(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--fixture", "h3", "--format", "table"
    )
    assert code == 0
    assert "members:" in out
    assert "kind: taylor" in out


def test_lab_proxy_csv(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algebra": "h3", "schedule": [6], "rank_budget": 3,
                               "seed": 7}))
    code, out, _ = run(capsys, "lab", "proxy", "--config", str(cfg))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,rank_budget,sigma_size,eigenchar_size,equality,elapsed_ms"
    assert lines[1].startswith("6,3,1,1,true,")


def test_lab_proxy_schedule_over_the_entry_budget_exits_1_fast(capsys, tmp_path):
    # H3 at m = 1000: d_1 would have 1 000 x 3 000 dense entries, d_2 3 000 x 3 000
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schedule": [1000]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "lab", "proxy", "--config", str(cfg))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert "1000x3000" in err


def test_report_of_an_oversized_scalar_block_exits_1(capsys, tmp_path, monkeypatch):
    # the zero representation of H3 on C^600 is one scalar weight block: its
    # Betti vector is read off the algebra's, but the entry budget of the
    # complex it stands for still applies, and nothing is factored
    path = tmp_path / "zero600.json"
    obj = rep_to_json(lab.fixture("h3").rep)
    obj["dimX"], obj["matrices"] = 600, [[["0"] * 600 for _ in range(600)] for _ in range(3)]
    path.write_text(json.dumps(obj))
    factored = []
    honest = spectra.eigenvalues
    monkeypatch.setattr(spectra, "eigenvalues", lambda m, *rest: factored.append(m) or honest(m, *rest))
    code, out, err = run(capsys, "report", str(path))
    assert code == 1
    assert out == ""
    assert err == ("error: d_1 would have 600x1800 = 1080000 entries, over the budget of "
                   "1000000 entries per differential\n")
    assert factored == []


def test_lab_proxy_default_schedule_csv(capsys):
    code, out, _ = run(capsys, "lab", "proxy")
    assert code == 0
    assert [line.rsplit(",", 1)[0] for line in out.splitlines()] == [
        "m,rank_budget,sigma_size,eigenchar_size,equality",
        "6,3,1,1,true", "10,3,1,1,true", "14,3,1,1,true",
    ]


def test_lab_proxy_defaults_without_config(capsys):
    code, out, _ = run(capsys, "lab", "proxy", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["m"] for r in rows] == [6, 10, 14]
    assert all(r["equality"] for r in rows)


def test_lab_proxy_seed_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schedule": [6], "rank_budget": 3, "seed": 0}))
    code, out, _ = run(
        capsys, "lab", "proxy", "--config", str(cfg), "--format", "json", "--seed", "3"
    )
    assert code == 0
    assert json.loads(out)["rows"][0]["sigma_size"] == 1


@pytest.mark.parametrize("argv", [["spectrum", "--fixture", "h3"], ["lab", "suite", "--seeds", "1"]])
def test_seed_outside_lab_proxy_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "3")
    assert code == 2
    assert out == ""
    assert "--seed" in err


def test_lab_proxy_bad_budget_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schedule": [6], "rank_budget": 6}))
    code, _, err = run(capsys, "lab", "proxy", "--config", str(cfg))
    assert code == 2
    assert "budget" in err


def test_lab_proxy_unknown_field_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schedul": [6]}))
    code, _, err = run(capsys, "lab", "proxy", "--config", str(cfg))
    assert code == 2
    assert "schedul" in err


def test_lab_suite_catalog_only(capsys):
    code, out, _ = run(capsys, "lab", "suite", "--seeds", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["instances"] == 5
    assert payload["ok"] is True
    assert payload["failures"] == []


# --- report: golden output and the one-table-per-representation contract ----------

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _assert_golden(capsys, golden, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    with open(os.path.join(DATA, golden), encoding="utf-8") as fh:
        assert out == fh.read()


@pytest.mark.parametrize("name", ["a1", "h3", "s2", "z3", "f4"])
def test_report_matches_golden_output(capsys, name):
    _assert_golden(capsys, f"report_{name}_exact.json", "report", "--fixture", name, "--backend", "exact")


@pytest.mark.parametrize("name", ["a1", "h3", "s2", "z3", "f4"])
def test_float_report_matches_golden_output(capsys, name):
    # pins the float eigenvalues, witnesses and the JSON rendering of floats
    _assert_golden(capsys, f"report_{name}_float.json", "report", "--fixture", name, "--backend", "float")


@pytest.mark.parametrize("name, tables", [("f4", 2), ("s2", 1)])
def test_report_builds_one_table_per_representation(capsys, monkeypatch, name, tables):
    built = []
    honest = spectra.homology_table

    def counting(rep, *args, **kwargs):
        built.append(rep)
        return honest(rep, *args, **kwargs)

    monkeypatch.setattr(spectra, "homology_table", counting)
    code, _, _ = run(capsys, "report", "--fixture", name)
    assert code == 0
    assert len(built) == tables
    assert len(set(built)) == tables


@pytest.mark.parametrize("name", ["a1", "h3", "z3", "f4"])
def test_report_agrees_with_per_kind_checks(capsys, name):
    code, out, _ = run(capsys, "report", "--fixture", name)
    assert code == 0
    payload = json.loads(out)
    rep = lab.fixture(name).rep
    L = rep.algebra
    ideal = jordan_holder_chain(L)[L.n - 1]
    expected = []
    for kind in spectra.all_kinds(L.n):
        if kind.essential:
            continue
        rpt = spectra.projection_check(rep, ideal, kind)
        expected.append({"kind": rpt.kind.render(), "ideal_dim": ideal.dim, "equal": rpt.equal})
    assert payload["projections"] == expected
    cv = spectra.cross_validate(rep)
    assert payload["cross_validation"] == {
        "equal": cv.equal,
        "eigen_contained": cv.eigen_contained,
        "strict_containment": cv.strict,
        "eigen_members": [[scalar_to_json(c) for c in f] for f in cv.eigen_members],
    }


# --- the JSON writer: the text of json.dumps(..., sort_keys=True, indent=2) -------


def _dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("name", ["a1", "h3", "s2", "z3", "f4"])
def test_json_writer_matches_json_dumps_on_command_payloads(name, backend):
    for command in ("report", "crossval", "eigenchars", "info"):
        args = cli._build_parser().parse_args([command, "--fixture", name, "--backend", backend])
        code, payload = args.handler(args)
        assert code == 0
        assert cli._to_json(payload) == _dumps(payload), (command, name, backend)


def test_json_writer_matches_json_dumps_on_edge_values():
    import enum

    class Flag(enum.IntEnum):
        ON = 1

    cases = [
        [], {}, [[]], [{}], {"a": {}, "b": [], "c": [[], {}]}, [[[], {"x": [[]]}]],
        "", "n\u00efve \u2713 \U0001d11e", "\x00\x01\x1f\x7f", "\n\t\r\b\f",
        'a "quote", a \\ backslash and a / slash',
        0.0, -0.0, 1e-320, -1e-320, 0.1, 1e300, -2.5e-7, float("nan"), float("inf"), float("-inf"),
        0, -1, 10 ** 40, -(10 ** 40), True, False, None, Flag.ON,
        {"\u00e9": 1, '"': 2, "\\": [None, True], "a\nb": -0.0, "": {}, "z": (1, (2, [3]))},
        {1: "one", 2.5: "two and a half", -3: []}, {None: 0}, {True: False},
    ]
    for case in cases + [cases, {"all": cases}]:
        assert cli._to_json(case) == _dumps(case), case


# --- exact eigenvalues: seeded goldens and a hostile input ------------------------


@pytest.mark.parametrize("command", ["eigenchars", "crossval", "report"])
@pytest.mark.parametrize(
    "base, m, seed",
    [("H3", 5, 0), ("H3", 5, 1), ("F4", 6, 0), ("F4", 8, 0), ("A1", 4, 0), ("Z3", 5, 0)],
)
def test_seeded_exact_output_matches_golden(capsys, tmp_path, command, base, m, seed):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(lab.random_nilpotent_rep(seed, base, m))))
    _assert_golden(capsys, f"{command}_{base.lower()}_m{m}_s{seed}_exact.json",
                   command, str(path), "--backend", "exact")


@pytest.mark.parametrize("index, name", [(0, "none"), (1, "partial")])
def test_witnesses_of_bases_without_a_full_ideal_order_match_golden(capsys, tmp_path, index, name):
    from test_spectra import no_ideal_order_reps

    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(no_ideal_order_reps()[index])))
    _assert_golden(capsys, f"eigenchars_skewed_h3_{name}_exact.json",
                   "eigenchars", str(path), "--backend", "exact")


def _close_roots_file(tmp_path, superdiagonal):
    # A1 acting on C^3 by diag(9999/10, 9999999/10000, 999999999/1000000), with
    # the superdiagonal filled in: float root guesses of its characteristic
    # polynomial, whose coefficients have 27 digits, miss the three close roots
    rows = [["9999/10", "0", "0"], ["0", "9999999/10000", "0"], ["0", "0", "999999999/1000000"]]
    for k in range(2):
        rows[k][k + 1] = str(superdiagonal)
    path = tmp_path / "close.json"
    path.write_text(json.dumps({"algebra": {"dim": 1, "basis": ["x"], "brackets": []},
                                "dimX": 3, "matrices": [rows]}))
    return str(path)


CLOSE_ROOTS = [["9999/10"], ["9999999/10000"], ["999999999/1000000"]]


@pytest.mark.parametrize("superdiagonal", [0, 1])
def test_exact_close_eigenvalues_are_found(capsys, tmp_path, superdiagonal):
    path = _close_roots_file(tmp_path, superdiagonal)
    code, out, err = run(capsys, "eigenchars", path, "--backend", "exact")
    assert (code, err) == (0, "")
    assert json.loads(out)["eigencharacters"] == CLOSE_ROOTS
    code, out, err = run(capsys, "report", path, "--backend", "exact")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["cross_validation"]["equal"] is True
    assert report["spectra"]["taylor"]["members"] == CLOSE_ROOTS


# --- float backend: known failures on seeded nilpotent input ----------------------
# Each answers correctly on the exact backend; strict, so a fix shows up as XPASS.


def _seeded_float_run(capsys, tmp_path, command, base, m, seed):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(lab.random_nilpotent_rep(seed, base, m))))
    return run(capsys, command, str(path), "--backend", "float")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a defective float eigenvalue loses the (0,0,0) branch")
def test_float_eigenchars_find_both_characters_of_h3_seed_0(capsys, tmp_path):
    code, out, _ = _seeded_float_run(capsys, tmp_path, "eigenchars", "H3", 5, 0)
    assert code == 0
    assert len(json.loads(out)["eigencharacters"]) == 2  # as on the exact backend


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="float joint eigenvector search raises NotSolvable")
def test_float_spectrum_of_h3_seed_1(capsys, tmp_path):
    code, _, err = _seeded_float_run(capsys, tmp_path, "spectrum", "H3", 5, 1)
    assert code == 0, err


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="float ranks of d_1 and d_2 sum past dim X_1")
def test_float_crossval_of_f4_seed_0(capsys, tmp_path):
    code, _, err = _seeded_float_run(capsys, tmp_path, "crossval", "F4", 6, 0)
    assert code == 0, err


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="float joint eigenvector search raises NotSolvable")
def test_float_lab_proxy_default_config(capsys):
    code, out, err = run(capsys, "lab", "proxy", "--backend", "float", "--format", "json")
    assert code == 0, err
    assert [r["m"] for r in json.loads(out)["rows"]] == [6, 10, 14]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="float eigenvalues 999.9999 and 999.999999 fall in one run")
def test_float_report_of_close_eigenvalues(capsys, tmp_path):
    code, _, err = run(capsys, "report", _close_roots_file(tmp_path, 0), "--backend", "float")
    assert code == 0, err


@pytest.mark.parametrize("command", ["spectrum", "report", "crossval"])
@pytest.mark.parametrize("seed,base,m", [(3, "H3", 7), (4, "F4", 6), (5, "F4", 6)])
def test_float_singular_quotient_basis_exits_1_with_one_error_line(
        capsys, tmp_path, command, seed, base, m):
    # the float joint eigenvector has entries near 5e8, so the relative pivot
    # threshold rejects the unit columns that complete it to a basis
    code, out, err = _seeded_float_run(capsys, tmp_path, command, base, m, seed)
    assert code == 1
    assert out == ""
    assert err == "error: quotient basis [v | e_j] of a joint eigenvector is numerically singular\n"


def test_irrational_eigenvalue_with_huge_divisor_count_exits_1_fast(capsys, tmp_path):
    # t^2 - 9999990 has no Gaussian-rational root, and a full divisor search
    # of its constant term would take about 10^7 trial divisions
    rep = rp.representation(lc.abelian_algebra(["e1"]), [[[0, 9999990], [1, 0]]])
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(rep_to_json(rep)))
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", str(path))
    assert time.perf_counter() - start < 5
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_differential_over_the_entry_budget_exits_1_fast(capsys, tmp_path):
    # abelian n = 10 on C^10: d_4 would have 1 200 x 2 100 dense entries
    names = [f"x{k}" for k in range(10)]
    rep = rp.representation(lc.abelian_algebra(names), [[[0] * 10 for _ in range(10)]] * 10)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(rep_to_json(rep)))
    start = time.perf_counter()
    code, out, err = run(capsys, "koszul", str(path))
    assert time.perf_counter() - start < 5
    assert code == 1
    assert out == ""
    assert "1200x2100" in err


# --- per-algebra caches and one restriction per member -----------------------------


def test_report_derives_algebra_invariants_once_per_process(capsys, monkeypatch):
    for value in vars(lc).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    F4 = lab.fixture("f4").rep.algebra
    spans = []
    honest = lc._bracket_span

    def counting(L, *args, **kwargs):
        spans.append(L == F4)
        return honest(L, *args, **kwargs)

    monkeypatch.setattr(lc, "_bracket_span", counting)
    per_run = []
    for _ in range(2):
        code, _, _ = run(capsys, "report", "--fixture", "f4")
        assert code == 0
        per_run.append(sum(spans))
        spans.clear()
    assert per_run[0] > 0
    assert per_run[1] == 0


@pytest.mark.parametrize("name", ["a1", "h3", "z3", "f4"])
def test_report_restricts_each_taylor_member_once(capsys, monkeypatch, name):
    restricted = []
    honest = spectra.restrict_character

    def counting(f, *args, **kwargs):
        restricted.append(f.coeffs)
        return honest(f, *args, **kwargs)

    monkeypatch.setattr(spectra, "restrict_character", counting)
    code, out, _ = run(capsys, "report", "--fixture", name)
    assert code == 0
    taylor = json.loads(out)["spectra"]["taylor"]["members"]
    assert sorted([scalar_to_json(c) for c in f] for f in restricted) == sorted(taylor)


@pytest.mark.parametrize("name", ["a1", "h3", "z3", "f4"])
def test_report_compares_each_distinct_projection_once(capsys, monkeypatch, name):
    # a projection depends only on the kind's degree ranges in L and in the
    # ideal: 2n + 1 distinct pairs among the 2 + 4(n + 1) non-essential kinds
    rep = lab.fixture(name).rep
    n = rep.algebra.n
    reports = spectra.all_spectra(rep)
    compared = []
    honest = spectra.same_character_sets

    def counting(a, b, backend):
        compared.append((a, b))
        return honest(a, b, backend)

    monkeypatch.setattr(spectra, "same_character_sets", counting)
    projections = spectra.chain_projections(rep, reports)
    assert len(projections) == 2 + 4 * (n + 1)
    assert len(compared) == 2 * n + 1
    monkeypatch.undo()
    code, out, _ = run(capsys, "report", "--fixture", name)
    assert code == 0
    assert len(json.loads(out)["projections"]) == 2 + 4 * (n + 1)


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


# --- typed failures: route disagreement and internal errors -----------------------


def test_crossval_route_disagreement_exits_1(capsys, monkeypatch):
    honest = spectra.joint_eigencharacters
    monkeypatch.setattr(spectra, "joint_eigencharacters", lambda rep, tol=None: honest(rep, tol)[1:])
    code, out, err = run(capsys, "crossval", "--fixture", "h3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: dual-route disagreement on a nilpotent algebra")
    assert issubclass(spectra.RouteDisagreement, VerificationFailure)


ROUTE_DISAGREEMENT = {
    "exact": 'homology [["2"], ["3"]] vs eigencharacters [["3"]]',
    "float": "homology [[[2.0, 0.0]], [[3.0, 0.0]]] vs eigencharacters [[[3.0, 0.0]]]",
}


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_route_disagreement_prints_characters_as_json(capsys, monkeypatch, backend):
    honest = spectra.joint_eigencharacters
    monkeypatch.setattr(spectra, "joint_eigencharacters", lambda rep, tol=None: honest(rep, tol)[1:])
    code, out, err = run(capsys, "crossval", "--fixture", "a1", "--backend", backend)
    assert (code, out) == (1, "")
    assert err == ("error: dual-route disagreement on a nilpotent algebra: "
                   f"{ROUTE_DISAGREEMENT[backend]}\n")


@pytest.mark.parametrize("backend, functional",
                         [("exact", '["0", "1"]'), ("float", "[[0.0, 0.0], [1.0, 0.0]]")],
                         ids=["exact", "float"])
def test_non_character_shift_prints_scalars_as_json(capsys, backend, functional):
    code, out, err = run(capsys, "koszul", "--fixture", "s2", "--shift", "0,1", "--backend", backend)
    assert (code, out) == (1, "")
    assert err == f"error: functional {functional} does not vanish on [L, L]\n"


def test_internal_errors_propagate_with_traceback(monkeypatch):
    def broken(rep, tol=None):
        raise RuntimeError("an internal bug")

    monkeypatch.setattr(spectra, "joint_eigencharacters", broken)
    with pytest.raises(RuntimeError, match="an internal bug"):
        main(["crossval", "--fixture", "h3"])
