"""Command-line front end.

Every subcommand reads a representation from a JSON file (or a named
catalog fixture), computes one report, and prints it as deterministic JSON
(sorted keys) or as an indented table.  Exit codes are stable: 0 for a
clean run, 1 for a domain failure (validation violations, hypothesis
violations, nonconvergence, a failed internal verification such as a
dual-route disagreement), 2 for unusable input (missing files, schema
errors, bad flag combinations).  Any other exception is a bug and
propagates with its traceback.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from . import lab
from .koszul import DimensionCap, NotSplit, build_complex, complex_profile
from .lie_core import (
    NotACharacter,
    NotAnIdeal,
    NotNilpotent,
    Subspace,
    character,
    coeffs_json,
    derived_subalgebra,
    is_nilpotent,
    is_solvable,
    jordan_holder_chain,
    lower_central_series,
    span,
    validate_lie_algebra,
)
from .numeric import (
    EXACT,
    FLOAT,
    ExactFactorizationFailure,
    Matrix,
    VerificationFailure,
    make_scalar,
    scalar_from_text,
    scalar_to_json,
    scalar_to_text,
)
from .representation import rep_from_json, validate_representation
from .spectra import (
    HypothesisViolation,
    NotSolvable,
    all_spectra,
    chain_projections,
    compare_routes,
    cross_validate,
    joint_eigencharacters,
    parse_kind,
    projection_check,
    spectrum,
    spectrum_via_eigencharacters,
)


class InputError(Exception):
    """Unusable input: files, schemas, flags.  Maps to exit code 2."""


# Failures of the mathematics rather than of the invocation.
_DOMAIN_ERRORS = (
    NotSolvable,
    HypothesisViolation,
    NotNilpotent,
    NotAnIdeal,
    NotACharacter,
    DimensionCap,
    NotSplit,
    ExactFactorizationFailure,
    VerificationFailure,
)


# ---------------------------------------------------------------------------
# input loading and rendering
# ---------------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON ({e.msg} at line {e.lineno})") from None


def _backend(args) -> str:
    return args.backend or EXACT


def _load_rep(args):
    if args.fixture is not None and args.input is not None:
        raise InputError("give either an input file or --fixture, not both")
    if args.fixture is not None:
        try:
            return lab.fixture(args.fixture, _backend(args)).rep
        except KeyError as e:
            raise InputError(str(e.args[0])) from None
    if args.input is None:
        raise InputError("no input: give a representation JSON file or --fixture NAME")
    obj = _load_json(args.input)
    try:
        return rep_from_json(obj, _backend(args))
    except ValueError as e:
        raise InputError(f"{args.input}: {e}") from None


def _scalar_label(x, backend: str) -> str:
    if backend == EXACT:
        return scalar_to_text(x)
    z = complex(x)
    if z.imag == 0:
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}i"


def _char_label(coeffs, backend: str) -> str:
    return ",".join(_scalar_label(c, backend) for c in coeffs)


def _matrix_json(m: Matrix) -> list:
    return [[scalar_to_json(m.at(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def _parse_vector(text: str, n: int, backend: str, wrong_length: str) -> list:
    """Comma-separated scalar literals -> n backend scalars; else wrong_length.format(got=count)."""
    coords = [p.strip() for p in text.split(",")]
    if len(coords) != n:
        raise InputError(wrong_length.format(got=len(coords)))
    try:
        return [make_scalar(scalar_from_text(c), backend) for c in coords]
    except ValueError as e:
        raise InputError(str(e)) from None


def _fmt_leaf(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (list, dict)) and not value:
        return "(none)"
    return json.dumps(value)


def _table_lines(obj, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines: List[str] = []
    if isinstance(obj, dict):
        for key in obj:
            val = obj[key]
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{key}:")
                lines.extend(_table_lines(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_fmt_leaf(val)}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}-")
                lines.extend(_table_lines(val, indent + 1))
            else:
                lines.append(f"{pad}- {_fmt_leaf(val)}")
    else:
        lines.append(f"{pad}{_fmt_leaf(obj)}")
    return lines


_json_text = json.encoder.encode_basestring_ascii


def _to_json(obj, pad: str = "\n") -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2), with pad the
    line break and indent before obj's nested lines.  It is joined from
    strings here because json.dumps takes its pure-Python encoder whenever
    indent is set.  Keys and strings are escaped as json escapes them; ints
    and finite floats print as their repr, booleans and None as their JSON
    words, and any other leaf is json.dumps of the leaf."""
    kind = type(obj)
    if kind is str:
        return _json_text(obj)
    if kind is int or (kind is float and math.isfinite(obj)):
        return kind.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [_json_text(k if isinstance(k, str) else json.dumps(k)) + ": " + _to_json(v, inner)
             for k, v in sorted(obj.items())]) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_to_json(v, inner) for v in obj]) + pad + "]"
    return json.dumps(obj)


def _render(payload, args) -> str:
    fmt = args.format or getattr(args, "default_format", "json")
    if isinstance(payload, str):
        # preformatted output (CSV); --format json is handled by the command
        return payload.rstrip("\n")
    if fmt == "json":
        return _to_json(payload)
    return "\n".join(_table_lines(payload))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> Tuple[int, dict]:
    rep = _load_rep(args)
    alg_bad = validate_lie_algebra(rep.algebra, args.tol)
    rep_bad = validate_representation(rep, args.tol)
    payload = {
        "ok": not alg_bad and not rep_bad,
        "algebra_violations": [
            {"triple": list(t), "residual": coeffs_json(vec)} for t, vec in alg_bad
        ],
        "homomorphism_violations": [
            {"pair": list(p), "residual": _matrix_json(m)} for p, m in rep_bad
        ],
    }
    return (0 if payload["ok"] else 1), payload


def _structure(L, tol) -> dict:
    """Structural facts about L, as info and report print them."""
    series = lower_central_series(L, tol)
    facts = {
        "solvable": is_solvable(L),
        "nilpotent": is_nilpotent(L),
        "derived_dim": derived_subalgebra(L, tol).dim,
        "lower_central_dims": [S.dim for S in series],
    }
    if facts["nilpotent"]:
        facts["nilpotency_class"] = len(series) - 1
        facts["chain_dims"] = [S.dim for S in jordan_holder_chain(L, tol)]
    return facts


def cmd_info(args) -> Tuple[int, dict]:
    rep = _load_rep(args)
    L = rep.algebra
    payload = {"dim": L.n, "basis": list(L.names), "dimX": rep.m, "backend": rep.backend,
               **_structure(L, args.tol)}
    return 0, payload


def _load_representation(args):
    """The input, refused when rho is not a homomorphism: the Koszul
    complexes of such input have d_(p-1) d_p != 0, so their Betti numbers
    are not homology."""
    rep = _load_rep(args)
    bad = validate_representation(rep, args.tol)
    if bad:
        pairs = ", ".join(f"({i}, {j})" for (i, j), _ in bad)
        raise VerificationFailure(f"input is not a representation: homomorphism violation at {pairs}")
    return rep


def cmd_koszul(args) -> Tuple[int, dict]:
    rep = _load_representation(args)
    f = None
    if args.shift is not None:
        n = rep.algebra.n
        wrong_length = f"character needs {n} coordinates, got {{got}}"
        f = character(rep.algebra, _parse_vector(args.shift, n, rep.backend, wrong_length))
    C = build_complex(rep, f, tol=args.tol)
    dims, ranks, betti = complex_profile(C, args.tol)
    coeffs = f.coeffs if f is not None else rep.algebra.zero_vector()
    payload = {
        "f": coeffs_json(coeffs),
        "dims": list(dims),
        "ranks": list(ranks),
        "betti": list(betti.h),
    }
    return 0, payload


def cmd_spectrum(args) -> Tuple[int, dict]:
    rep = _load_representation(args)
    try:
        kind = parse_kind(args.kind)
    except ValueError as e:
        raise InputError(str(e)) from None
    if args.route == "eigenchar":
        if kind.render() != "taylor":
            raise InputError("the eigencharacter route computes the plain taylor kind")
        report = spectrum_via_eigencharacters(
            rep, override=args.override_nilpotency, tol=args.tol
        )
    else:
        report = spectrum(rep, kind, tol=args.tol)
    payload = {
        "kind": report.kind.render(),
        "route": report.route,
        "members": [coeffs_json(c) for c in report.member_coeffs],
        "betti": {
            _char_label(coeffs, rep.backend): list(b.h) for coeffs, b in report.betti
        },
        "annotations": list(report.annotations),
    }
    return 0, payload


def cmd_eigenchars(args) -> Tuple[int, dict]:
    rep = _load_representation(args)
    pairs = joint_eigencharacters(rep, args.tol)
    payload = {
        "eigencharacters": [coeffs_json(f.coeffs) for f, _ in pairs],
        "witnesses": [coeffs_json(w.entries) for _, w in pairs],
    }
    return 0, payload


def cmd_crossval(args) -> Tuple[int, dict]:
    rep = _load_representation(args)
    cv = cross_validate(rep, tol=args.tol)
    payload = {
        "nilpotent": cv.nilpotent,
        "homology_members": [coeffs_json(c) for c in cv.homology_members],
        "eigen_members": [coeffs_json(c) for c in cv.eigen_members],
        "equal": cv.equal,
        "eigen_contained": cv.eigen_contained,
        "strict_containment": cv.strict,
    }
    return 0, payload


def _resolve_ideal(args, rep) -> Subspace:
    L = rep.algebra
    if args.chain is not None and args.ideal is not None:
        raise InputError("give either --chain or --ideal, not both")
    if args.chain is not None:
        chain = jordan_holder_chain(L, args.tol)
        if not 0 <= args.chain < len(chain):
            raise InputError(
                f"--chain {args.chain} out of range; the chain has {len(chain)} terms"
            )
        return chain[args.chain]
    if args.ideal is None:
        raise InputError("give --chain INDEX or --ideal VECTORS")
    vectors = []
    for part in args.ideal.split(";"):
        part = part.strip()
        if part:
            vectors.append(_parse_vector(part, L.n, rep.backend,
                                         f"ideal vectors need {L.n} coordinates"))
    if not vectors:
        raise InputError("empty --ideal")
    return span(L, vectors, args.tol)


def cmd_project(args) -> Tuple[int, dict]:
    rep = _load_representation(args)
    ideal = _resolve_ideal(args, rep)
    try:
        report = projection_check(rep, ideal, args.kind, tol=args.tol)
    except ValueError as e:
        raise InputError(str(e)) from None
    payload = {
        "kind": report.kind.render(),
        "ideal_dim": ideal.dim,
        "projected": [coeffs_json(c) for c in report.projected],
        "restricted": [coeffs_json(c) for c in report.restricted],
        "equal": report.equal,
    }
    return (0 if report.equal else 1), payload


def cmd_report(args) -> Tuple[int, dict]:
    rep = _load_rep(args)
    L = rep.algebra
    algebra = {"dim": L.n, "basis": list(L.names), **_structure(L, args.tol)}

    reports = all_spectra(rep, tol=args.tol)
    # kinds that share a member set (all_spectra) share one members list
    members_json = {}
    spectra = {}
    for name, report in sorted(reports.items()):
        members = members_json.get(report.members)
        if members is None:
            members = members_json[report.members] = [coeffs_json(c) for c in report.member_coeffs]
        spectra[name] = {"members": members,
                         "annotations": list(report.annotations)}

    cv = compare_routes(rep, reports["taylor"], joint_eigencharacters(rep, args.tol))
    crossval = {
        "equal": cv.equal,
        "eigen_contained": cv.eigen_contained,
        "strict_containment": cv.strict,
        "eigen_members": [coeffs_json(c) for c in cv.eigen_members],
    }

    projections = []
    notes: List[str] = []
    if algebra["nilpotent"] and L.n >= 1:
        projections = [{"kind": p.kind.render(), "ideal_dim": L.n - 1, "equal": p.equal}
                       for p in chain_projections(rep, reports, args.tol)]
    else:
        notes.append(
            "projection table needs the invariant flag of a nilpotent algebra; skipped"
        )

    payload = {
        "algebra": algebra,
        "dimX": rep.m,
        "spectra": spectra,
        "cross_validation": crossval,
        "projections": projections,
    }
    if notes:
        payload["notes"] = notes
    return 0, payload


def _proxy_config(obj: dict, args) -> lab.ExperimentConfig:
    if not isinstance(obj, dict):
        raise InputError("proxy config: expected an object")
    known = {"algebra", "schedule", "rank_budget", "seed", "backend"}
    extra = set(obj) - known
    if extra:
        raise InputError(f"proxy config: unknown fields {sorted(extra)}")
    schedule = obj.get("schedule", [6, 10, 14])
    if not isinstance(schedule, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) and x > 0 for x in schedule
    ):
        raise InputError("proxy config: schedule must be a list of positive integers")
    budget = obj.get("rank_budget", 3)
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise InputError("proxy config: rank_budget must be an integer")
    algebra = obj.get("algebra", "h3")
    if not isinstance(algebra, str):
        raise InputError("proxy config: algebra must be a fixture name")
    seed = obj.get("seed", 0)
    if args.seed is not None:
        seed = args.seed
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InputError("proxy config: seed must be an integer")
    backend = args.backend or obj.get("backend") or EXACT
    if backend not in (EXACT, FLOAT):
        raise InputError(f"proxy config: unknown backend {backend!r}")
    return lab.ExperimentConfig(
        algebra=algebra,
        schedule=tuple(schedule),
        rank_budget=budget,
        seed=seed,
        backend=backend,
    )


def cmd_lab_proxy(args) -> Tuple[int, object]:
    obj = _load_json(args.config) if args.config else {}
    config = _proxy_config(obj, args)
    try:
        rows = lab.finite_rank_proxy(config)
    except ValueError as e:
        raise InputError(str(e)) from None
    if args.format == "json":
        return 0, {"rows": [asdict(r) for r in rows]}
    return 0, lab.proxy_csv(rows, include_timing=True)


def cmd_lab_suite(args) -> Tuple[int, dict]:
    seeds = args.seeds
    if seeds < 0:
        raise InputError("--seeds must be nonnegative")
    summary = lab.run_property_suite(seeds, backend=_backend(args))
    payload = {
        "instances": summary.instances,
        "checks": summary.checks,
        "ok": summary.ok,
        "failures": [asdict(f) for f in summary.failures],
    }
    return (0 if summary.ok else 1), payload


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process; parse_args leaves the parser unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--backend", choices=(EXACT, FLOAT), default=None, help="arithmetic backend"
    )
    common.add_argument("--format", choices=("json", "table"), default=None)
    common.add_argument("--seed", type=int, default=None)

    withrep = argparse.ArgumentParser(add_help=False)
    withrep.add_argument("input", nargs="?", help="representation JSON file")
    withrep.add_argument("--fixture", help="catalog fixture name instead of a file")
    withrep.add_argument(
        "--tol", type=float, default=None, help="rank tolerance (float backend only)"
    )

    parser = argparse.ArgumentParser(
        prog="liespec",
        description="Joint spectra of Lie algebra representations via Koszul homology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, rep_input: bool = True):
        parents = [common, withrep] if rep_input else [common]
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.set_defaults(handler=handler)
        return p

    add("validate", cmd_validate, "check bracket and homomorphism identities")
    add("info", cmd_info, "structural facts about the algebra")

    p = add("koszul", cmd_koszul, "dimensions, ranks, and homology of the complex")
    p.add_argument("--shift", help="character coordinates, e.g. '1,0,0'")

    p = add("spectrum", cmd_spectrum, "members of one spectrum kind")
    p.add_argument("--kind", default="taylor", help="taylor, split, delta:K, pi:K, ...")
    p.add_argument(
        "--route",
        choices=("homology", "eigenchar"),
        default="homology",
        help="computation route",
    )
    p.add_argument(
        "--override-nilpotency",
        action="store_true",
        help="force the eigencharacter route on a non-nilpotent algebra",
    )

    add("eigenchars", cmd_eigenchars, "joint eigencharacters with witnesses")
    add("crossval", cmd_crossval, "compare the homology and eigencharacter routes")

    p = add("project", cmd_project, "spectrum projection onto an ideal")
    p.add_argument("--chain", type=int, help="index into the invariant chain")
    p.add_argument("--ideal", help="semicolon-separated basis vectors")
    p.add_argument("--kind", default="taylor")

    add("report", cmd_report, "full dossier: structure, spectra, crossval, projections")

    lab_p = sub.add_parser("lab", help="experiment harness")
    lab_sub = lab_p.add_subparsers(dest="lab_command", required=True)

    p = lab_sub.add_parser("proxy", parents=[common], help="finite-rank proxy table")
    p.add_argument("--config", help="experiment config JSON file")
    p.set_defaults(handler=cmd_lab_proxy, default_format="table")

    p = lab_sub.add_parser("suite", parents=[common], help="randomized property suite")
    p.add_argument("--seeds", type=int, default=25, help="number of random instances")
    p.set_defaults(handler=cmd_lab_suite)

    return parser


def _tol_joined(argv: Sequence[str]) -> List[str]:
    """argv with each "--tol VALUE" whose value parses as a float written as
    "--tol=VALUE": argparse would take a value such as -1e-6 for an option."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1] == "--tol":
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] = "--tol=" + arg
                continue
        out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_tol_joined(sys.argv[1:] if argv is None else argv))
    tol = getattr(args, "tol", None)  # the lab subcommands take no --tol
    if tol is not None and (args.backend or EXACT) != FLOAT:
        print("error: --tol applies only to --backend float", file=sys.stderr)
        return 2
    if tol is not None and not 0 < tol < math.inf:
        print("error: --tol must be a positive finite number", file=sys.stderr)
        return 2
    if args.seed is not None and args.handler is not cmd_lab_proxy:
        print("error: --seed applies only to lab proxy", file=sys.stderr)
        return 2
    try:
        code, payload = args.handler(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(_render(payload, args))
    return code


if __name__ == "__main__":
    sys.exit(main())
