"""Digest of the liespec CLI's output over a fixed sweep of inputs.

Usage: PYTHONPATH=src python tools/cli_digest.py

Runs `liespec.cli.main` in process, on both backends, over
  * the five catalog fixtures: report, report --format table, crossval,
    eigenchars, spectrum, spectrum --kind pi:1, koszul, info,
    project --chain 1, validate, spectrum --route eigenchar
    --override-nilpotency, koszul --shift with two nonzero characters each,
    spectrum --kind K for every K in spectra.all_kinds(n), and
    project --chain 1 --kind K for every such K that is not essential;
  * 48 seeded files of lab.random_nilpotent_rep (H3, A1 and Z3 with
    m in {5, 7}, F4 with m in {6, 8}, seeds 0-5), written to a temporary
    directory: report, crossval, eigenchars, spectrum --kind pi:1 and
    project --chain 1;
  * lab suite --seeds 25.
and prints one line per run: the exit code, the SHA-256 of stdout, the
SHA-256 of stderr, and argv with temporary paths cut to their basenames.
Two trees whose digests print the same lines give the same CLI output on
this sweep.  lab proxy is left out: its elapsed_ms column changes from run
to run.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from liespec import cli, lab, spectra
from liespec.representation import rep_to_json

FIXTURE_COMMANDS = (
    ["report"], ["report", "--format", "table"], ["crossval"], ["eigenchars"], ["spectrum"],
    ["spectrum", "--kind", "pi:1"], ["koszul"], ["info"], ["project", "--chain", "1"], ["validate"],
    ["spectrum", "--route", "eigenchar", "--override-nilpotency"],
)
# two nonzero characters per fixture: each vanishes on [L, L]
SHIFTS = {
    "A1": ("1", "-2"),
    "H3": ("1,2,0", "-1,3,0"),
    "S2": ("1,0", "2,0"),
    "Z3": ("1,2,0", "-1,3,0"),
    "F4": ("1,2,0,0", "-1,1,0,0"),
}
SEEDED_COMMANDS = (
    ["report"], ["crossval"], ["eigenchars"], ["spectrum", "--kind", "pi:1"], ["project", "--chain", "1"],
)
SEEDED_SIZES = (("H3", (5, 7)), ("A1", (5, 7)), ("Z3", (5, 7)), ("F4", (6, 8)))
BACKENDS = ("exact", "float")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse refusals
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _argvs(tmp):
    for backend in BACKENDS:
        for name, shifts in SHIFTS.items():
            for command in FIXTURE_COMMANDS:
                yield command + ["--fixture", name, "--backend", backend]
            for f in shifts:
                yield ["koszul", "--fixture", name, "--shift=" + f, "--backend", backend]
            for kind in spectra.all_kinds(lab.fixture(name, backend).rep.algebra.n):
                yield ["spectrum", "--fixture", name, "--kind", kind.render(), "--backend", backend]
                if not kind.essential:
                    yield ["project", "--fixture", name, "--chain", "1", "--kind", kind.render(),
                           "--backend", backend]
    paths = []
    for base, sizes in SEEDED_SIZES:
        for m in sizes:
            for seed in range(6):
                path = os.path.join(tmp, f"{base}_m{m}_s{seed}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(rep_to_json(lab.random_nilpotent_rep(seed, base, m)), fh)
                paths.append(path)
    for backend in BACKENDS:
        for path in paths:
            for command in SEEDED_COMMANDS:
                yield command + [path, "--backend", backend]
    for backend in BACKENDS:
        yield ["lab", "suite", "--seeds", "25", "--backend", backend]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for argv in _argvs(tmp):
            code, out, err = _run(argv)
            shown = [os.path.basename(a) if a.startswith(tmp) else a for a in argv]
            print(code, hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest(),
                  " ".join(shown), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
