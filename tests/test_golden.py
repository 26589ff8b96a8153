"""Golden snapshots: every subcommand on every bundled fixture, byte for byte.

The latpow inputs under `tests/golden/latpow/` stand in for fixtures: the
README's two input forms, an obstruction, a prime-power and a two-prime
modulus, a certificate with k >= 10,000, an orbit that returns, and a
certificate too wide to print (exit 2).  The algebras under
`tests/golden/algebras/` cover what the bundled fixtures do not: two
Jacobi violators (one failing first on triple (1,2,3), one later with a
fractional residual), two non-nilpotent algebras (sl2 and one whose lower
central series stabilizes at dimension 2) and two ladder algebras in a
rescaled basis (L_10 and N_3,2, with fractional structure constants), and
the abelian A_2, A_4 and A_8 that carry companion maps.
The maps under `tests/golden/maps/` (`<algebra>__<map>.json`, the algebra
a fixture name or a file under `tests/golden/algebras/`) cover `norm` on
what the bundled maps do not: non-semisimple maps (an expanding
automorphism and a self-cover), a self-cover whose characteristic
polynomial is one irreducible quadratic, a unit-determinant map that
yields no grading, an expanding map with two quadratic factors, and two
degree-8 companions that only a complete factorization over Q settles:
X^8 + 2 (irreducible, expanding) and (X^4 - 10X^2 + 1)(X^4 + 1), whose
quartics split into linear and quadratic factors modulo every prime; and
two maps that `norm` rejects: a singular one and a non-automorphism.
The gradings under `tests/golden/gradings/` (`<fixture>__<name>.json`) are
certificates replayed by `expand --certificate` and `cohopf --certificate`.
Both reject two that are not direct sums (a dependent column, a dropped
column), one that is not homogeneous, and one whose two failing bracket
pairs are reported in weight order, not in column order.  Both accept a
positive weight system and a positive grading that is not basis-aligned
(heisenberg3 moved by exp(ad X_1)); a non-negative grading is accepted by
`cohopf` only.
The holonomy groups under `tests/golden/holonomy/` have more than one
generator: order3 + swap (order 6) and order3 + swap + sign (order 12).
Under them and the three bundled groups, `expand` and `cohopf` replay four
certificates on heisenberg3: the commuting diag(2, 2, 4); diag(2, 3, 6),
which commutes with sign only; the grading with weights (1, 1, 2), which
every group preserves; and weights (1, 2, 3), which only sign preserves.
A rejection names the first holonomy element that fails.

`tests/golden/cli.json` holds the exit code and stdout of each invocation
below, recorded once.  A refactor that changes any verdict, certificate or
diagnostic shows up here as a byte difference.  The snapshot is also read
as a law: every grading, weight system and map that a `grade`, `expand`
or `cohopf` accept carries replays through `holonomy.check_criterion`.
Paths are stored relative to the repository root so the file does not
depend on where it is checked out.

Re-record (only when an output change is intended and reviewed):

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from nilgrade.cli import _load_algebra, _load_holonomy, build_parser, main
from nilgrade.fixtures import ALL_FIXTURES, FIXTURE_MAPS, HOLONOMY_FIXTURES
from nilgrade.grading import grading_from_weights
from nilgrade.holonomy import check_criterion
from nilgrade.serialize import grading_from_dict, matrix_from_lists, weights_from_dict

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
MAPS_DIR = "src/nilgrade/fixtures/maps"
LATPOW_DIR = "tests/golden/latpow"
ALGEBRAS_DIR = "tests/golden/algebras"
GOLDEN_MAPS_DIR = "tests/golden/maps"
GOLDEN_GRADINGS_DIR = "tests/golden/gradings"
GOLDEN_HOLONOMY_DIR = "tests/golden/holonomy"
HOLONOMY_CERTIFICATES = (
    f"{MAPS_DIR}/heisenberg3__diag224.json",
    f"{MAPS_DIR}/heisenberg3__diag236.json",
    f"{GOLDEN_GRADINGS_DIR}/heisenberg3__symmetric.json",
    f"{GOLDEN_GRADINGS_DIR}/heisenberg3__positive-weights.json",
)
LADDER = ("l10-rescaled", "n32-rescaled")


def invocations() -> list[list[str]]:
    out = []
    for name in ALL_FIXTURES:
        out += [
            ["check", name],
            ["grade", name],
            ["grade", name, "--mode", "nonneg"],
            ["expand", name, "--prime", "2"],
            ["expand", name, "--prime", "3"],
            ["cohopf", name],
        ]
    for hol in HOLONOMY_FIXTURES:
        out += [
            ["expand", "heisenberg3", "--holonomy", hol],
            ["cohopf", "heisenberg3", "--holonomy", hol],
        ]
    for alg, maps in FIXTURE_MAPS.items():
        for m in maps:
            path = f"{MAPS_DIR}/{alg}__{m}.json"
            out += [
                ["norm", alg, path],
                ["expand", alg, "--certificate", path],
                ["cohopf", alg, "--certificate", path],
            ]
    for path in sorted((ROOT / LATPOW_DIR).glob("*.json")):
        argv = ["latpow", f"{LATPOW_DIR}/{path.name}"]
        out.append(argv + ["--bound", "64"] if path.stem == "readme-lattice" else argv)
    for path in sorted((ROOT / ALGEBRAS_DIR).glob("*.json")):
        rel = f"{ALGEBRAS_DIR}/{path.name}"
        out.append(["check", rel])
        if path.stem in LADDER:
            out.append(["expand", rel, "--prime", "2"])
    for path in sorted((ROOT / GOLDEN_MAPS_DIR).glob("*.json")):
        alg = path.stem.split("__")[0]
        alg = alg if alg in ALL_FIXTURES else f"{ALGEBRAS_DIR}/{alg}.json"
        out.append(["norm", alg, f"{GOLDEN_MAPS_DIR}/{path.name}"])
    for path in sorted((ROOT / GOLDEN_GRADINGS_DIR).glob("*.json")):
        alg = path.stem.split("__")[0]
        rel = f"{GOLDEN_GRADINGS_DIR}/{path.name}"
        out += [["expand", alg, "--certificate", rel], ["cohopf", alg, "--certificate", rel]]
    groups = list(HOLONOMY_FIXTURES) + [f"{GOLDEN_HOLONOMY_DIR}/{p.name}" for p in sorted((ROOT / GOLDEN_HOLONOMY_DIR).glob("*.json"))]
    for hol in groups:
        for cert in HOLONOMY_CERTIFICATES:
            out += [[cmd, "heisenberg3", "--holonomy", hol, "--certificate", cert] for cmd in ("expand", "cohopf")]
    return out


def resolved(argv: list[str]) -> list[str]:
    """argv with its repo-relative paths made absolute."""
    return [str(ROOT / a) if a.startswith((MAPS_DIR, LATPOW_DIR, ALGEBRAS_DIR, GOLDEN_MAPS_DIR, GOLDEN_GRADINGS_DIR, GOLDEN_HOLONOMY_DIR)) else a for a in argv]


def run(argv: list[str]) -> dict:
    """Exit code and stdout, with repo-relative paths resolved."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(resolved(argv))
    return {"argv": argv, "exit": code, "stdout": buf.getvalue()}


def _recorded() -> dict:
    with open(GOLDEN) as fh:
        return {" ".join(r["argv"]): r for r in json.load(fh)}


def test_snapshot_covers_every_invocation():
    assert sorted(_recorded()) == sorted(" ".join(a) for a in invocations())


@pytest.mark.parametrize("argv", invocations(), ids=" ".join)
def test_output_matches_snapshot(argv):
    want = _recorded()[" ".join(argv)]
    assert run(argv) == want


def test_no_verdict_needs_the_pure_python_encoder(monkeypatch):
    """Every snapshot prints through `json`'s C encoder: with the
    pure-Python one refused, each stdout stays byte-identical."""

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    recorded = _recorded()
    for argv in invocations():
        assert run(argv) == recorded[" ".join(argv)], argv


# the exit-0 conditions with no replay path yet, and how many snapshots carry each
REPLAY_FREE = {"valid-nilpotent-lie-algebra": 15, "norm-profile": 12, "lattice-power": 4, "orbit-escapes": 1}


def test_every_criterion_accept_replays():
    """Each `grade`, `expand` and `cohopf` accept replays every grading,
    weight system and map it carries through `check_criterion`, with the
    matching `positive` and the same holonomy; every other exit-0
    condition is one of REPLAY_FREE."""
    unreplayed = Counter()
    replayed = 0
    for record in json.loads(GOLDEN.read_text()):
        if record["exit"]:
            continue
        args = build_parser().parse_args(resolved(record["argv"]))
        v = json.loads(record["stdout"])
        if args.command not in ("grade", "expand", "cohopf"):
            unreplayed[v["condition"]] += 1
            continue
        positive = args.command == "expand" or getattr(args, "mode", None) == "positive"
        algebra = _load_algebra(args.algebra)
        group = _load_holonomy(getattr(args, "holonomy", None), algebra)
        cert = v["certificate"]
        witnesses = [("cond-2", grading_from_dict(cert))] if "components" in cert else []
        if "grading" in cert:
            witnesses.append(("cond-2", grading_from_dict(cert["grading"])))
        if "weights" in cert:
            witnesses.append(("cond-2", grading_from_weights(algebra, weights_from_dict(cert))))
        witnesses += [("cond-3", matrix_from_lists(cert[key])) for key in ("phi_p", "matrix") if key in cert]
        assert witnesses, record["argv"]
        for cond, witness in witnesses:
            r = check_criterion(algebra, group, witness, positive)
            assert (r.decision, r.condition) == ("accept", f"{'expinfra' if positive else 'covinfra'}-{cond}"), record["argv"]
            replayed += 1
    assert unreplayed == REPLAY_FREE
    assert replayed == 170


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = [run(argv) for argv in invocations()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"recorded {len(records)} invocations in {GOLDEN.relative_to(ROOT)}")
