"""Answer checks, run outside the timed region.

Three kinds of check:

- the recorded decision table (`decisions.json`): an accept/reject flip,
  or a flip of `check`'s characteristic-nilpotency flag, is a wrong
  answer.  A move between decided and undecided is not.  Where the input
  forces the answer by construction (`facts["expect"]`: ladder searches,
  map and grading classes, coprime lattice pairs, orbits), any other
  decided answer is wrong too, also where the table recorded a failure;
- certificate replay: every accept certificate goes back through the
  matching CLI check (`expand --certificate` for positive gradings,
  `cohopf --certificate` for non-negative ones), and the benchmark's own
  arithmetic checks weights, `phi_p`, determinants and nilpotency class;
- lattice powers: k makes P^-1 A^k P integral and k/q does not for each
  prime q | k, which proves k minimal because the valid k form a
  subgroup of Z; orbit answers are recomputed exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import inputs as I

DECISIONS = Path(__file__).with_name("decisions.json")
FLIPS = ({"accept", "reject"}, {"cn=true", "cn=false"})
UNDECIDED = {"unknown", "cn=null"}
# the grading `norm` must extract, by the class of the generated map
NORM_CLASSIFICATION = {
    "expanding": "positive",
    "kronecker-deg8": "positive",
    "selfcover": "nonnegative-nontrivial",
    "selfcover-unit-factor": "nonnegative-nontrivial",
    "selfcover-no-unit-factor": "nonnegative-nontrivial",
    "unit-det": None,
}


def answer(argv: list[str], verdict: dict) -> str:
    """The decision a query reports; `check` reports its nilpotency flag."""
    if argv[0] == "check" and verdict["decision"] == "accept":
        return "cn=" + json.dumps(verdict["certificate"]["characteristically_nilpotent"])
    return verdict["decision"]


def load_decisions() -> dict[str, str]:
    return json.loads(DECISIONS.read_text())


def is_flip(recorded: str | None, seen: str) -> bool:
    return recorded is not None and recorded != seen and any({recorded, seen} == f for f in FLIPS)


class Checker:
    """Checks one pass's verdicts; `replay(argv)` runs the CLI untimed."""

    def __init__(self, replay, decisions: dict[str, str], work):
        self.replay = replay
        self.decisions = decisions
        self.work = work
        self._replayed: dict[tuple, str] = {}

    def problems(self, query, verdict: dict) -> list[str]:
        out = []
        seen = answer(query.argv, verdict)
        if is_flip(self.decisions.get(query.label), seen):
            out.append(f"decision {seen}, recorded {self.decisions[query.label]}")
        expected = query.facts.get("expect")
        if expected and seen not in UNDECIDED and seen != expected:
            out.append(f"decision {seen}, the input forces {expected}")
        if verdict["decision"] == "accept" or query.argv[0] == "latpow":
            try:
                out.extend(self._certificate(query, verdict))
            except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
                out.append(f"malformed certificate: {exc!r}")
        return out

    # -- certificates ---------------------------------------------------------

    def _certificate(self, query, verdict: dict) -> list[str]:
        argv, cert, facts = query.argv, verdict["certificate"], query.facts
        cmd = argv[0]
        certificate_mode = "--certificate" in argv
        if cmd == "check":
            if "class" in facts and cert["nilpotency_class"] != facts["class"]:
                return [f"nilpotency class {cert['nilpotency_class']}, expected {facts['class']}"]
            return []
        if cmd == "latpow":
            return self._latpow(facts, verdict)
        if cmd == "norm":
            label = cert.get("classification")
            expected = NORM_CLASSIFICATION.get(facts.get("map"), label)
            if label != expected:
                return [f"norm classification {label}, expected {expected}"]
            if label is None:
                return []
            return self._replay_grading(argv[1], cert["grading"], label == "positive", [])
        if certificate_mode:
            return []  # the query is itself the replay of a given certificate
        positive = cmd == "expand" or (cmd == "grade" and "nonneg" not in argv)
        holonomy = argv[argv.index("--holonomy") : argv.index("--holonomy") + 2] if "--holonomy" in argv else []
        out = self._weights(argv[1], cert["weights"], positive)
        if cmd in ("expand", "cohopf"):
            p = cert["prime"]
            w = cert["weights"]
            if cert["phi_p"] != I.matrix_json(I.phi_p(w, p)):
                out.append("phi_p is not diag(p^w)")
            if Fraction(cert["det"]) != Fraction(p) ** sum(w):
                out.append(f"det(phi_p) = {cert['det']} is not {p}^{sum(w)}")
        out.extend(self._replay_grading(argv[1], cert["grading"], positive, holonomy))
        return out

    def _weights(self, algebra_arg: str, weights: list[int], positive: bool) -> list[str]:
        algebra = self._algebra(algebra_arg)
        for (i, j), terms in algebra.table.items():
            if any(weights[i] + weights[j] != weights[k] for k in terms):
                return [f"weights break w_{i+1} + w_{j+1} = w_k"]
        if positive and min(weights) < 1:
            return ["weights are not positive"]
        if min(weights) < 0 or max(weights) < 1:
            return ["weights are not non-negative and non-trivial"]
        return []

    def _replay_grading(self, algebra_arg, grading, positive: bool, holonomy) -> list[str]:
        cmd = "expand" if positive else "cohopf"
        key = (cmd, algebra_arg, json.dumps(grading, sort_keys=True), tuple(holonomy))
        if key not in self._replayed:
            path = self.work.put("replay", {"grading": grading})
            verdict = self.replay([cmd, algebra_arg, "--certificate", path] + list(holonomy))
            self._replayed[key] = verdict["decision"] if verdict else "failed"
        got = self._replayed[key]
        return [] if got == "accept" else [f"certificate does not replay through {cmd}: {got}"]

    def _algebra(self, arg: str) -> I.Algebra:
        path = Path(arg)
        if not path.exists():
            path = Path("src/nilgrade/fixtures") / f"{arg}.json"
        return I.algebra_from_json(json.loads(path.read_text()))

    # -- lattice powers ----------------------------------------------------------

    def _latpow(self, facts: dict, verdict: dict) -> list[str]:
        cert = verdict["certificate"]
        if "orbit" in facts:
            a, v, bound = facts["orbit"]
            integral = []
            x = v
            for k in range(1, bound + 1):
                x = I.matvec(a, x)
                if all(e.denominator == 1 for e in x):
                    integral.append(k)
            if cert["integral_k"] != integral:
                return [f"orbit integral at {cert['integral_k'][:5]}..., expected {integral[:5]}..."]
            return []
        pair = facts["pair"]
        if verdict["decision"] == "reject":
            p = cert["prime"]
            if pair.det % p or pair.modulus % p:
                return [f"{p} is not an obstruction prime"]
            return []
        k = cert["k"]
        if cert["modulus"] != pair.modulus:
            return [f"modulus {cert['modulus']}, expected {pair.modulus}"]
        if not pair.maps_into(k):
            return [f"A^{k} does not map L into L"]
        for q in I.factor_int(k):
            if pair.maps_into(k // q):
                return [f"k = {k} is not minimal: k/{q} works"]
        order = cert["order_bound"]
        if order % k or not I.is_identity_mod(I.mat_pow_mod(I.int_matrix(pair.a), order, pair.modulus), pair.modulus):
            return [f"order_bound {order} is not an order of A mod {pair.modulus}"]
        if cert["conjugated_power"] != I.matrix_json(pair.conjugated_power):
            return ["conjugated_power is not P^-1 A^k P"]
        return []

