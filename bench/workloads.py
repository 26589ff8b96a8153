"""The benchmark's three workloads, built from a seed.

Each workload function writes its input files into a work directory and
returns one pass: a list of `Query`.  A query's label names its input
class and size but never the seed, so one recorded decision table
(`decisions.json`) covers every seed.  The seed only changes what the program sees (basis
scalings, conjugating matrices, the inner automorphisms, the lattice
pairs); the composition of a pass is the same for every seed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

import inputs as I

FIXTURES = (
    "abelian3",
    "heisenberg3",
    "heisenberg5",
    "filiform4",
    "filiform5",
    "filiform6",
    "sixdim_class3",
    "sixdim_class4",
    "nilp5",
    "notcohopf",
)
HOLONOMY = ("heisenberg3_sign", "heisenberg3_swap", "heisenberg3_order3")
FIXTURE_MAPS = (
    ("heisenberg3", "diag224"),
    ("heisenberg3", "diag236"),
    ("heisenberg3", "diag122"),
    ("heisenberg3", "rotation"),
    ("notcohopf", "phi"),
)
SEARCHES = (
    ("check", []),
    ("grade", []),
    ("grade-nonneg", ["--mode", "nonneg"]),
    ("expand-p2", ["--prime", "2"]),
    ("expand-p3", ["--prime", "3"]),
    ("cohopf", []),
)


@dataclass
class Query:
    label: str
    argv: list[str]
    facts: dict = field(default_factory=dict)  # what the answer checks need
    weight: float = 1.0  # the query's share in the pass's metrics


class WorkDir:
    """Input files of one run, named by a running counter."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0
        root.mkdir(parents=True, exist_ok=True)

    def put(self, stem: str, data) -> str:
        self.count += 1
        path = self.root / f"{self.count:04d}-{stem}.json"
        path.write_text(json.dumps(data))
        return str(path)


ALL_SEARCHES = tuple(tag for tag, _ in SEARCHES)
# the ladder, each rung with the searches it gets.  L_14 and L_16 are the
# Schur-Cohn blow-up sizes: expand takes about 2 s on L_14 and runs past
# the per-query limit on L_16.
SEARCH_LADDER = (
    (("L", 4), ALL_SEARCHES),
    (("L", 6), ALL_SEARCHES),
    (("L", 8), ALL_SEARCHES),
    (("L", 10), ALL_SEARCHES),
    (("L", 14), ("check", "expand-p2")),
    (("L", 16), ("expand-p2",)),
    (("H", 1), ALL_SEARCHES),
    (("H", 2), ALL_SEARCHES),
    (("H", 3), ALL_SEARCHES),
    (("H", 4), ALL_SEARCHES),
    (("N", 2, 3), ALL_SEARCHES),
    (("N", 2, 4), ALL_SEARCHES),
    (("N", 3, 2), ALL_SEARCHES),
    (("N", 4, 2), ALL_SEARCHES),
)


def search_ladder(seed: int, work: WorkDir, repo: Path) -> list[Query]:
    """check / grade / grade nonneg / expand p=2,3 / cohopf on every bundled
    fixture and on the ladder (each rung in a seeded diagonal basis), and
    expand and cohopf under each holonomy fixture."""
    rng = random.Random(seed)
    out = []
    for name in FIXTURES:
        for tag, extra in SEARCHES:
            out.append(Query(f"{tag} {name}", _search_argv(tag, name, extra)))
    for hol in HOLONOMY:
        out.append(Query(f"expand-p2 heisenberg3 {hol}", ["expand", "heisenberg3", "--holonomy", hol]))
        out.append(Query(f"cohopf heisenberg3 {hol}", ["cohopf", "heisenberg3", "--holonomy", hol]))
    for spec, tags in SEARCH_LADDER:
        base = _ladder(spec)
        algebra = I.rescaled(base, I.random_scales(rng, base.dim))
        path = work.put(base.name, I.algebra_json(algebra))
        facts = {"algebra": algebra, "class": max(I.basis_weights(base))}
        for tag, extra in SEARCHES:
            if tag in tags:
                # a ladder rung is positively graded, so every search accepts
                expect = {} if tag == "check" else {"expect": "accept"}
                out.append(Query(f"{tag} {base.name}", _search_argv(tag, path, extra), {**facts, **expect}))
    return out


def _search_argv(tag: str, algebra: str, extra: list[str]) -> list[str]:
    return [tag.split("-")[0], algebra] + extra


# -- spectral-replay ---------------------------------------------------------------

REPLAYS = ("norm", "expand-cert", "cohopf-cert")
# (algebra, p, queries) for the phi_p maps.  On phi_5 of L_14 the
# Schur-Cohn chain blows up and norm runs past the per-query limit.
PHI_LADDER = (
    (("L", 6), 5, REPLAYS),
    (("L", 8), 3, REPLAYS),
    (("H", 2), 3, REPLAYS),
    (("H", 4), 5, REPLAYS),
    (("N", 2, 4), 2, REPLAYS),
    (("N", 3, 2), 5, REPLAYS),
    (("L", 14), 5, ("norm",)),
)
# (algebra, p) for phi_p . exp(ad x): x of positive weight keeps the map
# semisimple, x of weight 0 under the non-negative grading does not
EXP_LADDER = (
    (("L", 6), 2),
    (("L", 7), 3),
    (("H", 3), 2),
    (("N", 2, 3), 3),
    (("N", 3, 2), 2),
)
GRADING_LADDER = (("L", 7), ("H", 3), ("N", 2, 4), ("N", 3, 2))

# Companion maps on the abelian algebra, by class.  Each map's
# characteristic polynomial is a product of the listed factors, each given
# as [c_0, ..., c_{d-1}] for X^d + c_{d-1} X^{d-1} + ... + c_0.
COMPANIONS = {
    # every root outside the unit circle: |c_0| > 1 + sum of the other |c_i|
    "expanding": (
        ([-5, 0],),
        ([3, 1],),
        ([5, 1, 0],),
        ([7, -2, 0, 0],),
        ([3, 1], [5, 1, 0]),
        ([-11, 0, 1, 0, 0],),
        ([5, 0, 0, 1, 0, 0],),
        ([-2, 0, 0, 0, 0, 0, 0],),
    ),
    # |det| = 1: neither expanding nor a self-cover
    "unit-det": (([1, -3],), ([-1, -1],), ([-1, -1, 0],), ([1, -3], [-1, -1])),
    # |det| > 1 and a factor with |c_0| = 1: a non-negative grading exists
    "selfcover-unit-factor": (([1, -3], [-5, 0]), ([-1, -1, 0], [3, 1])),
    # |det| > 1, a root inside the circle and |c_0| > 1 for every factor:
    # the norm extraction ends in RuntimeError at the seed commit
    "selfcover-no-unit-factor": (([-2, -4],), ([-3, -5],)),
    # degree-8 irreducibles: Kronecker's search, cheap and costly values
    "kronecker-deg8": (([-2, 0, 0, 0, 0, 0, 0, 0],), ([2, 0, 0, 0, 0, 0, 0, 0],)),
}


# The decision each map class forces, by construction: an expanding map
# certifies both an expanding automorphism and a self-cover; a self-cover
# with an eigenvalue on or inside the unit circle certifies only the
# second; a unit-determinant map certifies neither.
EXPECT = {
    (cls, kind): decision
    for classes, expand, cohopf in (
        (("expanding", "kronecker-deg8"), "accept", "accept"),
        (("selfcover", "selfcover-unit-factor", "selfcover-no-unit-factor"), "reject", "accept"),
        (("unit-det",), "reject", "reject"),
    )
    for cls in classes
    for kind, decision in (("expand-cert", expand), ("cohopf-cert", cohopf))
}


def poly_product(factors) -> list[int]:
    """[c_0, ..., c_{n-1}] of the monic product of monic factors."""
    out = [1]
    for f in factors:
        g = list(f) + [1]
        prod = [0] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g):
                prod[i + j] += a * b
        out = prod
    return out[:-1]


def _ladder(spec) -> I.Algebra:
    kind = spec[0]
    if kind == "L":
        return I.filiform(spec[1])
    if kind == "H":
        return I.heisenberg(spec[1])
    return I.free_nilpotent(spec[1], spec[2])


def _poly_name(factors) -> str:
    def one(f):
        d = len(f)
        return "(x^%d%s)" % (d, "".join(f"{c:+d}x^{i}" for i, c in reversed(list(enumerate(f))) if c))

    name = "".join(one(f) for f in factors)
    return re.sub(r"([+-])1x", r"\1x", name.replace("x^1", "x").replace("x^0", ""))


def nonneg_weights(algebra: I.Algebra) -> list[int]:
    """A non-negative grading with the first generator in weight 0.

    Generators (basis vectors that are no bracket's target) get weight 1,
    except X_1 (and, for Heisenberg, every odd X_i) which get 0; weights
    then propagate along w_k = w_i + w_j.
    """
    targets = {k for terms in algebra.table.values() for k in terms}
    heis = algebra.name.startswith("H")
    w: list[int | None] = [None] * algebra.dim
    for k in range(algebra.dim):
        if k not in targets:
            w[k] = 0 if (k == 0 or (heis and k % 2 == 0)) else 1
    changed = True
    while changed:
        changed = False
        for (i, j), terms in algebra.table.items():
            if w[i] is not None and w[j] is not None:
                for k in terms:
                    if w[k] is None:
                        w[k] = w[i] + w[j]
                        changed = True
    for (i, j), terms in algebra.table.items():
        if any(w[i] + w[j] != w[k] for k in terms):
            raise ValueError(f"{algebra.name}: generator weights do not propagate")
    return w  # type: ignore[return-value]


def _unit(n: int, i: int, c=1) -> list[Fraction]:
    return [Fraction(c) if k == i else Fraction(0) for k in range(n)]


def _positive_x(rng: random.Random, weights: list[int]) -> list[Fraction]:
    """A seeded element spread over the weight-1 basis vectors."""
    return [Fraction(rng.choice((-1, 1))) if w == 1 else Fraction(0) for w in weights]


def spectral_replay(seed: int, work: WorkDir, repo: Path) -> list[Query]:
    """norm, expand --certificate and cohopf --certificate on maps with
    known spectra: fixture maps, phi_p and phi_p . exp(ad x) of ladder
    algebras, grading certificates, and companion maps on abelian algebras."""
    rng = random.Random(seed)
    out: list[Query] = []

    def replay(label: str, algebra_path: str, cert_path: str, facts: dict, kinds=REPLAYS):
        argvs = {
            "norm": ["norm", algebra_path, cert_path],
            "expand-cert": ["expand", algebra_path, "--certificate", cert_path],
            "cohopf-cert": ["cohopf", algebra_path, "--certificate", cert_path],
        }
        for kind in kinds:
            expect = EXPECT.get((facts.get("map"), kind))
            out.append(Query(f"{kind} {label}", argvs[kind], {**facts, "expect": expect} if expect else facts))

    maps_dir = repo / "src" / "nilgrade" / "fixtures" / "maps"
    for alg, name in FIXTURE_MAPS:
        replay(f"{alg} {name}", alg, str(maps_dir / f"{alg}__{name}.json"), {})

    for spec, p, kinds in PHI_LADDER:
        base = _ladder(spec)
        scales = I.random_scales(rng, base.dim)
        algebra = I.rescaled(base, scales)
        apath = work.put(base.name, I.algebra_json(algebra))
        phi = I.phi_p(I.basis_weights(base), p)
        mpath = work.put(f"{base.name}-phi{p}", I.matrix_json(phi))
        replay(f"{base.name} phi{p}", apath, mpath, {"algebra": algebra, "map": "expanding"}, kinds)

    for spec, p in EXP_LADDER:
        base = _ladder(spec)
        scales = I.random_scales(rng, base.dim)
        algebra = I.rescaled(base, scales)
        apath = work.put(base.name, I.algebra_json(algebra))
        pos = I.basis_weights(base)
        m = I.matmul(I.phi_p(pos, p), I.exp_nilpotent(I.ad(base, _positive_x(rng, pos))))
        mpath = work.put(f"{base.name}-phi{p}-exp", I.matrix_json(I.conjugate_by_scaling(m, scales)))
        replay(f"{base.name} phi{p}-exp-ad-positive", apath, mpath, {"algebra": algebra, "map": "expanding"})
        neg = nonneg_weights(base)
        x = _unit(base.dim, 0, rng.choice((-2, -1, 1, 2)))
        m = I.matmul(I.phi_p(neg, p), I.exp_nilpotent(I.ad(base, x)))
        mpath = work.put(f"{base.name}-phi{p}-exp0", I.matrix_json(I.conjugate_by_scaling(m, scales)))
        replay(f"{base.name} phi{p}-exp-ad-weight0", apath, mpath, {"algebra": algebra, "map": "selfcover"})

    for spec in GRADING_LADDER:
        base = _ladder(spec)
        scales = I.random_scales(rng, base.dim)
        algebra = I.rescaled(base, scales)
        apath = work.put(base.name, I.algebra_json(algebra))
        facts = {"algebra": algebra}
        pos = I.basis_weights(base)
        for tag, weights in (("positive", pos), ("nonneg", nonneg_weights(base))):
            cpath = work.put(f"{base.name}-{tag}", {"weights": weights})
            # a non-negative grading with a weight-0 part gives no expanding map
            expand = "accept" if tag == "positive" else "reject"
            out.append(
                Query(
                    f"expand-cert {base.name} weights-{tag}",
                    ["expand", apath, "--certificate", cpath],
                    {**facts, "expect": expand},
                )
            )
            out.append(
                Query(
                    f"cohopf-cert {base.name} weights-{tag}",
                    ["cohopf", apath, "--certificate", cpath],
                    {**facts, "expect": "accept"},
                )
            )
        # the positive grading moved by an inner automorphism: not basis-aligned
        g = I.exp_nilpotent(I.ad(base, _positive_x(rng, pos)))
        g = I.conjugate_by_scaling(g, scales)
        comps = []
        for w in sorted(set(pos)):
            cols = [[row[i] for row in g] for i in range(base.dim) if pos[i] == w]
            comps.append({"weight": w, "basis": [[str(e) for e in c] for c in cols]})
        cpath = work.put(f"{base.name}-moved", {"components": comps})
        facts = {**facts, "expect": "accept"}
        out.append(Query(f"expand-cert {base.name} grading-moved", ["expand", apath, "--certificate", cpath], facts))
        out.append(Query(f"cohopf-cert {base.name} grading-moved", ["cohopf", apath, "--certificate", cpath], facts))

    for cls, products in COMPANIONS.items():
        for factors in products:
            coeffs = poly_product(factors)
            n = len(coeffs)
            algebra = I.abelian(n)
            apath = work.put(algebra.name, I.algebra_json(algebra))
            u = I.unimodular(rng, n, 2 * n)
            m = I.matmul(I.matmul(u, I.companion(coeffs)), I.inverse(u))
            mpath = work.put(f"{algebra.name}-{cls}", I.matrix_json(m))
            replay(f"{algebra.name} {cls} {_poly_name(factors)}", apath, mpath, {"algebra": algebra, "map": cls})

    # the reported crash, verbatim: charpoly x^2 - 3x - 3 on the abelian plane
    a2 = work.put("A2", I.algebra_json(I.abelian(2)))
    crash = work.put("A2-crash", [["0", "3"], ["1", "3"]])
    replay("A2 selfcover-no-unit-factor verbatim", a2, crash, {"map": "selfcover-no-unit-factor"})
    return out


# -- latpow-scan --------------------------------------------------------------------

# A pass stands for PAIRS_PER_DIM draws of random_pair in each dimension.
# The draws fall into strata, computed from the input alone: obstruction
# (det A shares a prime with the lattice modulus), scans of at least
# LONG_SCAN steps, and shorter scans by whether the certificate can be
# printed and by scan length.  latpow_strata.json holds, per dimension,
# the scan-length edges and each stratum's share of a large reference
# sample (record_strata.py).  A pass takes max(1, round(PAIRS_PER_DIM *
# share)) pairs of each stratum, so every stratum shows up, and weights
# each by PAIRS_PER_DIM * share / count, so the weighted pass has the
# distribution's proportions.
STRATA = Path(__file__).with_name("latpow_strata.json")
PAIRS_PER_DIM = 20
LONG_SCAN = 300_000
# the finest edges; record_strata.py merges strata with few draws
EDGES = {"printable": (0, 100, 300, 1_000, 3_000, 10_000), "unprintable": (0, 100_000)}
MAX_DRAWS = 100_000
ORBIT_BOUNDS = (64, 128, 256, 512)
ORBIT_KINDS = ("escape-integral", "escape-rational", "return")
ORBIT_PRIMES = (3, 5, 7)
# one orbit query for each dimension, kind, bound and prime
ORBITS = 3 * len(ORBIT_KINDS) * len(ORBIT_BOUNDS) * len(ORBIT_PRIMES)


def pair_stratum(pair: I.LatticePair, edges=EDGES, wanted=None) -> str | None:
    """The pair's stratum; None, without computing the certificate, when
    neither stratum its scan length allows is in `wanted`."""
    if gcd(abs(pair.det), pair.modulus) != 1:
        return "obstruction"
    work = pair.scan_work
    if work >= LONG_SCAN:
        return "scan-300k+"
    names = {}
    for kind in ("printable", "unprintable"):
        lows = [e for e in edges[kind] if e <= work]
        names[kind] = f"{kind}-{lows[-1]}" if lows else kind
    if wanted is not None and not wanted & set(names.values()):
        return None
    return names["printable" if pair.printable else "unprintable"]


def stratum_plan(shares: dict[str, float]) -> dict[str, tuple[int, float]]:
    """stratum -> (pairs a pass, weight of each)."""
    plan = {}
    for name, share in sorted(shares.items()):
        count = max(1, round(PAIRS_PER_DIM * share))
        plan[name] = (count, PAIRS_PER_DIM * share / count)
    return plan


def latpow_scan(seed: int, work: WorkDir, repo: Path) -> list[Query]:
    """latpow on seeded (A, L) pairs, dim 2-4, denominators from the
    primes <= 13, drawn stratum by stratum (see STRATA), and orbit-escape
    queries.  A coprime pair must be accepted and an obstruction pair
    rejected; a long scan or an unprintable certificate is a known defect
    that makes the query fail at the seed commit."""
    rng = random.Random(seed)
    strata = json.loads(STRATA.read_text())["dims"]
    out: list[Query] = []
    for n in (2, 3, 4):
        edges, plan = strata[str(n)]["edges"], stratum_plan(strata[str(n)]["shares"])
        got: dict[str, list[I.LatticePair]] = {name: [] for name in plan}
        for _ in range(MAX_DRAWS):
            wanted = {name for name, (count, _) in plan.items() if len(got[name]) < count}
            if not wanted:
                break
            pair = I.random_pair(rng, n)
            name = pair_stratum(pair, edges, wanted)
            if name in wanted:
                got[name].append(pair)
        else:
            raise RuntimeError(f"dim {n}: strata not filled in {MAX_DRAWS} draws")
        for name, (_, weight) in plan.items():
            expect = "reject" if name == "obstruction" else "accept"
            for pair in got[name]:
                path = work.put("pair", {"A": I.matrix_json(pair.a), "lattice": I.matrix_json(pair.basis)})
                out.append(Query(f"latpow {name} d{n}", ["latpow", path], {"pair": pair, "expect": expect}, weight))

    for i in range(ORBITS):
        n = 2 + i % 3
        kind = ORBIT_KINDS[(i // 3) % 3]
        bound = ORBIT_BOUNDS[(i // 9) % len(ORBIT_BOUNDS)]
        q = ORBIT_PRIMES[i // 36]
        a, v = _orbit_input(rng, n, kind, q)
        path = work.put("orbit", {"A": I.matrix_json(a), "v": [str(e) for e in v], "bound": bound})
        facts = {"orbit": (a, v, bound), "expect": "reject" if kind == "return" else "accept"}
        out.append(Query(f"latpow orbit-{kind} d{n}", ["latpow", path], facts))
    return out


def _orbit_input(rng: random.Random, n: int, kind: str, q: int):
    """A and v whose orbit escapes Z^n for every k, or returns to it.

    A is U C U^-1 for a seeded unimodular U and a fixed C, so the orbit's
    entries grow at the same rate, and the query costs about the same, for
    every seed.  escape-integral: C upper triangular with diagonal
    (2, 1, ..., 1), so det A = 2 is prime to q, and v = w/q with w not 0
    mod q, so A^k w never vanishes mod q.  escape-rational: A = M/q with M
    the same matrix and v = w integral, so M^k w / q^k is never integral.
    return: C = qI + N with N nilpotent, so A is nilpotent mod q and
    A^n w/q is integral.
    """
    u = I.unimodular(rng, n, 2 * n)
    c = [[Fraction(int(i == j) + int(i == j == 0) + int(j == i + 1)) for j in range(n)] for i in range(n)]
    if kind == "return":
        c = [[Fraction(q * int(i == j) + int(i == j + 1)) for j in range(n)] for i in range(n)]
    a = I.matmul(I.matmul(u, c), I.inverse(u))
    w = [Fraction(rng.randint(1, q - 1))] + [Fraction(rng.randint(0, q - 1)) for _ in range(n - 1)]
    if kind == "escape-rational":
        return [[e / q for e in row] for row in a], w
    return a, [e / q for e in w]


WORKLOADS = {
    "search-ladder": search_ladder,
    "spectral-replay": spectral_replay,
    "latpow-scan": latpow_scan,
}
