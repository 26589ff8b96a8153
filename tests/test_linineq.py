"""The weight solver against a brute-force box enumeration.

`enumerate_integer_points` is the reference: it lists every integer point
of a box that satisfies the equations (sparse rows {variable:
coefficient}, each meaning sum(c * x) = 0), so the canonical point (minimal
max coordinate, then lexicographically smallest, max >= 1) can be read
off directly on small inputs.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nilgrade.fixtures import ALL_FIXTURES, HOLONOMY_FIXTURES, load_algebra, load_holonomy
from nilgrade.grading import find_weights, weight_equations
from nilgrade.holonomy import close_group
from nilgrade.intutil import cleared
from nilgrade.liealg import LieAlgebra
from nilgrade.linineq import _dependents, _substituted, feasible, solve
from nilgrade.serialize import holonomy_payload
from oracles import feasible_fraction, group_elements, substituted_fraction


def enumerate_integer_points(eqs, lows, highs):
    """All integer points of box [lows, highs] satisfying the equations.

    Prunes on the first violated fully-assigned equation.
    """
    nvars = len(lows)
    checks_at = [[] for _ in range(nvars)]
    for row in eqs:
        checks_at[max(row, default=0)].append(row)
    vals = []
    out = []

    def rec(depth):
        if depth == nvars:
            out.append(tuple(vals))
            return
        for v in range(lows[depth], highs[depth] + 1):
            vals.append(v)
            if all(sum(c * vals[i] for i, c in row.items()) == 0 for row in checks_at[depth]):
                rec(depth + 1)
            vals.pop()

    rec(0)
    return out


def oracle(eqs, lows, high):
    """Canonical point of the box [lows, high], or None if it has none."""
    points = [p for p in enumerate_integer_points(eqs, lows, [high] * len(lows)) if max(p) >= 1]
    return min(points, key=lambda p: (max(p), p), default=None)


def check_against_oracle(eqs, lows, high=6):
    got = solve(eqs, [], lows)
    if got is None:
        assert oracle(eqs, lows, high) is None
    else:
        assert oracle(eqs, lows, max(got)) == got


# -- small algebras ------------------------------------------------------------


def algebra(dim, brackets):
    """Lie algebra from {(i, j): k} with [X_i, X_j] = X_k, 1-indexed."""
    table = {}
    for (i, j), k in brackets.items():
        vec = [0] * dim
        vec[k - 1] = 1
        table[(i - 1, j - 1)] = vec
    return LieAlgebra(dim, table)


def filiform(n):
    return algebra(n, {(1, i): i + 1 for i in range(2, n)})


def heisenberg(m):
    return algebra(2 * m + 1, {(2 * i - 1, 2 * i): 2 * m + 1 for i in range(1, m + 1)})


def free_nilpotent_class2(r):
    pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    return algebra(r + len(pairs), {p: r + 1 + k for k, p in enumerate(pairs)})


LADDER = {
    "L4": filiform(4),
    "L6": filiform(6),
    "L8": filiform(8),
    "H5": heisenberg(2),
    "H7": heisenberg(3),
    "N2,2": free_nilpotent_class2(2),
    "N3,2": free_nilpotent_class2(3),
    "N4,2": free_nilpotent_class2(4),
    # Hall basis: X3 = [X1, X2], X4 = [X1, X3], X5 = [X2, X3], ...
    "N2,3": algebra(5, {(1, 2): 3, (1, 3): 4, (2, 3): 5}),
    "N2,4": algebra(8, {(1, 2): 3, (1, 3): 4, (2, 3): 5, (1, 4): 6, (2, 4): 7, (1, 5): 7, (2, 5): 8}),
}
CASES = {**{name: load_algebra(name) for name in ALL_FIXTURES}, **LADDER}


def orbit_equalities(pairs):
    return [{a: 1, b: -1} for a, b in pairs]


@pytest.mark.parametrize("low", [1, 0], ids=["positive", "nonneg"])
@pytest.mark.parametrize("name", list(CASES))
def test_weights_match_brute_force(name, low):
    alg = CASES[name]
    check_against_oracle(weight_equations(alg), [low] * alg.dim)


@pytest.mark.parametrize("low", [1, 0], ids=["positive", "nonneg"])
@pytest.mark.parametrize("name", list(CASES))
def test_weights_with_equalities_match_brute_force(name, low):
    # equalities as a holonomy orbit {X_1, X_2} (and {X_3, X_n}) would add
    alg = CASES[name]
    n = alg.dim
    eqs = weight_equations(alg) + orbit_equalities([(0, 1), (2, n - 1)])
    check_against_oracle(eqs, [low] * n)


GOLDEN_HOLONOMY = Path(__file__).resolve().parent / "golden" / "holonomy"
HOLONOMY_GROUPS = list(HOLONOMY_FIXTURES) + [p.stem for p in sorted(GOLDEN_HOLONOMY.glob("*.json"))]


def holonomy_group(name):
    if name in HOLONOMY_FIXTURES:
        return load_holonomy(name)
    return close_group(*holonomy_payload(json.loads((GOLDEN_HOLONOMY / f"{name}.json").read_text())))


@pytest.mark.parametrize("positive", [True, False], ids=["positive", "nonneg-nontrivial"])
@pytest.mark.parametrize("hol", HOLONOMY_GROUPS)
def test_fixture_holonomy_matches_brute_force(hol, positive):
    alg = load_algebra("heisenberg3")
    group = holonomy_group(hol)
    pairs = [(i, j) for f in group_elements(group.generators) for i in range(3) for j in range(3) if i != j and f[i, j]]
    want = oracle(weight_equations(alg) + orbit_equalities(pairs), [int(positive)] * 3, 6)
    assert find_weights(alg, positive, group.generators) == want


def test_characteristically_nilpotent_has_no_weights():
    nilp5 = load_algebra("nilp5")
    assert find_weights(nilp5, positive=True) is None
    assert find_weights(nilp5, positive=False) is None
    assert oracle(weight_equations(nilp5), [0] * 7, 6) is None


def test_filiform_weights():
    assert find_weights(filiform(20), positive=True) == (1, 1) + tuple(range(2, 20))


def test_filiform_past_max_weight_64():
    assert find_weights(filiform(66), positive=True) == (1, 1) + tuple(range(2, 66))


# -- systems built by hand -----------------------------------------------------


def row(*coeffs):
    return {i: c for i, c in enumerate(coeffs) if c}


def test_large_ratio():
    # w_2 = 65 w_1: the canonical point lies in shell 65
    assert solve([row(65, -1)], [], [1, 1]) == (1, 65)


def test_fractional_dependence():
    # 2 w_2 = 3 w_1: w_2 = 3/2 w_1 is integral for even w_1 only
    assert solve([row(3, -2)], [], [1, 1]) == (2, 3)
    # 2 w_3 = w_1 + w_2: (0, 1) and (1, 0) leave w_3 = 1/2
    assert solve([row(1, 1, -2)], [], [0, 0, 0]) == (1, 1, 1)


def test_inequalities_checked():
    # strictly increasing weights, as the norm-class re-weighting asks
    ineqs = [(row(-1, 1, 0), 1), (row(0, -1, 1), 1)]
    assert solve([], ineqs, [1, 1, 1]) == (1, 2, 3)


def test_infeasible_systems():
    # w_1 = 0 against w_1 >= 1
    assert solve([row(0, 1)], [], [1, 1]) is None
    # only the zero vector is non-negative
    assert solve([row(1, 1)], [], [0, 0]) is None
    # w_2 >= w_1 + 1 and w_1 >= w_2 + 1
    assert solve([], [(row(-1, 1), 1), (row(1, -1), 1)], [0, 0]) is None


def random_constraints(rng, nvars):
    """A few dense inequalities with small int and Fraction entries, about
    half of them infeasible together."""
    entries = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    return [
        (tuple(rng.choice(entries) for _ in range(nvars)), rng.choice([0, 1, -1, Fraction(1, 3)]))
        for _ in range(rng.randint(1, 6))
    ]


def int_multiple(coeffs, rhs):
    """The least positive int multiple of a rational inequality: its
    coefficients, in the order given, and its rhs."""
    ints, _ = cleared([*coeffs, rhs])
    return tuple(ints[:-1]), ints[-1]


def test_integer_fourier_motzkin_matches_the_fraction_rows():
    rng = random.Random(1827)
    verdicts = []
    for _ in range(300):
        nvars = rng.randint(1, 4)
        ineqs = random_constraints(rng, nvars)
        want = feasible_fraction(ineqs, nvars)
        assert feasible([int_multiple(*q) for q in ineqs], nvars) == want
        # positive multiples of a row are one row; the decision does not move
        scaled = [(tuple(c * k for c in row), rhs * k) for (row, rhs), k in zip(ineqs, itertools.cycle([3, Fraction(2, 5)]))]
        assert feasible([int_multiple(*q) for q in ineqs + scaled], nvars) == want
        verdicts.append(want)
    assert 50 <= sum(verdicts) <= 250


# the equation systems above, with their number of variables: weight
# equations, with and without orbit equalities, and the systems built by hand
SYSTEMS = {
    **{name: (weight_equations(alg), alg.dim) for name, alg in CASES.items()},
    **{f"{name} orbits": (weight_equations(alg) + orbit_equalities([(0, 1), (2, alg.dim - 1)]), alg.dim) for name, alg in CASES.items()},
    "65 w_1 = w_2": ([row(65, -1)], 2),
    "3 w_1 = 2 w_2": ([row(3, -2)], 2),
    "w_1 + w_2 = 2 w_3": ([row(1, 1, -2)], 3),
    "w_2 = 0": ([row(0, 1)], 2),
    "w_1 = -w_2": ([row(1, 1)], 2),
}


@settings(max_examples=150)
@given(
    name=st.sampled_from(sorted(SYSTEMS)),
    low=st.integers(0, 1),
    extra=st.lists(
        st.tuples(
            st.dictionaries(st.integers(0, 9), st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]), max_size=3),
            st.sampled_from([0, 1, 2, Fraction(1, 3)]),
        ),
        max_size=2,
    ),
)
def test_substituted_int_rows_are_the_fraction_rows_scaled(name, low, extra):
    """`solve`'s bounds and extra inequalities (drawn rational, posed by
    their int multiples), substituted: each int row is a positive
    multiple of the Fraction row, and Fourier-Motzkin decides the int
    rows as it decides the Fraction rows."""
    eqs, nvars = SYSTEMS[name]
    dependent = _dependents(eqs, nvars)
    ineqs = [(dict.fromkeys(range(nvars), 1), 1)] + [({i: 1}, low) for i in range(nvars)]
    for r, rhs in extra:
        row = {v % nvars: c for v, c in r.items()}
        coeffs, rhs = int_multiple(row.values(), rhs)
        ineqs.append((dict(zip(row, coeffs)), rhs))
    ints = [_substituted(r, rhs, dependent, nvars) for r, rhs in ineqs]
    fracs = [substituted_fraction(r, rhs, dependent, nvars) for r, rhs in ineqs]
    for (coeffs, rhs), (want, want_rhs) in zip(ints, fracs):
        assert all(type(x) is int for x in (*coeffs, rhs))
        lead = next((x for x in (*want, want_rhs) if x), None)
        scale = 1 if lead is None else Fraction(next(x for x in (*coeffs, rhs) if x)) / lead
        assert scale > 0 and [*coeffs, rhs] == [scale * x for x in (*want, want_rhs)]
    assert feasible(ints, nvars) == feasible_fraction(fracs, nvars)


def test_precondition_enforced():
    with pytest.raises(ValueError):
        solve([], [(row(1, 0), -1)], [0, 0])
    with pytest.raises(ValueError):
        solve([], [], [-1, 0])
