import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nilgrade import matrices as mx
from nilgrade.fixtures import ALL_FIXTURES, load_algebra, load_map
from nilgrade.grading import Grading, find_nonneg_nontrivial_weights, find_positive_weights, verify_grading
from nilgrade.liealg import (
    LieAlgebra,
    abelianization,
    derivations,
    derived_subalgebra,
    induced_map,
    is_automorphism,
    is_characteristically_nilpotent,
    is_derivation,
    lower_central_series,
    nilpotency_class,
    quotient_section,
    validate,
    violated_bracket,
)
from nilgrade.specmaps import is_expanding

import oracles


def heisenberg():
    return load_algebra("heisenberg3")


def abelian(n):
    return LieAlgebra(n, {})


def sl2_like():
    # [X1,X2]=X3, [X3,X1]=2X1, [X3,X2]=-2X2 (stored with i<j and signs flipped)
    return LieAlgebra(
        3,
        {
            (0, 1): [0, 0, 1],
            (0, 2): [-2, 0, 0],
            (1, 2): [0, 2, 0],
        },
    )


class TestValidate:
    def test_abelian_accepts(self):
        v = validate(abelian(3))
        assert v.accepted()
        assert v.certificate["nilpotency_class"] == 1

    def test_nilp5_accepts_class_5(self):
        v = validate(load_algebra("nilp5"))
        assert v.accepted()
        assert v.certificate["nilpotency_class"] == 5

    def test_sl2_rejected_not_nilpotent(self):
        v = validate(sl2_like())
        assert v.decision == "reject"
        assert v.condition == "not-nilpotent"

    def test_jacobi_violation_names_triple(self):
        # [X1,X2]=X3, [X1,X3]=X4, [X2,X4]=X3: the (1,2,3) Jacobi sum is X3
        bad = LieAlgebra(
            4,
            {
                (0, 1): [0, 0, 1, 0],
                (0, 2): [0, 0, 0, 1],
                (1, 3): [0, 0, 1, 0],
            },
        )
        v = validate(bad)
        assert v.decision == "reject"
        assert v.condition == "jacobi"
        assert v.certificate["triple"] == [1, 2, 3]


class TestBracket:
    def test_heisenberg_basis_bracket(self):
        h = heisenberg()
        e1, e2 = mx.rvec([1, 0, 0]), mx.rvec([0, 1, 0])
        assert list(h.bracket(e1, e2)) == [0, 0, 1]

    def test_nilp5_e2_e5(self):
        n5 = load_algebra("nilp5")
        e2 = mx.rvec([0, 1, 0, 0, 0, 0, 0])
        e5 = mx.rvec([0, 0, 0, 0, 1, 0, 0])
        assert list(n5.bracket(e2, e5)) == [0, 0, 0, 0, 0, 1, 0]

    def test_alternating(self):
        n5 = load_algebra("nilp5")
        x = mx.rvec([1, 2, "1/2", 0, -1, 3, "2/3"])
        assert (n5.bracket(x, x) == Fraction(0)).all()

    def test_bilinear(self):
        h = heisenberg()
        x, y, z = mx.rvec([1, 2, 0]), mx.rvec([0, 1, 1]), mx.rvec([3, 0, 1])
        lhs = h.bracket(x + z, y)
        rhs = h.bracket(x, y) + h.bracket(z, y)
        assert (lhs == rhs).all()


class TestSeries:
    def test_abelian_class_1(self):
        assert nilpotency_class(abelian(3)) == 1

    def test_nilp5_class_5(self):
        assert nilpotency_class(load_algebra("nilp5")) == 5

    def test_notcohopf_class_5(self):
        # oracle: gamma_2 = <X3..X7>, gamma_3 = <X4..X7>, gamma_4 = <X6,X7>,
        # gamma_5 = <X7>, gamma_6 = 0
        n = load_algebra("notcohopf")
        series = lower_central_series(n)
        assert [s.shape[1] for s in series] == [7, 5, 4, 2, 1]
        assert nilpotency_class(n) == 5

    def test_strict_descent(self):
        for name in ("heisenberg3", "filiform6", "nilp5", "notcohopf"):
            series = lower_central_series(load_algebra(name))
            dims = [s.shape[1] for s in series]
            assert dims == sorted(dims, reverse=True)
            assert len(set(dims)) == len(dims)


class TestDerivations:
    def test_abelian_q2_full_endomorphisms(self):
        assert len(derivations(abelian(2))) == 4

    def test_heisenberg_dimension_6(self):
        ders = derivations(heisenberg())
        assert len(ders) == 6

    def test_leibniz_holds_exactly(self):
        for name in ("heisenberg3", "filiform5", "nilp5", "notcohopf"):
            algebra = load_algebra(name)
            for d in derivations(algebra):
                assert is_derivation(algebra, d)

    def test_nilp5_all_nilpotent(self):
        n5 = load_algebra("nilp5")
        for d in derivations(n5):
            assert mx.is_nilpotent(d)


class TestAutomorphisms:
    def test_identity(self):
        assert is_automorphism(heisenberg(), mx.identity(3))

    def test_notcohopf_phi(self):
        n = load_algebra("notcohopf")
        assert is_automorphism(n, load_map("notcohopf", "phi"))

    def test_uniform_scaling_fails_on_heisenberg(self):
        assert not is_automorphism(heisenberg(), mx.diag([2, 2, 2]))

    def test_singular_is_not_automorphism(self):
        assert not is_automorphism(heisenberg(), mx.zeros(3, 3))


class TestCharacteristicNilpotency:
    def test_nilp5_accepts(self):
        v = is_characteristically_nilpotent(load_algebra("nilp5"))
        assert v.accepted()

    def test_heisenberg_rejects_with_derivation_witness(self):
        h = heisenberg()
        v = is_characteristically_nilpotent(h)
        assert v.decision == "reject"
        w = mx.rmat([[Fraction(e) for e in row] for row in v.certificate["witness"]])
        assert is_derivation(h, w)
        assert not mx.is_nilpotent(w)
        # the scaling derivation diag(1,1,2) is in the solution space
        assert is_derivation(h, mx.diag([1, 1, 2]))

    def test_abelian_rejects_identity_like_witness(self):
        v = is_characteristically_nilpotent(abelian(2))
        assert v.decision == "reject"

    def test_deterministic_route_matches_fast_path(self):
        for name in ("heisenberg3", "abelian3", "filiform4"):
            algebra = load_algebra(name)
            a = is_characteristically_nilpotent(algebra, random_trials=0)
            b = is_characteristically_nilpotent(algebra, random_trials=8)
            assert a.decision == b.decision == "reject"

    def test_char_nilpotent_implies_zero_weight_space(self):
        from nilgrade.grading import weight_solution_space

        n5 = load_algebra("nilp5")
        assert is_characteristically_nilpotent(n5).accepted()
        assert weight_solution_space(n5).shape[1] == 0


# -- generated algebras ------------------------------------------------------


def algebra(dim, brackets):
    """Lie algebra from {(i, j): k} with [X_i, X_j] = sign(k) X_|k|, 1-indexed."""
    table = {}
    for (i, j), k in brackets.items():
        vec = [0] * dim
        vec[abs(k) - 1] = 1 if k > 0 else -1
        table[(i - 1, j - 1)] = vec
    return LieAlgebra(dim, table)


def filiform(n):
    return algebra(n, {(1, i): i + 1 for i in range(2, n)})


def heisenberg_of_dim(n):
    return algebra(n, {(2 * i - 1, 2 * i): n for i in range(1, n // 2 + 1)})


def dixmier_lister():
    """8-dim characteristically nilpotent algebra (Dixmier-Lister, Proc. AMS 8, 1957)."""
    return algebra(
        8,
        {
            (1, 2): 5, (1, 3): 6, (1, 4): 7, (1, 5): -8, (2, 3): 8,
            (2, 4): 6, (2, 6): -7, (3, 4): -5, (3, 5): -7, (4, 6): -8,
        },
    )


def direct_sum(a, b):
    table = {(i, j): list(v) + [0] * b.dim for (i, j), v in oracles.dense_table(a).items()}
    for (i, j), v in oracles.dense_table(b).items():
        table[(a.dim + i, a.dim + j)] = [0] * a.dim + list(v)
    return LieAlgebra(a.dim + b.dim, table)


N24 = algebra(8, {(1, 2): 3, (1, 3): 4, (2, 3): 5, (1, 4): 6, (2, 4): 7, (1, 5): 7, (2, 5): 8})


def trace_enumeration(algebra):
    """Reference decision: do all symmetrized trace coefficients vanish?

    tr(D(t)^k) for D(t) = sum_a t_a D_a is a form in t whose coefficients
    are sums of tr(D_a1 ... D_ak) over the orderings of each multiset of
    indices.  Every D(t) is nilpotent iff all of them vanish for k <= dim.
    A DFS over index sequences with prefix products in integers (each D_a
    scaled by its denominator lcm, which leaves the span unchanged) sums
    them, pruning subtrees whose product vanished.  Exponential in dim:
    keep it to small inputs.
    """
    n = algebra.dim
    ints = []
    for der in derivations(algebra):
        den = lcm(*(e.denominator for e in der.flat))
        ints.append([[int(e * den) for e in row] for row in der])

    def mm(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    coeff = {}

    def dfs(prefix, prod):
        key = tuple(sorted(prefix))
        coeff[key] = coeff.get(key, 0) + sum(prod[i][i] for i in range(n))
        if len(prefix) == n:
            return
        for a, der in enumerate(ints):
            nxt = mm(prod, der)
            if any(e for row in nxt for e in row):
                dfs(prefix + (a,), nxt)

    for a, der in enumerate(ints):
        dfs((a,), der)
    return all(v == 0 for v in coeff.values())


ORACLE_CASES = {
    **{name: load_algebra(name) for name in ("abelian3", "heisenberg3", "filiform4", "filiform5", "nilp5")},
    "dixmier_lister": dixmier_lister(),
}


class TestEngelFlag:
    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_matches_trace_enumeration(self, name):
        a = ORACLE_CASES[name]
        assert is_characteristically_nilpotent(a, random_trials=0).accepted() == trace_enumeration(a)

    def test_dixmier_lister_is_characteristically_nilpotent(self):
        a = dixmier_lister()
        assert validate(a).accepted()
        assert is_characteristically_nilpotent(a, random_trials=0).accepted()

    def test_nilp5_direct_sum_past_the_old_size_cap(self):
        n5 = load_algebra("nilp5")
        v = is_characteristically_nilpotent(direct_sum(n5, n5))
        assert v.accepted()
        assert v.certificate == {"derivation_dim": 24, "max_power": 14}

    @pytest.mark.parametrize("a", [filiform(8), N24], ids=["L8", "N2,4"])
    def test_reject_without_seeded_draws_has_witness(self, a):
        t0 = time.monotonic()
        v = is_characteristically_nilpotent(a, random_trials=0)
        # the trace enumeration this replaced took minutes on both
        assert time.monotonic() - t0 < 20.0
        assert v.decision == "reject"
        w = mx.rmat([[Fraction(e) for e in row] for row in v.certificate["witness"]])
        assert is_derivation(a, w)
        assert not mx.is_nilpotent(w)
        terms = zip(v.certificate["combination"], derivations(a))
        assert mx.mat_eq(sum((c * d for c, d in terms), mx.zeros(a.dim, a.dim)), w)


# -- metamorphic: an integral unimodular change of basis ----------------------


def change_basis(algebra, p):
    """The same algebra in the basis P e_i: c'_ij = P^-1 [P e_i, P e_j]."""
    p_inv = mx.inverse(p)
    n = algebra.dim
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            table[(i, j)] = p_inv @ algebra.bracket(p[:, i], p[:, j])
    return LieAlgebra(n, table)


def unimodular(n, ops):
    """Product of elementary matrices I + c E_ij, with i = a mod n and
    j = i + 1 + (k mod n-1) mod n, so that j != i."""
    p = mx.identity(n)
    for a, k, c in ops:
        i = a % n
        j = (i + 1 + k % (n - 1)) % n
        p[i] = p[i] + c * p[j]
    return p


def aligned_gradings(algebra):
    """Basis-aligned gradings by the found weights, and by weights 1..n
    (rarely homogeneous)."""
    n = algebra.dim
    eye = mx.identity(n)
    for ws in (find_positive_weights(algebra), find_nonneg_nontrivial_weights(algebra), range(1, n + 1)):
        if ws is not None:
            yield Grading(tuple((w, eye[:, [i for i in range(n) if ws[i] == w]]) for w in sorted(set(ws))))


def invariants(algebra):
    return (
        nilpotency_class(algebra),
        len(derivations(algebra)),
        is_characteristically_nilpotent(algebra).decision,
    )


@pytest.mark.parametrize("name", ALL_FIXTURES)
@settings(max_examples=2, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from([-2, -1, 1, 2])),
                    min_size=1, max_size=6))
def test_unimodular_change_of_basis_preserves_invariants(name, ops):
    a = load_algebra(name)
    p = unimodular(a.dim, ops)
    assert mx.det(p) == 1
    b = change_basis(a, p)
    assert all(c.denominator == 1 for t in b.terms.values() for c in t.values())
    assert invariants(b) == invariants(a)
    rebased = a.in_basis(p)
    assert rebased.terms == b.terms
    # g grades a iff P^-1 g grades a in the basis of P's columns
    p_inv = mx.inverse(p)
    for g in aligned_gradings(a):
        moved = Grading(tuple((w, p_inv @ s) for w, s in g.components))
        assert verify_grading(rebased, moved).condition == verify_grading(a, g).condition


class TestAbelianization:
    def test_abelian_projection_is_identity(self):
        a = abelian(3)
        q, proj = abelianization(a)
        assert q == 3
        m = mx.rmat([[1, 2, 0], [0, 1, 1], [5, 0, 1]])
        assert mx.mat_eq(induced_map(a, m), m)

    def test_heisenberg_quotient(self):
        h = heisenberg()
        q, proj = abelianization(h)
        assert q == 2
        pi = induced_map(h, mx.diag([2, 3, 6]))
        assert mx.mat_eq(pi, mx.diag([2, 3]))

    def test_notcohopf_quotient(self):
        n = load_algebra("notcohopf")
        q, _ = abelianization(n)
        assert q == 2
        pi = induced_map(n, load_map("notcohopf", "phi"))
        assert mx.mat_eq(pi, mx.diag([1, 2]))

    def test_projection_intertwines(self):
        h = heisenberg()
        m = load_map("heisenberg3", "diag236")
        _, proj = abelianization(h)
        pi = induced_map(h, m)
        assert mx.mat_eq(proj @ m, pi @ proj)

    def test_section_is_right_inverse(self):
        for name in ("heisenberg3", "notcohopf", "filiform6"):
            algebra = load_algebra(name)
            q, proj = abelianization(algebra)
            sec = quotient_section(algebra)
            assert mx.mat_eq(proj @ sec, mx.identity(q))

    def test_non_automorphism_rejected(self):
        with pytest.raises(ValueError):
            induced_map(heisenberg(), mx.diag([2, 2, 2]))

    def test_expanding_iff_induced_expanding(self):
        # the projection compatibility in its assertable form
        h = heisenberg()
        for name in ("diag224", "diag236", "diag122", "rotation"):
            m = load_map("heisenberg3", name)
            assert is_expanding(m) == is_expanding(induced_map(h, m))
        n = load_algebra("notcohopf")
        phi = load_map("notcohopf", "phi")
        assert is_expanding(phi) == is_expanding(induced_map(n, phi)) == False


class TestDerivedSubalgebra:
    def test_heisenberg(self):
        der = derived_subalgebra(heisenberg())
        assert mx.mat_eq(der, mx.rmat([[0], [0], [1]]))

    def test_abelian_zero(self):
        assert derived_subalgebra(abelian(4)).shape == (4, 0)


# -- the sparse kernels against the dense ones they replaced ----------------

LADDER = {
    "L5": lambda: oracles.filiform(5),
    "L8": lambda: oracles.filiform(8),
    "L11": lambda: oracles.filiform(11),
    "L14": lambda: oracles.filiform(14),
    "H5": lambda: oracles.heisenberg(2),
    "H9": lambda: oracles.heisenberg(4),
    "H13": lambda: oracles.heisenberg(6),
    "N2,3": lambda: oracles.free_nilpotent(2, 3),
    "N3,2": lambda: oracles.free_nilpotent(3, 2),
    "N2,4": lambda: oracles.free_nilpotent(2, 4),
    "N4,2": lambda: oracles.free_nilpotent(4, 2),
    "N3,3": lambda: oracles.free_nilpotent(3, 3),
}


@pytest.mark.parametrize("name", list(ALL_FIXTURES) + list(LADDER))
def test_derivations_match_dense_system(name):
    a = LADDER[name]() if name in LADDER else load_algebra(name)
    got, want = derivations(a), oracles.derivations_dense(a)
    assert len(got) == len(want)
    assert all(mx.mat_eq(g, w) for g, w in zip(got, want))


def rescaled(algebra, rng):
    """The algebra in the seeded diagonal basis X_i -> s_i X_i, s_i in {±1, ±2, ±1/3}."""
    scales = [1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3)]
    return algebra.in_basis(mx.diag([rng.choice(scales) for _ in range(algebra.dim)]))


def derivation_denominator(algebra):
    return lcm(*(e.denominator for d in derivations(algebra) for e in d.flat))


@pytest.mark.parametrize("name", list(ALL_FIXTURES) + list(LADDER))
def test_characteristic_nilpotency_matches_fraction_flag(name):
    a = LADDER[name]() if name in LADDER else load_algebra(name)
    rng = random.Random(f"rescale {name}")
    for b in (a, rescaled(a, rng), rescaled(a, rng)):
        for trials in (8, 0):
            got = is_characteristically_nilpotent(b, random_trials=trials)
            assert got.to_json() == oracles.is_characteristically_nilpotent_fraction(b, random_trials=trials).to_json()


def test_rescalings_raise_derivation_denominators():
    # so the comparison above sees den D_a with den > 1 on an accept (nilp5) and on rejects
    for name, before, after in (("nilp5", 2, [8, 6]), ("filiform6", 1, [12, 3]), ("notcohopf", 3, [3, 6])):
        a = load_algebra(name)
        rng = random.Random(f"rescale {name}")
        assert derivation_denominator(a) == before
        assert [derivation_denominator(rescaled(a, rng)) for _ in range(2)] == after


def perturbed(algebra, rng):
    """One coefficient changed, one bracket added, or a rescaled basis."""
    n = algebra.dim
    table = oracles.dense_table(algebra)
    values = [1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]
    kind = rng.choice(["change", "add", "rescale"])
    if kind == "change" and table:
        ij = rng.choice(sorted(table))
        table[ij][rng.randrange(n)] += rng.choice(values)
    elif kind == "rescale":
        s = [rng.choice(values) for _ in range(n)]
        table = {(i, j): mx.rvec([v[k] * s[i] * s[j] / s[k] for k in range(n)]) for (i, j), v in table.items()}
    else:
        i, j = sorted(rng.sample(range(n), 2))
        vec = table.get((i, j), mx.rvec([0] * n))
        vec[rng.randrange(n)] += rng.choice(values)
        table[(i, j)] = vec
    return LieAlgebra(n, table)


def test_validate_matches_bracket_based_loop():
    rng = random.Random(8128)
    cases = [sl2_like(), LieAlgebra(5, {(0, 1): [0, 0, 1, 0, "1/2"], (0, 2): [0, 0, 0, 1, 0], (0, 3): [0, 0, 1, 0, "1/2"]})]
    for name in ALL_FIXTURES:
        a = load_algebra(name)
        cases += [a] + [perturbed(a, rng) for _ in range(6)]
    seen = set()
    for a in cases:
        got, want = validate(a), oracles.validate_dense(a)
        assert got.to_json() == want.to_json()
        seen.add(got.condition)
        if got.condition != "jacobi":
            series, _ = oracles.series_dense(a)
            assert [s.tolist() for s in lower_central_series(a)] == [s.tolist() for s in series]
        x = mx.rvec([rng.choice([0, 1, -2, "1/3"]) for _ in range(a.dim)])
        y = mx.rvec([rng.choice([0, 3, -1, "2/5"]) for _ in range(a.dim)])
        assert list(a.bracket(x, y)) == list(oracles.bracket_dense(a, x, y))
    assert seen == {"jacobi", "not-nilpotent", "nilpotent-lie-algebra"}
    assert any(v.certificate["triple"] != [1, 2, 3] for v in map(validate, cases) if v.condition == "jacobi")


class TestSparseMapChecks:
    """violated_bracket and is_derivation sum columns over the nonzero
    structure constants; the dense loops over every pair are the oracle."""

    def perturbed(self, rng, m):
        m = m.copy()
        for _ in range(rng.randint(0, 2)):
            i, j = rng.randrange(m.shape[0]), rng.randrange(m.shape[1])
            m[i, j] += rng.choice([1, -1, Fraction(1, 2)])
        return m

    def test_against_dense_loops(self):
        rng = random.Random(8128)
        algebras = [load_algebra(name) for name in ALL_FIXTURES] + [oracles.filiform(6), oracles.heisenberg(2), abelian(3)]
        found, outcomes = 0, set()
        for algebra in algebras:
            n = algebra.dim
            ders = derivations(algebra)
            for _ in range(6):
                m = self.perturbed(rng, mx.identity(n) + sum((rng.randint(-1, 1) * d for d in ders), mx.zeros(n, n)))
                want = oracles.violated_bracket_dense(algebra, m)
                assert violated_bracket(algebra, m) == want
                found += want is not None
                d = self.perturbed(rng, sum((rng.randint(-2, 2) * d for d in ders), mx.zeros(n, n)))
                outcomes.add(is_derivation(algebra, d))
                assert is_derivation(algebra, d) == oracles.is_derivation_dense(algebra, d)
        assert found > 0 and outcomes == {True, False}
