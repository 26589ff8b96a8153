import json
import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nilgrade import liealg, matrices as mx
from nilgrade.fixtures import ALL_FIXTURES, FIXTURE_MAPS, HOLONOMY_FIXTURES, load_algebra, load_holonomy, load_map
from nilgrade.grading import Grading, find_weights, verify_grading
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
from nilgrade.serialize import algebra_from_dict
from nilgrade.specmaps import is_expanding

import oracles


def sparse_maps(*matrices):
    """Int matrices as `derivations` returns them: ({column: {row: entry}}, 1)."""
    return [({i: col for i in range(len(m)) if (col := {p: row[i] for p, row in enumerate(m) if row[i]})}, 1)
            for m in matrices]


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
        assert mx.is_zero_mat(n5.bracket(x, x))

    def test_bilinear(self):
        h = heisenberg()
        x, y, z = mx.rvec([1, 2, 0]), mx.rvec([0, 1, 1]), mx.rvec([3, 0, 1])
        lhs = h.bracket(x + z, y)
        rhs = h.bracket(x, y) + h.bracket(z, y)
        assert lhs == rhs


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
            for d in oracles.derivation_matrices(algebra):
                assert is_derivation(algebra, d)

    def test_nilp5_all_nilpotent(self):
        n5 = load_algebra("nilp5")
        for d in oracles.derivation_matrices(n5):
            assert oracles.is_nilpotent(d)


class TestAutomorphisms:
    def test_identity(self):
        assert is_automorphism(heisenberg(), mx.identity(3))

    def test_notcohopf_phi(self):
        n = load_algebra("notcohopf")
        assert is_automorphism(n, load_map("notcohopf", "phi"))

    def test_uniform_scaling_fails_on_heisenberg(self):
        assert not is_automorphism(heisenberg(), oracles.diag([2, 2, 2]))

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
        assert not oracles.is_nilpotent(w)
        # the scaling derivation diag(1,1,2) is in the solution space
        assert is_derivation(h, oracles.diag([1, 1, 2]))

    def test_abelian_rejects_identity_like_witness(self):
        v = is_characteristically_nilpotent(abelian(2))
        assert v.decision == "reject"

    def test_cartan_pair(self, monkeypatch):
        # sl2 spanned by nilpotent maps: E12, E21 and H + E12 - E21, whose
        # square is 0.  Traces vanish, the flag stalls at Q^2, and the first
        # pair with a nonzero trace form is tr(E12 E21) = 1.
        basis = sparse_maps([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [-1, -1]])
        monkeypatch.setattr(liealg, "derivations", lambda algebra: basis)
        v = is_characteristically_nilpotent(abelian(2))
        assert v.decision == "reject"
        assert v.certificate == {"witness": [["0", "1"], ["1", "0"]], "combination": [1, 1, 0]}

    def test_nil_basis_accepts(self, monkeypatch):
        units = [[[int((p, q) == (i, j)) for q in range(3)] for p in range(3)] for i, j in ((0, 1), (0, 2), (1, 2))]
        basis = sparse_maps(*units)
        monkeypatch.setattr(liealg, "derivations", lambda algebra: basis)
        v = is_characteristically_nilpotent(abelian(3))
        assert v.accepted()
        assert v.certificate == {"derivation_dim": 3, "max_power": 3}

    def test_decides_without_random_draws(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("random number generator used")

        monkeypatch.setattr(random, "Random", no_draws)
        for name in ALL_FIXTURES:
            assert is_characteristically_nilpotent(load_algebra(name)).decision in ("accept", "reject")

    def test_traceless_non_nilpotent_basis_derivation(self):
        # Der(sl2) = ad sl2 is traceless, so the flag decides, it stalls, and
        # the first basis derivation, diag(-1, 1, 0), is the witness
        v = is_characteristically_nilpotent(sl2_like())
        assert v.to_json() == oracles.is_characteristically_nilpotent_fraction(sl2_like()).to_json()
        assert v.certificate["combination"] == [1, 0, 0]
        assert v.certificate["witness"] == [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]

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
    for der in oracles.derivation_matrices(algebra):
        den = der.den
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
        assert is_characteristically_nilpotent(a).accepted() == trace_enumeration(a)

    def test_dixmier_lister_is_characteristically_nilpotent(self):
        a = dixmier_lister()
        assert validate(a).accepted()
        assert is_characteristically_nilpotent(a).accepted()

    def test_nilp5_direct_sum_past_the_old_size_cap(self):
        n5 = load_algebra("nilp5")
        v = is_characteristically_nilpotent(direct_sum(n5, n5))
        assert v.accepted()
        assert v.certificate == {"derivation_dim": 24, "max_power": 14}

    @pytest.mark.parametrize("a", [filiform(8), N24], ids=["L8", "N2,4"])
    def test_reject_without_seeded_draws_has_witness(self, a):
        t0 = time.monotonic()
        v = is_characteristically_nilpotent(a)
        # the trace enumeration this replaced took minutes on both
        assert time.monotonic() - t0 < 20.0
        assert v.decision == "reject"
        w = mx.rmat([[Fraction(e) for e in row] for row in v.certificate["witness"]])
        assert is_derivation(a, w)
        assert not oracles.is_nilpotent(w)
        terms = zip(v.certificate["combination"], oracles.derivation_matrices(a))
        assert oracles.mat_eq(sum((c * d for c, d in terms), mx.zeros(a.dim, a.dim)), w)


# -- metamorphic: an integral unimodular change of basis ----------------------


def change_basis(algebra, p):
    """The same algebra in the basis P e_i: c'_ij = P^-1 [P e_i, P e_j]."""
    p_inv = mx.inverse(p)
    n = algebra.dim
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            table[(i, j)] = p_inv @ algebra.bracket(p.col(i), p.col(j))
    return LieAlgebra(n, table)


def unimodular(n, ops):
    """Product of elementary matrices I + c E_ij, with i = a mod n and
    j = i + 1 + (k mod n-1) mod n, so that j != i."""
    p = oracles.identity(n)
    for a, k, c in ops:
        i = a % n
        j = (i + 1 + k % (n - 1)) % n
        p[i] = p[i] + c * p[j]
    return mx.rmat(p)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_in_basis_table_matches_the_constructor(name):
    # the int table in_basis hands over is the one the constructor would
    # clear from Fraction rows: the same terms in the same order, the same
    # ints and the same least denominator, for rational bases too
    a = load_algebra(name)
    rng = random.Random(name)
    for _ in range(3):
        ops = [(rng.randrange(8), rng.randrange(8), rng.choice([-2, -1, 1, 2])) for _ in range(4)]
        scales = [rng.choice([1, -2, Fraction(1, 3), Fraction(-5, 4), 6]) for _ in range(a.dim)]
        p = mx.matmul(unimodular(a.dim, ops), oracles.diag(scales))
        got, want = a.in_basis(p), change_basis(a, p)
        assert list(got.terms.items()) == list(want.terms.items())
        assert (got.upper, got.den) == (want.upper, want.den)


def aligned_gradings(algebra):
    """Basis-aligned gradings by the found weights, and by weights 1..n
    (rarely homogeneous)."""
    n = algebra.dim
    eye = oracles.identity(n)
    for ws in (find_weights(algebra, positive=True), find_weights(algebra, positive=False), range(1, n + 1)):
        if ws is not None:
            yield Grading(tuple((w, mx.rmat(eye[:, [i for i in range(n) if ws[i] == w]])) for w in sorted(set(ws))))


def invariants(algebra):
    return (
        nilpotency_class(algebra),
        len(derivations(algebra)),
        is_characteristically_nilpotent(algebra).decision,
    )


@pytest.mark.parametrize("name", ALL_FIXTURES)
@settings(max_examples=2, suppress_health_check=[HealthCheck.too_slow])
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


def rational_basis(n, rng, steps):
    """Column operations P[:, i] += (a/b) P[:, j] on I, a in {±1, ±2} and
    b in {1, 2, 3}: det P = 1, and P is outside GL_n(Z) once an entry is
    not an integer."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.choice([1, -1, 2, -2]), rng.choice([1, 2, 3]))
        for row in p:
            row[i] += c * row[j]
    return mx.rmat(p)


def bundled_maps(name, algebra):
    """The bundled maps and holonomy generators of the fixture, the inner
    automorphism exp(ad X_1), and diag(2^w) for a positive grading w when
    there is one."""
    n = algebra.dim
    maps = [load_map(name, m) for m in FIXTURE_MAPS.get(name, ())]
    maps += [g for h in HOLONOMY_FIXTURES if h.startswith(f"{name}_") for g in load_holonomy(h).generators]
    basis = [mx.rvec([int(k == j) for k in range(n)]) for j in range(n)]
    ad = mx.rmat(list(zip(*(algebra.bracket(basis[0], x) for x in basis))))
    term = exp = mx.identity(n)
    for k in range(1, n):
        term = mx.matmul(term, ad) * Fraction(1, k)
        exp = exp + term
    w = find_weights(algebra, positive=True)
    return maps + [exp] + ([oracles.diag([2**x for x in w])] if w else [])


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_rational_change_of_basis_preserves_invariants(name):
    # the unimodular test above keeps the constants integral; here P has
    # denominators, so the rebased constants (and the maps P^-1 M P) do too
    a = load_algebra(name)
    rng = random.Random(f"rational basis {name}")
    ders, maps = oracles.derivation_matrices(a), bundled_maps(name, a)
    autos = [violated_bracket(a, m) is None for m in maps]
    assert any(autos)
    for _ in range(2):
        p = rational_basis(a.dim, rng, 2 * a.dim)
        assert p.den > 1 and mx.det(p) == 1
        p_inv = mx.inverse(p)
        b = a.in_basis(p)
        assert validate(b).to_json() == validate(a).to_json()
        assert len(derivations(b)) == len(ders)
        assert is_characteristically_nilpotent(b).decision == is_characteristically_nilpotent(a).decision
        assert all(is_derivation(b, p_inv @ d @ p) for d in ders)
        assert [violated_bracket(b, p_inv @ m @ p) is None for m in maps] == autos
        back = b.in_basis(p_inv)
        assert (back.upper, back.den) == (a.upper, a.den)


class TestAbelianization:
    def test_abelian_projection_is_identity(self):
        a = abelian(3)
        q, proj = abelianization(a)
        assert q == 3
        m = mx.rmat([[1, 2, 0], [0, 1, 1], [5, 0, 1]])
        assert oracles.mat_eq(induced_map(a, m), m)

    def test_heisenberg_quotient(self):
        h = heisenberg()
        q, proj = abelianization(h)
        assert q == 2
        pi = induced_map(h, oracles.diag([2, 3, 6]))
        assert oracles.mat_eq(pi, oracles.diag([2, 3]))

    def test_notcohopf_quotient(self):
        n = load_algebra("notcohopf")
        q, _ = abelianization(n)
        assert q == 2
        pi = induced_map(n, load_map("notcohopf", "phi"))
        assert oracles.mat_eq(pi, oracles.diag([1, 2]))

    def test_projection_intertwines(self):
        h = heisenberg()
        m = load_map("heisenberg3", "diag236")
        _, proj = abelianization(h)
        pi = induced_map(h, m)
        assert oracles.mat_eq(proj @ m, pi @ proj)

    def test_section_is_right_inverse(self):
        for name in ("heisenberg3", "notcohopf", "filiform6"):
            algebra = load_algebra(name)
            q, proj = abelianization(algebra)
            sec = quotient_section(algebra)
            assert oracles.mat_eq(proj @ sec, mx.identity(q))

    def test_non_automorphism_rejected(self):
        with pytest.raises(ValueError):
            induced_map(heisenberg(), oracles.diag([2, 2, 2]))

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
        assert oracles.mat_eq(der, mx.rmat([[0], [0], [1]]))

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
    got, want = oracles.derivation_matrices(a), oracles.derivations_dense(a)
    assert len(got) == len(want)
    assert all(oracles.mat_eq(g, w) for g, w in zip(got, want))


def rescaled(algebra, rng):
    """The algebra in the seeded diagonal basis X_i -> s_i X_i, s_i in {±1, ±2, ±1/3}."""
    scales = [1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3)]
    return algebra.in_basis(oracles.diag([rng.choice(scales) for _ in range(algebra.dim)]))


def derivation_denominator(algebra):
    return lcm(*(d.den for d in oracles.derivation_matrices(algebra)))


@pytest.mark.parametrize("name", list(ALL_FIXTURES) + list(LADDER))
def test_characteristic_nilpotency_matches_fraction_flag(name):
    a = LADDER[name]() if name in LADDER else load_algebra(name)
    rng = random.Random(f"rescale {name}")
    for b in (a, rescaled(a, rng), rescaled(a, rng)):
        want = oracles.is_characteristically_nilpotent_fraction(b)
        assert is_characteristically_nilpotent(b).to_json() == want.to_json()


@pytest.mark.parametrize("name", list(ALL_FIXTURES) + list(LADDER))
def test_reject_witness_is_a_basis_derivation_or_a_pair(name):
    a = LADDER[name]() if name in LADDER else load_algebra(name)
    rng = random.Random(f"rescale {name}")
    for b in (a, rescaled(a, rng), rescaled(a, rng)):
        v = is_characteristically_nilpotent(b)
        if v.decision == "reject":
            w = mx.rmat([[Fraction(e) for e in row] for row in v.certificate["witness"]])
            assert is_derivation(b, w)
            assert not oracles.is_nilpotent(w)
            t = v.certificate["combination"]
            assert set(t) <= {0, 1} and sum(t) in (1, 2)


@pytest.mark.parametrize("name", list(ALL_FIXTURES) + list(LADDER))
def test_derivations_are_sparse_ints_over_least_denominators(name):
    a = LADDER[name]() if name in LADDER else load_algebra(name)
    for cols, den in derivations(a):
        values = [v for col in cols.values() for v in col.values()]
        assert values and all(type(v) is int and v for v in values)
        assert den > 0 and gcd(den, *values) == 1


@pytest.mark.parametrize("name", ["L10", "nilp5"])
def test_characteristic_nilpotency_builds_no_dense_matrix(monkeypatch, name):
    # the derivation basis stays sparse ints: neither the dense kernel nor a
    # clearing of a dense matrix runs
    a = oracles.filiform(10) if name == "L10" else load_algebra(name)
    want = oracles.is_characteristically_nilpotent_fraction(a)

    def dense(*args):
        raise AssertionError("dense matrix built on the characteristic-nilpotency path")

    monkeypatch.setattr(mx, "kernel", dense)
    monkeypatch.setattr(mx, "QMat", dense)
    got = is_characteristically_nilpotent(a)
    assert got.to_json() == want.to_json()
    assert got.decision == ("accept" if name == "nilp5" else "reject")


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
        vec = table.get((i, j), oracles.zeros(1, n)[0])
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


GOLDEN_ALGEBRAS = sorted((Path(__file__).resolve().parent / "golden" / "algebras").glob("*.json"))


@st.composite
def sparse_tables(draw):
    """A table with a few random nonzero constants, in dim 3-7: most of
    them violate Jacobi, on some triple and with some residual."""
    n = draw(st.integers(3, 7))
    values = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    entries = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1), values), max_size=2 * n))
    table = {}
    for i, j, k, c in entries:
        if i != j:
            table.setdefault((min(i, j), max(i, j)), [0] * n)[k] += c
    return LieAlgebra(n, table)


def assert_validates_like_all_triples(a):
    got = validate(a)
    assert got.to_json() == oracles.validate_all_triples(a).to_json()
    if got.condition != "jacobi":
        assert liealg._series_descent(a) == oracles.series_all_pairs(a)
    return got


def test_validate_matches_all_triples_on_files_and_rebases():
    # the fixtures, the golden algebras (Jacobi violators, sl2, the one that
    # stabilises) and each in two unimodular bases
    rng = random.Random(2718)
    files = [load_algebra(name) for name in ALL_FIXTURES]
    files += [algebra_from_dict(json.loads(path.read_text())) for path in GOLDEN_ALGEBRAS]
    seen = Counter()
    for a in files:
        ops = [[(rng.randrange(8), rng.randrange(8), rng.choice([-2, -1, 1, 2])) for _ in range(4)] for _ in range(2)]
        for b in [a] + [a.in_basis(unimodular(a.dim, o)) for o in ops]:
            seen[assert_validates_like_all_triples(b).condition] += 1
    assert set(seen) == {"jacobi", "not-nilpotent", "nilpotent-lie-algebra"}, seen


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(a=sparse_tables())
def test_validate_matches_all_triples_on_random_tables(a):
    assert_validates_like_all_triples(a)


class TestKernelsOnRandomTables:
    """The bracket kernel and the derivation rows against the dense
    Fraction loops, on tables that mostly break Jacobi."""

    ENTRY = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])

    def matrix(self, data, n):
        return mx.rmat(data.draw(st.lists(st.lists(self.ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)))

    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(a=sparse_tables(), data=st.data())
    def test_bracket(self, a, data):
        x, y = (mx.rvec(data.draw(st.lists(self.ENTRY, min_size=a.dim, max_size=a.dim))) for _ in range(2))
        assert list(a.bracket(x, y)) == list(oracles.bracket_dense(a, x, y))

    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(a=sparse_tables(), data=st.data())
    def test_map_checks(self, a, data):
        # I + E and a combination of the derivation basis plus E, for a
        # sparse E that is zero as often as not
        n = a.dim
        e = self.matrix(data, n) if data.draw(st.booleans()) else mx.zeros(n, n)
        m = mx.identity(n) + e
        assert violated_bracket(a, m) == oracles.violated_bracket_dense(a, m)
        ders = oracles.derivation_matrices(a)
        coeffs = data.draw(st.lists(self.ENTRY, min_size=len(ders), max_size=len(ders)))
        d = sum((c * x for c, x in zip(coeffs, ders)), e)
        assert is_derivation(a, d) == oracles.is_derivation_dense(a, d)

    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    @given(a=sparse_tables())
    def test_derivations(self, a):
        got, want = oracles.derivation_matrices(a), oracles.derivations_dense(a)
        assert len(got) == len(want) and all(oracles.mat_eq(g, w) for g, w in zip(got, want))


class TestSparseMapChecks:
    """violated_bracket and is_derivation decide their identities in ints
    over the cleared map and structure constants; the dense Fraction loops
    over every pair are the oracle."""

    SCALES = [1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3)]
    SMALL = [name for name in ALL_FIXTURES if load_algebra(name).dim <= 6]

    def perturbed(self, rng, m):
        m = oracles.dense(m)
        for _ in range(rng.randint(0, 2)):
            i, j = rng.randrange(m.shape[0]), rng.randrange(m.shape[1])
            m[i, j] += rng.choice([1, -1, Fraction(1, 2)])
        return mx.rmat(m)

    def agree(self, algebra, m, d):
        """Both checks answer as their oracles; returns the two answers."""
        want = oracles.violated_bracket_dense(algebra, m)
        assert violated_bracket(algebra, m) == want
        is_der = oracles.is_derivation_dense(algebra, d)
        assert is_derivation(algebra, d) == is_der
        return want, is_der

    def sweep(self, rng, algebra, trials):
        """Seeded maps I + sum t_a D_a and derivations sum t_a D_a over the
        derivation basis, each perturbed; counts the rejected maps and
        collects the derivation answers."""
        n = algebra.dim
        ders = oracles.derivation_matrices(algebra)
        found, outcomes = 0, set()
        for _ in range(trials):
            m = self.perturbed(rng, mx.identity(n) + sum((rng.randint(-1, 1) * d for d in ders), mx.zeros(n, n)))
            d = self.perturbed(rng, sum((rng.randint(-2, 2) * d for d in ders), mx.zeros(n, n)))
            want, is_der = self.agree(algebra, m, d)
            found += want is not None
            outcomes.add(is_der)
        return found, outcomes

    def test_against_dense_loops(self):
        rng = random.Random(8128)
        algebras = [load_algebra(name) for name in ALL_FIXTURES] + [oracles.filiform(6), oracles.heisenberg(2), abelian(3)]
        found, outcomes = 0, set()
        for algebra in algebras:
            f, o = self.sweep(rng, algebra, 6)
            found, outcomes = found + f, outcomes | o
        assert found > 0 and outcomes == {True, False}

    def test_rescaled_structure_constants(self):
        # X_i -> s_i X_i turns c_ij^k into s_i s_j c_ij^k / s_k, so the
        # structure constants clear over some e > 1
        rng = random.Random(4099)
        dens, found, outcomes = set(), 0, set()
        for name in ALL_FIXTURES:
            algebra = load_algebra(name)
            rescaled = algebra.in_basis(oracles.diag([rng.choice(self.SCALES) for _ in range(algebra.dim)]))
            dens.add(lcm(*(c.denominator for t in rescaled.terms.values() for c in t.values())))
            f, o = self.sweep(rng, rescaled, 4)
            found, outcomes = found + f, outcomes | o
        assert max(dens) > 1 and found > 0 and outcomes == {True, False}

    @pytest.mark.parametrize(
        "algebra",
        [load_algebra(name) for name in ALL_FIXTURES] + [oracles.filiform(14), oracles.heisenberg(6)],
        ids=list(ALL_FIXTURES) + ["L_14", "H_13"],
    )
    def test_mixed_denominator_maps(self, algebra):
        # diag(r^w) for a positive grading w is an automorphism whose entries
        # r, r^2, ... have mixed denominators, so the map clears over d > 1
        rng = random.Random(6143)
        n = algebra.dim
        w = find_weights(algebra, positive=True) or (0,) * n
        ders = oracles.derivation_matrices(algebra)
        for r in (Fraction(2, 3), Fraction(-5, 4), Fraction(7, 6)):
            phi = oracles.diag([r**x for x in w])
            if any(w):
                assert phi.den > 1
                assert violated_bracket(algebra, phi) is None
            for _ in range(2):
                d = sum((rng.choice([0, Fraction(1, 2), Fraction(-2, 3), 3]) * d for d in ders), mx.zeros(n, n))
                self.agree(algebra, self.perturbed(rng, phi), self.perturbed(rng, d))

    @pytest.mark.parametrize("entry", [1, Fraction(1, 3)])
    def test_first_of_several_violated_pairs(self, entry):
        # on H_5, [X_1, X_2] = [X_3, X_4] = X_5: M X_3 = X_3 + entry X_2
        # breaks (1, 3) and (3, 4), and M X_5 = 2 X_5 keeps (1, 2)
        algebra = oracles.heisenberg(2)
        m = oracles.dense(oracles.diag([2, 1, 1, 1, 2]))
        m[1, 2] = Fraction(entry)
        broken = [
            (i + 1, j + 1)
            for i in range(5)
            for j in range(i + 1, 5)
            if not (m @ oracles.bracket_basis_dense(algebra, i, j) == oracles.bracket_dense(algebra, m[:, i], m[:, j])).all()
        ]
        assert broken == [(1, 3), (3, 4)]
        assert violated_bracket(algebra, mx.rmat(m)) == (1, 3) == oracles.violated_bracket_dense(algebra, m)

    @settings(max_examples=60)
    @given(
        name=st.sampled_from(SMALL),
        scales=st.lists(st.sampled_from(SCALES), min_size=6, max_size=6),
        entries=st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]), min_size=36, max_size=36),
    )
    def test_small_random_maps(self, name, scales, entries):
        algebra = load_algebra(name)
        n = algebra.dim
        algebra = algebra.in_basis(oracles.diag(scales[:n]))
        m = mx.identity(n) + mx.rmat([entries[r * n : (r + 1) * n] for r in range(n)])
        assert violated_bracket(algebra, m) == oracles.violated_bracket_dense(algebra, m)
        assert is_derivation(algebra, m - mx.identity(n)) == oracles.is_derivation_dense(algebra, m - mx.identity(n))

    @pytest.mark.parametrize("shape", [(3, 4), (4, 4), (4, 3)])
    def test_wrong_shape_raises(self, shape):
        algebra = heisenberg()
        m = oracles.zeros(*shape)
        for i in range(min(shape)):
            m[i, i] = Fraction(1)
        m[0, -1] += 2
        with pytest.raises(ValueError, match="matrix dimension mismatch"):
            violated_bracket(algebra, mx.rmat(m))
        with pytest.raises(ValueError, match="matrix dimension mismatch"):
            is_derivation(algebra, mx.zeros(*shape))
