import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from nilgrade import liealg, matrices as mx, polynomials, specmaps
from nilgrade.grading import weight_equations
from nilgrade.serialize import algebra_from_dict, polynomial_to_list
from nilgrade.polynomials import (
    ONE,
    Polynomial,
    X,
    factor_order_key,
    factor_over_q,
    squarefree_part,
)
import oracles
from oracles import (
    factor_kronecker,
    from_roots,
    poly_gcd,
    poly_xgcd,
    squarefree_decomposition,
    squarefree_decomposition_fraction,
    squarefree_part_fraction,
)
from test_liealg import change_basis


def P(*coeffs):
    """Ascending-degree constructor shorthand."""
    return Polynomial(coeffs)


# -- independent oracle: rational roots by brute candidate search ----------


def rational_roots_oracle(p: Polynomial) -> set[Fraction]:
    """Try every a/b with a | trailing coefficient, b | leading coefficient."""
    den = 1
    for c in p.coeffs:
        den *= c.denominator
    ints = [int(c * den) for c in p.coeffs]
    k = next(i for i, c in enumerate(ints) if c != 0)
    roots = {Fraction(0)} if k > 0 else set()
    const, lead = abs(ints[k]), abs(ints[-1])
    candidates = {
        Fraction(sign * a, b)
        for a in range(1, const + 1)
        if const % a == 0
        for b in range(1, lead + 1)
        if lead % b == 0
        for sign in (1, -1)
    }
    return roots | {r for r in candidates if p(r) == 0}


class TestArithmetic:
    def test_divmod_roundtrip(self):
        rng = random.Random(7)
        for _ in range(40):
            a = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
            b = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree

    def test_gcd_monic_and_divides(self):
        a = from_roots([1, 2, 3])
        b = from_roots([2, 3, 5])
        g = poly_gcd(a, b)
        assert g == from_roots([2, 3])
        assert oracles.is_monic(g)

    def test_xgcd_bezout(self):
        a = P(-1, 0, 1)  # X^2 - 1
        b = P(-2, 1)  # X - 2
        g, u, v = poly_xgcd(a, b)
        assert u * a + v * b == g
        assert g == ONE  # gcd((X-1)(X+1), X-2) = 1

    def test_reciprocal(self):
        p = P(2, -3, 1)
        assert p.reciprocal() == P(1, -3, 2)

    def test_str_renders_signs(self):
        assert str(P(2, -3, 1)) == "X^2 - 3*X + 2"


class TestSquarefree:
    def test_squarefree_part_cube(self):
        # (X-1)^3 -> X-1
        p = from_roots([1, 1, 1])
        assert squarefree_part(p) == P(-1, 1)

    def test_yun_decomposition(self):
        p = from_roots([1, 1]) * P(1, 0, 1)  # (X-1)^2 (X^2+1)
        assert squarefree_decomposition(p) == [(P(1, 0, 1), 1), (P(-1, 1), 2)]

    def test_yun_squarefree_input(self):
        p = P(-2, 0, 1)
        assert squarefree_decomposition(p) == [(p, 1)]


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


class TestDivmodAgainstFractionLongDivision:
    """`Polynomial.__divmod__`, the pseudo-division of the cleared operands,
    against long division in Fractions."""

    @settings(max_examples=200)
    @given(
        a=st.lists(rationals, max_size=7),
        b=st.lists(rationals, min_size=1, max_size=5).filter(lambda cs: cs[-1] != 0),
        kind=st.sampled_from(["drawn", "exact"]),
    )
    def test_matches_fraction_long_division(self, a, b, kind):
        a, b = Polynomial(a), Polynomial(b)
        if kind == "exact":  # b divides a
            a = a * b
        got = divmod(a, b)
        assert got == oracles.divmod_fraction(a, b)
        assert got[0] * b + got[1] == a
        if kind == "exact":
            assert got[1].is_zero()

    def test_lower_degree_dividend_and_non_monic_rational_divisor(self):
        a, b = P(Fraction(1, 2), 3), P(1, 0, Fraction(-2, 3))
        assert divmod(a, b) == (P(), a) == oracles.divmod_fraction(a, b)
        a = P(Fraction(5, 7), Fraction(-1, 3), 0, 4)
        assert divmod(a, b) == oracles.divmod_fraction(a, b)
        assert divmod(P(), b) == (P(), P())
        with pytest.raises(ZeroDivisionError):
            divmod(a, P())


# -- the int form against Fraction coefficient lists -------------------------


def _trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _sum_list(a, b):
    n = max(len(a), len(b))
    return _trimmed((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _product_list(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trimmed(out)


def _divmod_list(a, b):
    """Long division of Fraction lists, b with a nonzero lead."""
    q, r = [Fraction(0)] * max(len(a) - len(b) + 1, 0), list(a)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            r[k + j] -= c * y
    return _trimmed(q), _trimmed(r[: len(b) - 1])


def _horner_list(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _str_list(a):
    """Highest degree first, "c*X^k" with c = 1 left out, signs between terms."""
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c:
            term = str(abs(c)) if k == 0 else ("" if abs(c) == 1 else f"{abs(c)}*") + "X" + (f"^{k}" if k > 1 else "")
            parts.append(("-" if c < 0 else "") + term if not parts else ("- " if c < 0 else "+ ") + term)
    return " ".join(parts) or "0"


class TestIntForm:
    """A `Polynomial` is ints over one denominator in lowest terms, and
    acts as the list of its Fraction coefficients does."""

    @settings(max_examples=300)
    @given(
        a=st.lists(rationals, max_size=7),
        b=st.lists(rationals, max_size=5),
        s=rationals,
        x=st.one_of(rationals, st.integers(-5, 5)),
    )
    def test_matches_fraction_lists(self, a, b, s, x):
        p, q = Polynomial(a), Polynomial(b)
        a, b = _trimmed(a), _trimmed(b)
        assert p.den > 0 and gcd(p.den, *p.ints) == 1 and all(type(c) is int for c in p.ints)
        assert list(p.coeffs) == a and all(type(c) is Fraction for c in p.coeffs)
        same = Polynomial(p.coeffs)
        assert same == p and hash(same) == hash(p)
        assert list((p + q).coeffs) == _sum_list(a, b)
        assert list((p - q).coeffs) == _sum_list(a, [-c for c in b])
        assert list((p * q).coeffs) == _product_list(a, b)
        assert list((p * s).coeffs) == list((s * p).coeffs) == _trimmed(c * s for c in a)
        assert list(p.derivative().coeffs) == [k * c for k, c in enumerate(a)][1:]
        assert list(p.reciprocal().coeffs) == _trimmed(reversed(a))
        assert p(x) == _horner_list(a, x) and type(p(x)) is Fraction
        assert str(p) == _str_list(a)
        assert polynomial_to_list(p) == [str(c) for c in a]
        if a:
            assert list(p.monic().coeffs) == [c / a[-1] for c in a]
        if b:
            quo, rem = divmod(p, q)
            assert (list(quo.coeffs), list(rem.coeffs)) == _divmod_list(a, b)

    def test_kernels_build_no_fraction(self, monkeypatch):
        """The kernels read the int forms of polynomials, matrices and
        algebras: with `Fraction` made to raise in `matrices`,
        `polynomials`, `liealg` and `specmaps`, none of them builds one."""
        m = mx.rmat([[Fraction(1, 2), 3, 0], [0, Fraction(-2, 3), 1], [4, 0, 5]])
        p = P(Fraction(-1, 3), 0, Fraction(5, 2))
        basis = mx.rmat([[1, Fraction(1, 2), 0], [0, 1, 0], [0, 2, -3]])
        data = {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1/2"}]}]}

        def refuse(*args):
            raise AssertionError(f"Fraction{args} built")

        for module in (mx, polynomials, liealg, specmaps):
            monkeypatch.setattr(module, "Fraction", refuse)
        chi = mx.charpoly(m)
        value = mx.eval_poly(p, m)
        kills = (mx.annihilates(chi, m), mx.annihilates(p, m))
        inside = (specmaps.schur_all_inside(p), specmaps.schur_all_inside(chi))
        algebra = algebra_from_dict(data)
        rebased = algebra.in_basis(basis)
        eqs = weight_equations(rebased)
        with pytest.raises(AssertionError, match="built"):  # the guard sees a coefficient read
            chi.coeffs
        monkeypatch.undo()
        assert chi == oracles.charpoly_fraction(m)
        assert oracles.mat_eq(value, oracles.eval_poly_fraction(p, m))
        assert kills == (True, False)
        assert inside == (True, False)  # the roots of p are +-(2/15)^(1/2)
        assert (algebra.upper[(0, 1)], algebra.den) == ({2: 1}, 2)
        want = change_basis(algebra, basis)
        assert (rebased.upper, rebased.den) == (want.upper, want.den)
        assert eqs == weight_equations(want) and eqs


@st.composite
def repeated_factor_products(draw):
    """c * prod f_i^e_i for a rational c != 0 and up to three drawn factors
    f_i of degree 1-3 with rational, non-monic coefficients and
    multiplicities e_i of 1-3 (drawn factors may share roots)."""
    p = Polynomial([draw(st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 5)))])
    for _ in range(draw(st.integers(0, 3))):
        deg = draw(st.integers(1, 3))
        f = Polynomial(draw(st.lists(rationals, min_size=deg + 1, max_size=deg + 1).filter(lambda cs: cs[-1] != 0)))
        p = p * _power(f, draw(st.integers(1, 3)))
    return p


def _power(f, e):
    out = ONE
    for _ in range(e):
        out = out * f
    return out


class TestYunInIntegers:
    @settings(max_examples=150)
    @given(p=repeated_factor_products())
    def test_matches_fraction_yun(self, p):
        got = squarefree_decomposition(p)
        assert got == squarefree_decomposition_fraction(p)
        assert squarefree_part(p) == squarefree_part_fraction(p)
        assert _product(got) == p.monic()

    def test_repeated_non_monic_rational_factors(self):
        # -3/7 (2X - 1/3)^3 (X^2/5 + 3)^2 (X - 1/3): monic parts X - 1/3
        # once, X^2 + 15 twice and X - 1/6 three times
        p = P(Fraction(-3, 7)) * _power(P(Fraction(-1, 3), 2), 3) * _power(P(3, 0, Fraction(1, 5)), 2) * P(Fraction(-1, 3), 1)
        want = [(P(Fraction(-1, 3), 1), 1), (P(15, 0, 1), 2), (P(Fraction(-1, 6), 1), 3)]
        assert squarefree_decomposition(p) == want == squarefree_decomposition_fraction(p)
        assert squarefree_part(p) == P(Fraction(-1, 3), 1) * P(15, 0, 1) * P(Fraction(-1, 6), 1)

    def test_constants(self):
        assert squarefree_decomposition(P(Fraction(-2, 3))) == []
        assert squarefree_part(P(Fraction(-2, 3))) == ONE
        with pytest.raises(ValueError):
            squarefree_decomposition(P())
        with pytest.raises(ValueError):
            squarefree_part(P())


def _product(parts):
    out = ONE
    for s, i in parts:
        out = out * _power(s, i)
    return out


class TestFactorization:
    def test_quadratic_with_rational_roots(self):
        # X^2 - 3X + 2: oracle gives roots {1, 2}
        p = P(2, -3, 1)
        assert rational_roots_oracle(p) == {Fraction(1), Fraction(2)}
        assert factor_over_q(p) == [(P(-1, 1), 1), (P(-2, 1), 1)]

    def test_irreducible_quadratic(self):
        assert factor_over_q(P(1, 0, 1)) == [(P(1, 0, 1), 1)]

    def test_cube_of_linear(self):
        p = from_roots([1, 1, 1])
        assert factor_over_q(p) == [(P(-1, 1), 3)]

    def test_quartic_product_of_quadratics(self):
        # no rational roots: the factors come from recombining modular ones
        f = P(1, 0, 1) * P(-1, -1, 1)  # (X^2+1)(X^2-X-1)
        assert rational_roots_oracle(f) == set()
        assert factor_over_q(f) == [(P(1, 0, 1), 1), (P(-1, -1, 1), 1)]

    def test_sextic_mixed(self):
        f = P(-1, 1) * P(-1, 1) * P(1, 1, 1) * P(-3, 1)
        assert factor_over_q(f) == [
            (P(-1, 1), 2),
            (P(-3, 1), 1),
            (P(1, 1, 1), 1),
        ]

    def test_non_monic_and_rational_coefficients(self):
        f = Fraction(3, 2) * (P(Fraction(-1, 2), 1) * P(2, 1))
        factors = factor_over_q(f)
        assert factors == [(P(2, 1), 1), (P(Fraction(-1, 2), 1), 1)]

    def test_roundtrip_random_products(self):
        rng = random.Random(20240517)
        pool = [
            P(-1, 1),
            P(1, 1),
            P(-2, 1),
            P(3, 1),
            P(1, 0, 1),
            P(1, 1, 1),
            P(-1, -1, 1),
            P(2, 0, 1),
            P(-2, 0, 0, 1),  # X^3 - 2, irreducible
        ]
        for _ in range(25):
            picks = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
            f = ONE
            for q in picks:
                f = f * q
            lead = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            f = lead * f
            got = factor_over_q(f)
            prod = Polynomial([f.coeffs[-1]])
            for fac, mult in got:
                assert oracles.is_monic(fac)
                for _ in range(mult):
                    prod = prod * fac
            assert prod == f

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_over_q(Polynomial([]))

    def test_degree_seven_linear_spread(self):
        # the self-cover fixture scale: (X-1)(X-2)^3(X-4)^2(X-8)
        f = from_roots([1, 2, 2, 2, 4, 4, 8])
        assert factor_over_q(f) == [
            (P(-1, 1), 1),
            (P(-2, 1), 3),
            (P(-4, 1), 2),
            (P(-8, 1), 1),
        ]

    def test_x_factor(self):
        f = X * P(1, 0, 1)
        assert factor_over_q(f) == [(X, 1), (P(1, 0, 1), 1)]

    def test_degree_twelve_quadratic_factors(self):
        parts = [
            P(1, 0, 1),
            P(2, 0, 1),
            P(3, 0, 1),
            P(1, 1, 1),
            P(1, -1, 1),
            P(-2, 0, 1),
        ]
        f = ONE
        for q in parts:
            f = f * q
        assert f.degree == 12
        assert factor_over_q(f) == [(q, 1) for q in sorted(parts, key=lambda p: tuple(-c for c in p.coeffs))]

    def test_degree_eight_quartic_pair(self):
        # no rational roots and no quadratic factors
        f = P(1, 0, 0, 0, 1) * P(-2, 0, 0, 0, 1)
        got = factor_over_q(f)
        assert got == [(P(1, 0, 0, 0, 1), 1), (P(-2, 0, 0, 0, 1), 1)]


# -- Zassenhaus against Kronecker's search and sympy -------------------------


def seeded_product(rng: random.Random, max_degree: int, max_factor_degree: int) -> Polynomial:
    """A rational multiple of a product of random factors, some repeated,
    non-monic or with fractional coefficients."""
    f = Polynomial([Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))])
    while True:
        d = rng.randint(1, max_factor_degree)
        q = Polynomial([rng.randint(-6, 6) for _ in range(d)] + [rng.choice([1, 1, 2, 3])])
        q = q * Fraction(1, rng.randint(1, 3))
        power = rng.choice([1, 1, 1, 2])
        if f.degree + power * d > max_degree:
            return f
        for _ in range(power):
            f = f * q


def assert_is_factorization(f: Polynomial, factors) -> None:
    prod = Polynomial([f.coeffs[-1]])
    for fac, mult in factors:
        assert oracles.is_monic(fac)
        for _ in range(mult):
            prod = prod * fac
    assert prod == f


class TestZassenhaus:
    def test_matches_kronecker_oracle(self):
        rng = random.Random(1969)
        for _ in range(40):
            f = seeded_product(rng, 8, 3)
            if f.degree < 1:
                continue
            got = factor_over_q(f)
            assert got == factor_kronecker(f)
            assert_is_factorization(f, got)

    def test_matches_sympy_up_to_degree_16(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(15)
        for _ in range(60):
            f = seeded_product(rng, 16, 5)
            if f.degree < 1:
                continue
            poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], x)
            want = []
            for g, mult in poly.factor_list()[1]:
                monic = sympy.Poly(g, x).monic().all_coeffs()
                want.append((Polynomial(Fraction(int(c.p), int(c.q)) for c in reversed(monic)), mult))
            assert factor_over_q(f) == sorted(want, key=lambda fm: factor_order_key(fm[0]))

    @pytest.mark.parametrize(
        "name, coeffs",
        [
            ("x^8+2", (2, 0, 0, 0, 0, 0, 0, 0, 1)),
            ("x^8-2", (-2, 0, 0, 0, 0, 0, 0, 0, 1)),
            ("x^10-3x+6", (6, -3, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
            # the minimal polynomial of sqrt2 + sqrt3 + sqrt5: modulo every
            # prime it splits into factors of degree <= 2, so only a
            # recombination of four or more of them proves it irreducible
            ("sqrt2+sqrt3+sqrt5", (576, 0, -960, 0, 352, 0, -40, 0, 1)),
        ],
    )
    def test_irreducible(self, name, coeffs):
        f = Polynomial(coeffs)
        assert factor_over_q(f) == [(f, 1)]
        assert factor_over_q(f * Fraction(-3, 7)) == [(f, 1)]

    def test_x12_plus_1(self):
        assert factor_over_q(P(1, *[0] * 11, 1)) == [(P(1, 0, 0, 0, 1), 1), (P(1, 0, 0, 0, -1, 0, 0, 0, 1), 1)]

    def test_quartic_pairs_that_split_modulo_every_prime(self):
        q = P(1, 0, -10, 0, 1)  # minimal polynomial of sqrt2 + sqrt3
        for other in (P(1, 0, 0, 0, 1), P(2, 0, 0, 0, 1)):
            assert factor_over_q(q * other) == sorted([(q, 1), (other, 1)], key=lambda fm: factor_order_key(fm[0]))

    def test_linear_spread_of_powers_of_5(self):
        f = from_roots([5**k for k in range(1, 14)])
        assert factor_over_q(f) == [(P(-(5**k), 1), 1) for k in range(1, 14)]
        assert factor_over_q(X * f * f) == [(X, 1)] + [(P(-(5**k), 1), 2) for k in range(1, 14)]
