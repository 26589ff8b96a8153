import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
            prod = Polynomial([f.leading()])
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
    prod = Polynomial([f.leading()])
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
