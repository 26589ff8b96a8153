from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from nilgrade.intutil import PRIME_PROOF_LIMIT, is_prime, power, primitive, rational_strs


def is_prime_by_division(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


class TestIsPrime:
    def test_matches_trial_division_below_ten_thousand(self):
        assert [n for n in range(-3, 10_000) if is_prime(n)] == [n for n in range(-3, 10_000) if is_prime_by_division(n)]

    @pytest.mark.parametrize(
        "n",
        [
            561,  # Carmichael: a^(n-1) = 1 mod n for every a coprime to n
            41041,  # Carmichael, 7 * 11 * 13 * 41
            2047,  # least strong pseudoprime to base 2
            3_215_031_751,  # strong pseudoprime to bases 2, 3, 5 and 7
            3_825_123_056_546_413_051,  # strong pseudoprime to the bases 2..23
            318_665_857_834_031_151_167_461,  # strong pseudoprime to the bases 2..37
        ],
    )
    def test_rejects_pseudoprimes(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [1_000_000_007, 2**31 - 1, 2**61 - 1])
    def test_accepts_large_primes(self, n):
        assert is_prime(n)

    def test_refuses_at_the_proof_limit(self):
        # the limit is itself a strong pseudoprime to all 13 bases
        with pytest.raises(ValueError, match=str(PRIME_PROOF_LIMIT)):
            is_prime(PRIME_PROOF_LIMIT)
        assert not is_prime(PRIME_PROOF_LIMIT - 1)


class TestPrimitive:
    @settings(max_examples=200)
    @given(ints=st.lists(st.integers(-10**6, 10**6), max_size=8), scale=st.integers(-50, 50))
    def test_content_one_signs_kept_and_content_times_result(self, ints, scale):
        ints = [scale * x for x in ints]
        got = primitive(ints)
        content = gcd(*ints)
        assert type(got) is list and len(got) == len(ints)
        assert gcd(*got) == 1 or not any(got)
        assert [(x > 0) - (x < 0) for x in got] == [(x > 0) - (x < 0) for x in ints]
        assert [content * x for x in got] == ints

    def test_reads_any_iterable(self):
        assert primitive(iter((4, -6, 0))) == [2, -3, 0]
        assert primitive(()) == [] and primitive([0, 0]) == [0, 0] and primitive([-7]) == [-1]


class TestRationalStrs:
    @settings(max_examples=300)
    @given(
        rows=st.lists(st.lists(st.integers(-(10**4), 10**4) | st.integers(10**40, 10**60) | st.integers(-(10**60), -(10**40)) | st.just(0), max_size=4), max_size=3),
        d=st.integers(1, 60) | st.just(1) | st.integers(min_value=10**30, max_value=10**35),
        scale=st.integers(1, 12),
    )
    def test_prints_what_fraction_prints(self, rows, d, scale):
        # scaled rows over a scaled d are the same rationals, not in lowest terms
        for xs, e in ((rows, d), ([[x * scale for x in row] for row in rows], d * scale)):
            assert rational_strs(xs, e) == [[str(Fraction(x, e)) for x in row] for row in xs]

    def test_pinned(self):
        assert rational_strs([[0, -3, 6, 10**50 + 2, -10**50]], 4) == [["0", "-3/4", "3/2", str(Fraction(10**50 + 2, 4)), f"-{10**50 // 4}"]]
        assert rational_strs([[7, -7, 0]], 1) == [["7", "-7", "0"]]
        assert rational_strs([], 5) == []


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class TestPower:
    @settings(max_examples=50)
    @given(x=st.integers(-10**6, 10**6), m=st.integers(1, 10**9))
    def test_ints_mod_m_equal_the_k_fold_product(self, x, m):
        mod_mul = lambda a, b: a * b % m
        x %= m
        for k in range(1, 65):
            assert power(x, k, mod_mul) == reduce(mod_mul, [x] * k)

    @settings(max_examples=30)
    @given(entries=st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    def test_2x2_int_matrices_equal_the_k_fold_product(self, entries):
        a = [entries[:2], entries[2:]]
        want = a
        for k in range(1, 65):
            assert power(a, k, mat_mul) == want
            want = mat_mul(want, a)
