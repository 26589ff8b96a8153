import pytest

from nilgrade.intutil import PRIME_PROOF_LIMIT, is_prime


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
