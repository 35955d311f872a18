import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocert import arith
from oracles import factorize_by_trial_division, is_prime_all_bases, is_strong_probable_prime

# OEIS A014233: psi_k, the least strong pseudoprime to the first k prime bases 2, 3, 5, ...
A014233 = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
# a proper divisor of each psi_k: every one is composite
_PSI_DIVISORS = {
    2047: 23,
    1373653: 829,
    25326001: 2251,
    3215031751: 151,
    2152302898747: 6763,
    3474749660383: 1303,
    341550071728321: 10670053,
    3825123056546413051: 149491,
    318665857834031151167461: 399165290221,
    3317044064679887385961981: 1287836182261,
}


def _is_prime_by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestIsPrime:
    def test_matches_trial_division(self):
        for n in range(-5, 5000):
            assert arith.is_prime(n) == _is_prime_by_trial_division(n), n

    def test_matches_trial_division_below_a_million(self):
        divisors = [d for d in range(2, 1000) if _is_prime_by_trial_division(d)]
        for n in range(10**6):
            expected = n >= 2
            for d in divisors:
                if d * d > n:
                    break
                if n % d == 0:
                    expected = False
                    break
            assert arith.is_prime(n) == expected, n

    def test_small_prime_table(self):
        expected = tuple(n for n in range(arith._TRIAL_BOUND) if _is_prime_by_trial_division(n))
        assert arith._TRIAL_BOUND == 2**12 and len(expected) == 564
        assert arith._SMALL_PRIMES == expected
        assert arith._SMALL_PRIME_SET == frozenset(expected)
        assert arith._SMALL_PRIME_PRODUCT == math.prod(expected)

    def test_schedule_is_a014233(self):
        assert arith._MR_PSI == A014233

    @pytest.mark.parametrize("k", range(1, 14))
    def test_each_psi_passes_its_first_k_bases(self, k):
        # so psi_k sits on the schedule's boundary: below it k bases run, from it on k + 1 (or all past psi_13)
        psi = A014233[k - 1]
        assert all(is_strong_probable_prime(psi, a) for a in arith._MR_BASES[:k])
        assert psi % _PSI_DIVISORS[psi] == 0 and 1 < _PSI_DIVISORS[psi] < psi

    @pytest.mark.parametrize(
        "n",
        [
            2047,  # strong pseudoprime to base 2
            1373653,  # to bases 2, 3
            25326001,  # to bases 2, 3, 5
            3215031751,  # to bases 2, 3, 5, 7
            2152302898747,  # to bases 2 through 11
            3474749660383,  # to bases 2 through 13
            341550071728321,  # to bases 2 through 19
            3825123056546413051,  # to bases 2 through 31
            399165290221 * 798330580441,  # to bases 2 through 37: base 41 is needed
            1287836182261 * 2575672364521,  # to bases 2 through 41; it is the proof bound, so seeded witnesses run
        ],
    )
    def test_strong_pseudoprimes_rejected(self, n):
        assert not arith.is_prime(n)

    @pytest.mark.parametrize("centre", sorted(set(A014233)) + [arith._TRIAL_BOUND])
    def test_matches_all_bases_around_each_boundary(self, centre):
        for n in range(centre - 2001 - centre % 2, centre + 2002, 2):
            assert arith.is_prime(n) == is_prime_all_bases(n), n

    @pytest.mark.parametrize("n", [2**61 - 1, 2**89 - 1, 2**127 - 1])
    def test_large_primes(self, n):
        assert arith.is_prime(n)

    def test_seeded_witnesses_only_past_the_proof_bound(self, monkeypatch):
        n = 2**127 - 1
        rng = random.Random(n)
        expected = [rng.randrange(2, n - 1) for _ in range(40)]
        draws = []

        class Recording(random.Random):
            def randrange(self, *args):
                value = super().randrange(*args)
                draws.append(value)
                return value

        monkeypatch.setattr(arith.random, "Random", Recording)
        assert arith.is_prime(2**61 - 1) and draws == []
        assert arith.is_prime(n) and draws == expected


class TestPadicValuation:
    def test_known_values(self):
        assert arith.padic_valuation(2, -16) == 4
        assert arith.padic_valuation(7, 1) == 0
        assert arith.padic_valuation(3, 6723) == 4

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            arith.padic_valuation(5, 0)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            arith.padic_valuation(6, 12)
        with pytest.raises(ValueError, match="not prime"):
            arith.padic_valuation(4, 8)

    @given(
        p=st.sampled_from([2, 3, 5, 7, 11, 97, 2**31 - 1]),
        m=st.integers(min_value=-(10**30), max_value=10**30).filter(bool),
    )
    def test_unchecked_loop_matches_valuation(self, p, m):
        # reference: strip p from |m|
        k, rest = 0, abs(m)
        while rest % p == 0:
            rest //= p
            k += 1
        assert arith._valuation(p, m) == arith.padic_valuation(p, m) == k
        assert arith._valuation(p, p**5 * m) == k + 5

    @given(
        p=st.sampled_from([2, 3, 5, 7, 11, 97]),
        k=st.integers(min_value=0, max_value=40),
        w=st.integers(min_value=1, max_value=10**9),
    )
    def test_exact_power_extraction(self, p, k, w):
        if w % p == 0:
            w += 1
            if w % p == 0:
                w += 1
        assert arith.padic_valuation(p, p**k * w) == k
        assert arith.padic_valuation(p, -(p**k) * w) == k


class TestFactorize:
    def test_known_values(self):
        assert arith.factorize(6723).factors == ((3, 4), (83, 1))
        assert arith.factorize(1).factors == ()
        assert arith.factorize(5764801).factors == ((7, 8),)

    def test_sign_tracked(self):
        f = arith.factorize(-105)
        assert f.sign == -1
        assert f.factors == ((3, 1), (5, 1), (7, 1))
        assert f.reconstruct() == -105

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            arith.factorize(0)

    def test_rho_range_and_determinism(self):
        n = 1000003 * 1000033  # both prime, past the trial bound
        f1 = arith.factorize(n)
        f2 = arith.factorize(n)
        assert f1 == f2
        assert f1.factors == ((1000003, 1), (1000033, 1))

    def test_prime_power_past_trial_bound(self):
        p = 1048583
        assert arith.factorize(p**2).factors == ((p, 2),)

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=200)
    def test_reconstruction(self, n):
        f = arith.factorize(n)
        assert f.reconstruct() == n
        assert all(arith.is_prime(p) for p, _ in f.factors)
        assert list(f.prime_divisors) == sorted(f.prime_divisors)

    def test_matches_trial_division(self):
        for n in range(-3000, 3001):
            if n:
                f = arith.factorize(n)
                assert f.factors == factorize_by_trial_division(n) and f.cofactors == () and f.sign * n > 0, n

    @pytest.mark.parametrize(
        "factors",
        [
            ((4093, 1),),  # the largest prime in the table
            ((4091, 1), (4099, 1)),  # one prime on each side of 2^12
            ((2, 5), (4093, 3)),
            ((3, 1), (5, 1), (7, 1), (4093, 1), (4099, 1)),
        ],
    )
    def test_products_straddling_the_table_edge(self, factors):
        n = math.prod(p**e for p, e in factors)
        assert arith.factorize(n).factors == factors
        assert arith.factorize(-n).factors == factors

    @pytest.mark.parametrize(
        "n, factors",
        [
            # 40- to 64-bit values: past the table, rho splits every composite cofactor
            (798458642536, ((2, 3), (5879, 1), (16976923, 1))),
            (13841332066875, ((3, 1), (5, 4), (1693, 1), (4360333, 1))),
            (247689761125194, ((2, 1), (3, 2), (1109431, 1), (12403243, 1))),
            (2932770763763220, ((2, 2), (3, 1), (5, 1), (61, 1), (801303487367, 1))),
            (48567521363889451, ((7, 2), (11, 2), (31, 1), (83, 1), (11177, 1), (284839, 1))),
            (979222502922186289, ((13, 1), (269, 1), (1439, 1), (194591989783, 1))),
            (2774005275976959350, ((2, 1), (5, 2), (57522991, 1), (964485757, 1))),
            ((2**31 - 1) * 2147483629, ((2147483629, 1), (2147483647, 1))),
            (4294967311 * 4294967357, ((4294967311, 1), (4294967357, 1))),
        ],
    )
    def test_pinned_large_values(self, n, factors):
        f = arith.factorize(n)
        assert (f.factors, f.cofactors) == (factors, ())

    @pytest.mark.parametrize(
        "factors",
        [
            ((4099, 1),),
            ((2, 5), (3, 1), (4099, 3)),
            ((1000003, 2),),  # a square: its root goes on the stack twice
            ((5, 2), (4099, 3), (1000003, 2), (1048583, 1)),
        ],
    )
    def test_each_prime_is_proved_once(self, factors, monkeypatch):
        # the table proves the small primes; each larger prime gets one is_prime, however often rho meets it
        proofs = Counter()
        real = arith.is_prime

        def counting(n):
            answer = real(n)
            proofs[n] += answer
            return answer

        monkeypatch.setattr(arith, "is_prime", counting)
        assert arith.factorize(math.prod(p**e for p, e in factors)).factors == factors
        assert +proofs == Counter({p: 1 for p, _ in factors if p >= arith._TRIAL_BOUND})


# primes between the trial-division bound 2^12 and 10^6: the rho path, not trial division, finds them
_PAST_TRIAL = (4099, 4111, 65537, 524287, 999983)
_PAST_TRIAL_CASES = (
    [((p, k),) for p in _PAST_TRIAL for k in range(2, 6)]
    + [tuple(sorted(((p, 2), (q, 1)))) for p, q in itertools.permutations(_PAST_TRIAL, 2)]
    + [tuple((p, 1) for p in trio) for trio in itertools.combinations(_PAST_TRIAL, 3)]
    + [((p, 1),) for p in (4099, 4111, 4127, 4129)]
    + [((2, 3), (3, 1), (4099, 2), (999983, 1))]
)


class TestFactorizePastTrialBound:
    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("factors", _PAST_TRIAL_CASES)
    def test_factors_reconstruct_and_repeat(self, factors, sign):
        value = sign * math.prod(p**e for p, e in factors)
        f = arith.factorize(value)
        assert f.factors == factors
        assert f.sign == sign
        assert f.reconstruct() == value
        assert arith.factorize(value) == f

    @pytest.mark.parametrize("low", (750_000, 800_003, 900_007, 950_000, 1_000_000))
    def test_rho_divides_for_any_stream(self, low):
        # the rho path depends on its random stream; that it finds a proper divisor does not
        p = next(k for k in range(low, 2 * low) if arith.is_prime(k))
        q = next(k for k in range(p + 2, 2 * p) if arith.is_prime(k))
        n = p * q  # two 20-bit primes: a 40-bit semiprime
        for s in range(6):
            g = arith._pollard_rho(n, random.Random(s))
            assert 1 < g < n and n % g == 0, (n, s)


# (2^61 - 1)(2^89 - 1): no rho within the budget finds a 61-bit prime factor
_UNSPLIT = (2**61 - 1) * (2**89 - 1)


class TestRhoBudget:
    def test_unsplit_composite_is_a_cofactor(self):
        n = -(3**5) * 4093 * (2**31 - 1) ** 2 * _UNSPLIT
        f = arith.factorize(n)
        assert f.factors == ((3, 5), (4093, 1), (2**31 - 1, 2))
        assert f.cofactors == (_UNSPLIT,)
        assert f.reconstruct() == n and f.sign == -1
        with pytest.raises(ValueError, match=f"cofactor {_UNSPLIT} not split"):
            f.is_squarefree

    def test_budget_bounds_the_squarings(self, monkeypatch):
        n = 1000003 * 1000033
        # the stream of Random(0) splits n in the round r = 1024, after 2 * (1 + 2 + ... + 1024) = 4094 squarings
        monkeypatch.setattr(arith, "_RHO_BUDGET", 4094)
        assert arith._pollard_rho(n, random.Random(0)) in (1000003, 1000033)
        monkeypatch.setattr(arith, "_RHO_BUDGET", 4093)
        assert arith._pollard_rho(n, random.Random(0)) is None
        monkeypatch.setattr(arith, "_RHO_BUDGET", 64)
        f = arith.factorize(7 * n)
        assert (f.factors, f.cofactors) == (((7, 1),), (n,))
        # a square is split before rho, so both copies are left as cofactors
        assert arith.factorize(n**2).cofactors == (n, n)


class TestSquarefree:
    def test_known_values(self):
        assert arith.factorize(30).is_squarefree
        assert not arith.factorize(12).is_squarefree
        assert arith.factorize(-105).is_squarefree


class TestBezout:
    def test_known_values(self):
        assert arith.bezout_positive(5, 6) == (5, 4)
        assert arith.bezout_positive(1, 9) == (1, 0)
        assert arith.bezout_positive(3, 7) == (5, 2)
        assert arith.bezout_positive(4, 1) == (1, 3)

    def test_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            arith.bezout_positive(6, 9)

    @given(u=st.integers(min_value=1, max_value=5000), n=st.integers(min_value=1, max_value=5000))
    def test_identity_and_range(self, u, n):
        import math

        if math.gcd(u, n) != 1:
            n += 1 if math.gcd(u, n + 1) == 1 else 0
            if math.gcd(u, n) != 1:
                return
        t, s = arith.bezout_positive(u, n)
        assert u * t - n * s == 1
        assert 1 <= t <= n
        assert s >= 0


class TestCountIrreducibles:
    def test_known_values(self):
        assert arith.count_irreducibles(7, 1) == 7
        assert arith.count_irreducibles(2, 2) == 1
        assert arith.count_irreducibles(2, 1) == 2
        assert arith.count_irreducibles(3, 2) == 3

    def test_gauss_identity(self):
        # summing e * N_p(e) over divisors e of d rebuilds p^d
        for p in (2, 3, 5, 7):
            for d in range(1, 7):
                total = sum(e * arith.count_irreducibles(p, e) for e in range(1, d + 1) if d % e == 0)
                assert total == p**d, (p, d)

    def test_mobius_matches_factorization(self):
        for n in range(1, 2000):
            factors = arith.factorize(n).factors
            expected = 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)
            assert arith._mobius(n) == expected, n

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            arith.count_irreducibles(4, 2)
        with pytest.raises(ValueError):
            arith.count_irreducibles(5, 0)
