"""Integer arithmetic base layer: valuations, factorization, Bezout, irreducible counts, index-divisor witnesses.

Everything here is exact big-integer arithmetic.  The primes below
_TRIAL_BOUND = 2^12 are sieved once, at import, into a tuple, a set and
their product.  Factoring takes g = gcd(|n|, product), whose primes are
exactly the small primes of n, and divides out only those; the cofactor is
split by Brent's rho drawing from a fixed random stream, within a fixed
budget of _RHO_BUDGET squarings per composite.  A composite rho could not split
is kept as a cofactor of the factorization, so a factorization is complete
only when it lists none.  The rho path may vary with the stream, the answer
cannot: primes come out ascending.  Each prime is proved once per call, by
the table or by one is_prime, however often rho meets it.

is_prime answers n < 2^12 from the set.  Above it runs Miller-Rabin on the
first k bases 2, 3, 5, ..., 41, k the least with n < psi_k, the least strong
pseudoprime to those k bases (OEIS A014233; Jaeschke, Math. Comp. 61, 1993;
Sorenson and Webster, Math. Comp. 86, 2017): a 31-bit n takes four bases.
Past psi_13 = 3.317e24 forty witnesses seeded by n are added.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass

_TRIAL_BOUND = 2**12


def _sieve(bound: int) -> tuple[int, ...]:
    """The primes below bound, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * bound
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return tuple(itertools.compress(range(bound), flags))


_SMALL_PRIMES = _sieve(_TRIAL_BOUND)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIMES)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k (OEIS A014233): the least strong pseudoprime to the first k bases, so
# those k bases prove primality below it; past psi_13 nothing is proven.
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321, 341550071728321,
    3825123056546413051, 3825123056546413051, 3825123056546413051,
    318665857834031151167461, 3317044064679887385961981,
)

# Rho squarings spent on one composite before it is kept as a cofactor: rounds
# up to r = 2^18, enough for prime factors up to about 2^36.
_RHO_BUDGET = 2**20


@dataclass(frozen=True)
class IntFactorization:
    """Factorization of a nonzero integer, primes ascending.

    cofactors lists, ascending, the composites rho did not split within its
    budget; their primes are missing from factors, so the factorization is
    complete only when cofactors is empty.
    """

    value: int
    factors: tuple[tuple[int, int], ...]
    cofactors: tuple[int, ...] = ()

    @property
    def sign(self) -> int:
        return -1 if self.value < 0 else 1

    @property
    def prime_divisors(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def is_squarefree(self) -> bool:
        if self.cofactors:
            raise ValueError(f"squarefreeness of {self.value} undecided: cofactor {self.cofactors[0]} not split")
        return all(e == 1 for _, e in self.factors)

    def reconstruct(self) -> int:
        n = self.sign * math.prod(self.cofactors)
        for p, e in self.factors:
            n *= p**e
        return n


def is_prime(n: int) -> bool:
    """Primality of n: a table lookup below 2^12, Miller-Rabin on the fewest proving bases above.

    Below psi_13 = 3.3e24 the first k bases of _MR_BASES prove the answer,
    k the least with n < psi_k (OEIS A014233, see the module docstring).
    Past it all thirteen run plus forty pseudo-random witnesses seeded by n
    (sizes this large do not occur in the intended workloads).
    """
    if n < _TRIAL_BOUND:
        return n in _SMALL_PRIME_SET
    for p in _MR_BASES:
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = _MR_BASES[: bisect.bisect_right(_MR_PSI, n) + 1]
    if n >= _MR_PSI[-1]:
        rng = random.Random(n)
        witnesses += tuple(rng.randrange(2, n - 1) for _ in range(40))
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def padic_valuation(p: int, m: int) -> int:
    """Largest k with p**k dividing m."""
    if m == 0:
        raise ValueError("valuation of zero undefined")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _valuation(p, m)


def _valuation(p: int, m: int) -> int:
    """padic_valuation for a p >= 2 the caller knows is prime and a nonzero m; p is not checked."""
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k


def _pollard_rho(n: int, rng: random.Random) -> int | None:
    """Brent-cycle rho: some nontrivial factor of composite odd n, or None.

    A round of r costs 2r squarings mod n; None once the next round would
    take the squarings spent on n past _RHO_BUDGET.
    """
    spent = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            if spent + 2 * r > _RHO_BUDGET:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            spent += 2 * r
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> IntFactorization:
    """Factorization: the primes below 2^12 through one gcd, then Brent rho within its budget.

    Primes ascend; a composite rho cannot split within _RHO_BUDGET squarings is
    listed in cofactors instead of being factored.
    """
    if n == 0:
        raise ValueError("cannot factorize zero")
    value = n
    n = abs(n)
    counts: dict[int, int] = {}
    # g has one copy of each prime below 2^12 dividing n; a g in the table is the last one
    g = math.gcd(n, _SMALL_PRIME_PRODUCT)
    small = iter(_SMALL_PRIMES)
    while g > 1:
        p = g if g in _SMALL_PRIME_SET else next(q for q in small if g % q == 0)
        g //= p
        counts[p] = e = _valuation(p, n)
        n //= p**e
    rng = None  # built only when a composite cofactor reaches rho
    proved = set(counts)  # every prime is proved once: from the table, or by is_prime below
    stack = [n] if n > 1 else []
    cofactors = []
    while stack:
        t = stack.pop()
        if t == 1:
            continue
        if t in proved or is_prime(t):
            proved.add(t)
            counts[t] = counts.get(t, 0) + 1
            continue
        root = math.isqrt(t)
        if root * root == t:
            stack += [root, root]
            continue
        if rng is None:
            rng = random.Random(0)
        g = _pollard_rho(t, rng)
        if g is None:
            cofactors.append(t)
        else:
            stack += [g, t // g]
    factors = tuple(sorted(counts.items()))
    assert all(p in proved for p, _ in factors)
    result = IntFactorization(value, factors, tuple(sorted(cofactors)))
    assert result.reconstruct() == value
    return result


def bezout_positive(u: int, n: int) -> tuple[int, int]:
    """Minimal (t, s) with u*t - n*s == 1, 1 <= t <= n, for coprime u, n."""
    if u < 1 or n < 1:
        raise ValueError("u and n must be positive")
    if math.gcd(u, n) != 1:
        raise ValueError(f"gcd({u}, {n}) != 1")
    t = pow(u, -1, n) if n > 1 else 1
    if t == 0:
        t = 1
    s = (u * t - 1) // n
    return t, s


def _mobius(n: int) -> int:
    """Mobius function of n >= 1 by trial division; n is a divisor of a polynomial degree, so small."""
    mu = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


@dataclass(frozen=True)
class IndexDivisorWitness:
    """More primes above p of residue degree d than monic irreducibles of degree d over F_p: p divides every index.

    The one witness type: the Ore split (ore) and the closed-form count (purefield) both return it.
    """

    p: int
    d: int
    ideal_count: int
    irreducible_count: int


def count_irreducibles(p: int, d: int) -> int:
    """Number of monic irreducible degree-d polynomials over F_p (necklace formula)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d < 1:
        raise ValueError("d must be positive")
    total = sum(_mobius(d // e) * p**e for e in range(1, d + 1) if d % e == 0)
    return total // d
