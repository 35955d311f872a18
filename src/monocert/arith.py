"""Integer arithmetic base layer: valuations, factorization, Bezout, irreducible counts.

Everything here is exact big-integer arithmetic.  Factoring trial-divides
below 2^12, then splits by rho drawing from a fixed random stream.  The rho
path may vary with the stream, the answer cannot: primes come out ascending.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

_TRIAL_BOUND = 2**12

# Strong-pseudoprime bases proving primality below 3.317e24, the least strong
# pseudoprime to all thirteen (the first twelve pass 318665857834031151167461).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROOF_BOUND = 3_317_044_064_679_887_385_961_981


@dataclass(frozen=True)
class IntFactorization:
    """Complete factorization of a nonzero integer, primes ascending."""

    value: int
    factors: tuple[tuple[int, int], ...]

    @property
    def sign(self) -> int:
        return -1 if self.value < 0 else 1

    @property
    def prime_divisors(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def reconstruct(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 3.3e24, strong-base test above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = _MR_BASES
    if n >= _MR_PROOF_BOUND:
        # Past the proven range: extra pseudo-random witnesses (sizes this large
        # do not occur in the intended workloads).
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


def nu_stable(p: int, m: int, bound: int) -> int:
    """min(bound, nu_p(m**(p-1) - 1)) for odd p not dividing m, without forming m**(p-1).

    Tests m**(p-1) == 1 mod p**k for k = 1, 2, ..., bound via modular exponentiation.
    """
    if p == 2:
        raise ValueError("p must be an odd prime")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if bound < 1:
        raise ValueError("bound must be positive")
    if m % p == 0:
        raise ValueError(f"{p} divides {m}")
    nu = 0
    while nu < bound and pow(m, p - 1, p ** (nu + 1)) == 1:
        nu += 1
    return nu


def _pollard_rho(n: int, rng: random.Random) -> int:
    """Brent-cycle rho: some nontrivial factor of composite odd n."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
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
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> IntFactorization:
    """Complete factorization: trial division below 2^12, then Brent rho; primes ascending."""
    if n == 0:
        raise ValueError("cannot factorize zero")
    value = n
    n = abs(n)
    counts: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    # 2,3,5-wheel trial division.
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    d, i = 7, 0
    while d <= _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            counts[d] = counts.get(d, 0) + 1
            n //= d
        d += increments[i]
        i = (i + 1) % 8
    rng = None  # built only when a composite cofactor reaches rho
    stack = [n] if n > 1 else []
    while stack:
        t = stack.pop()
        if t == 1:
            continue
        if is_prime(t):
            counts[t] = counts.get(t, 0) + 1
            continue
        root = math.isqrt(t)
        if root * root == t:
            stack += [root, root]
            continue
        if rng is None:
            rng = random.Random(0)
        g = _pollard_rho(t, rng)
        stack += [g, t // g]
    factors = tuple(sorted(counts.items()))
    assert all(is_prime(p) for p, _ in factors)
    result = IntFactorization(value, factors)
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


def count_irreducibles(p: int, d: int) -> int:
    """Number of monic irreducible degree-d polynomials over F_p (necklace formula)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d < 1:
        raise ValueError("d must be positive")
    total = sum(_mobius(d // e) * p**e for e in range(1, d + 1) if d % e == 0)
    return total // d
