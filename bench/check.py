"""Output checker: every benchmark op is verified here, outside the timed region.

The checks recompute each certificate from its own numbers, with small
independent helpers (necklace count, root counting, one backward-division
step) wherever the program's answer would otherwise only be compared with
itself.  A check returns (ok, decided): ok is False for any wrong output,
decided is True for a checked conclusive answer.
"""

from __future__ import annotations

import hashlib
import math

REDUCIBLE = "is reducible over Q"


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24 (all sizes used here)."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mobius(n: int) -> int:
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


def necklace_count(p: int, d: int) -> int:
    """Monic irreducible polynomials of degree d over F_p."""
    return sum(mobius(d // e) * p**e for e in range(1, d + 1) if d % e == 0) // d


def degree_d_factor_count(p: int, d: int, u: int, m: int) -> int:
    """Distinct irreducible degree-d factors of x^u - m over F_p, by Moebius inversion of root counts."""
    c = m % p
    if c == 0:
        return 1 if d == 1 else 0
    while u % p == 0:
        u //= p

    def roots(e: int) -> int:
        order = p**e - 1
        g = math.gcd(u, order)
        return g if pow(c, order // g, p) == 1 else 0

    exact = sum(mobius(d // e) * roots(e) for e in range(1, d + 1) if d % e == 0)
    return exact // d


def _stable_nu_at_most(p: int, m: int, ceiling: int) -> int:
    """min(ceiling, nu_p(m^(p-1) - 1))."""
    k = 0
    while k < ceiling and pow(m, p - 1, p ** (k + 1)) == 1:
        k += 1
    return k


def check_verdict(mc, n: int, m: int, out) -> tuple[bool, bool]:
    """Check an analyze() outcome for x^n - m: a verdict or the documented rejection."""
    if isinstance(out, BaseException):
        if isinstance(out, ValueError) and REDUCIBLE in str(out):
            return (not mc.purefield.binomial_irreducible(n, m)), True
        return False, False
    if out.n != n or out.m != m:
        return False, False
    if out.status == "inconclusive":
        return True, False
    if out.status == "monogenic":
        a, u, G = out.generator_base, out.generator_exponent, out.generator_poly
        ok = (
            u * out.t - n * out.s == 1
            and G is not None
            and tuple(G.coeffs) == (-a,) + (0,) * (n - 1) + (1,)
            and a**u == m
        )
        return ok, ok
    if out.status != "not_monogenic":
        return False, False
    p, d, L, N = out.p, out.witness_d, out.ideal_count, out.irreducible_count
    if not (is_prime(p) and d >= 1 and N == necklace_count(p, d) and N < L):
        return False, False
    route, _, prime = out.provenance.partition(":p=")
    if prime != str(p):
        return False, False
    if route == "splitting-count-criterion":
        if n % p or m % p == 0 or p == 2:
            return False, False
        u, r = n, 0
        while u % p == 0:
            u //= p
            r += 1
        ok = _stable_nu_at_most(p, m, r + 1) * degree_d_factor_count(p, d, u, m) == L
        return ok, ok
    if route == "common-index-divisor":
        split = mc.ore.ore_split(mc.IntPoly.binomial(n, m), p)
        ok = split.exact and sum(1 for s in split.slots if s.f == d) == L
        return ok, ok
    return False, False


def check_polygons(out) -> tuple[bool, bool]:
    """The closed-form hull and the developed principal polygon must agree."""
    if isinstance(out, BaseException):
        return False, False
    closed, direct = out
    ok = closed == direct and not direct.is_empty
    return ok, ok


def _digit_ok(c0: int, mode: str, d: int) -> bool:
    b = abs(c0)
    return 0 <= d < b if mode == "standard" else -b < d < b


def _horner(coeffs: tuple[int, ...], digits) -> tuple[int, ...]:
    """Evaluate sum d_i theta^i in Z[x]/(G), coordinates on the power basis."""
    n = len(coeffs) - 1
    z = [0] * n
    for d in reversed(digits):
        lead = z[-1]
        z = [d - lead * coeffs[0]] + [z[i - 1] - lead * coeffs[i] for i in range(1, n)]
    return tuple(z)


def _step(coeffs: tuple[int, ...], mode: str, z: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """One backward-division step: the selected digit and the state (z - digit) / theta."""
    c0, b = coeffs[0], abs(coeffs[0])
    r = z[0] % b
    d = r if mode == "standard" or 2 * r <= b else r - b
    q = (z[0] - d) // c0
    return d, tuple(z[i + 1] - coeffs[i + 1] * q for i in range(len(z) - 1)) + (-q,)


def check_digits(coeffs: tuple[int, ...], mode: str, z: tuple[int, ...], out) -> tuple[bool, bool]:
    """decode(encode(z)) == z with legal digits, or an orbit from z that really revisits its cycle state."""
    if isinstance(out, BaseException):
        return False, False
    exp, decoded = out
    if not exp.digits or not all(_digit_ok(coeffs[0], mode, d) for d in exp.digits):
        return False, False
    if decoded != _horner(coeffs, exp.digits):
        return False, False
    if exp.terminated:
        ok = decoded == z
        return ok, ok
    if exp.cycle_witness is None:
        return True, False  # step cap reached: an honest non-answer
    orbit = [z]
    for digit in exp.digits:
        d, state = _step(coeffs, mode, orbit[-1])
        if d != digit:
            return False, False
        orbit.append(state)
    ok = orbit[-1] == tuple(exp.cycle_witness) and orbit[-1] in orbit[:-1]
    return ok, ok


def digest(summary) -> str:
    """Short stable fingerprint of an op's output summary."""
    return hashlib.sha256(repr(summary).encode()).hexdigest()[:16]
