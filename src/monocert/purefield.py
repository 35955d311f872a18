"""Monogenity analysis of pure fields defined by x^n - m.

Three independent certificate routes:

* a closed-form principal polygon for x^n - m at odd primes p | n with p
  coprime to u*m (n = u*p^r), driving the splitting-count non-monogenity
  criterion without ever expanding the polynomial: the correction term R is
  kept mod phi throughout, so no polynomial it forms reaches degree
  max(u, 2 deg phi);
* an explicit generator construction for m = a^u (a squarefree, u coprime to
  n, every prime of n dividing a) whose index is verified prime by prime;
* the direct route: full splitting data at candidate primes and the
  common-index-divisor test.

Verdicts carry every number needed to recheck them from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import arith, fppoly, ore
from .polygon import IntPoly, PrincipalPolygon, principal_from_points


def _iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 0 in pure integer arithmetic."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0 or k == 1:
        return x
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


def _is_kth_power(m: int, k: int) -> bool:
    if m < 0:
        if k % 2 == 0:
            return False
        return (-_iroot(-m, k)) ** k == m
    return _iroot(m, k) ** k == m


def binomial_irreducible(n: int, m: int) -> bool:
    """Irreducibility of x^n - m over Q (no q-th power for q | n, no -4k^4 when 4 | n)."""
    if n < 2 or abs(m) < 2:
        raise ValueError("need n >= 2 and |m| >= 2")
    for q in arith.factorize(n).prime_divisors:
        if _is_kth_power(m, q):
            return False
    if n % 4 == 0 and m < 0 and (-m) % 4 == 0 and _is_kth_power((-m) // 4, 4):
        return False
    return True


def _check_field(n: int, m: int) -> None:
    """Raise ValueError unless n >= 3, |m| >= 2 and x^n - m is irreducible over Q."""
    if n < 3:
        raise ValueError("n >= 3 required")
    if abs(m) < 2:
        raise ValueError("|m| >= 2 required")
    if not binomial_irreducible(n, m):
        raise ValueError(f"x^{n} - ({m}) is reducible over Q")


@dataclass(frozen=True)
class PureFieldSpec:
    """Validated parameters of the field generated by a root of x^n - m."""

    n: int
    m: int
    n_factors: arith.IntFactorization
    m_factors: arith.IntFactorization

    @classmethod
    def create(cls, n: int, m: int, seed: int = 0) -> "PureFieldSpec":
        _check_field(n, m)
        return cls(n, m, arith.factorize(n, seed), arith.factorize(m, seed))


@dataclass(frozen=True)
class MonogenityVerdict:
    """Certificate about the field of x^n - m; every number is recomputable."""

    status: str  # "not_monogenic" | "monogenic" | "inconclusive"
    provenance: str
    n: int
    m: int
    p: int | None = None
    witness_d: int | None = None
    ideal_count: int | None = None
    irreducible_count: int | None = None
    t: int | None = None
    s: int | None = None
    generator_poly: IntPoly | None = None
    generator_base: int | None = None
    generator_exponent: int | None = None
    alpha_index_bound: int | None = None
    notes: tuple[str, ...] = ()

    @classmethod
    def not_monogenic(cls, n, m, provenance, p, d, ideal_count, irreducible_count, notes=()):
        return cls(
            status="not_monogenic",
            provenance=provenance,
            n=n,
            m=m,
            p=p,
            witness_d=d,
            ideal_count=ideal_count,
            irreducible_count=irreducible_count,
            notes=tuple(notes),
        )

    @classmethod
    def monogenic(cls, n, m, provenance, t, s, G, a, u, alpha_index_bound, notes=()):
        return cls(
            status="monogenic",
            provenance=provenance,
            n=n,
            m=m,
            t=t,
            s=s,
            generator_poly=G,
            generator_base=a,
            generator_exponent=u,
            alpha_index_bound=alpha_index_bound,
            notes=tuple(notes),
        )

    @classmethod
    def inconclusive(cls, n, m, notes=()):
        return cls(status="inconclusive", provenance="none", n=n, m=m, notes=tuple(notes))

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status, "provenance": self.provenance, "n": self.n, "m": self.m}
        if self.status == "not_monogenic":
            out.update(
                {
                    "p": self.p,
                    "witness_d": self.witness_d,
                    "ideal_count": self.ideal_count,
                    "irreducible_count": self.irreducible_count,
                }
            )
        elif self.status == "monogenic":
            out.update(
                {
                    "t": self.t,
                    "s": self.s,
                    "generator_poly": list(self.generator_poly.coeffs),
                    "generator_base": self.generator_base,
                    "generator_exponent": self.generator_exponent,
                    "alpha_index_bound": self.alpha_index_bound,
                }
            )
        if self.notes:
            out["notes"] = list(self.notes)
        return out


@dataclass(frozen=True)
class ClosedFormData:
    """Closed-form polygon data for x^n - m at an odd p | n coprime to u*m.

    Of the correction polynomial H only its remainder R mod phi is built;
    A0 = p^(r+1) R + m^q - m is the constant part of the development.
    """

    p: int
    r: int
    u: int
    phi: IntPoly
    U: IntPoly
    T: IntPoly
    R: IntPoly
    A0: IntPoly
    nu0: int
    points: tuple[tuple[int, int], ...]

    def hull(self) -> PrincipalPolygon:
        return principal_from_points(self.points)


def _split_n(n: int, p: int) -> tuple[int, int]:
    r = 0
    u = n
    while u % p == 0:
        u //= p
        r += 1
    return u, r


def closed_form_lift(u: int, m: int, p: int, phi_bar: fppoly.FpPoly) -> IntPoly:
    """Monic lift of phi_bar valid for the closed-form construction.

    The plain [0, p) lift can leave the cofactor T divisible by phi mod p;
    bumping the lift by the constant p always repairs that, because it shifts
    T by -U and phi never divides U mod p.
    """
    phi = IntPoly.lift(phi_bar)
    _, T = _cofactor_pair(u, m, p, phi)
    if (T.reduce_mod(p) % phi_bar).is_zero:
        phi = phi + IntPoly.const(p)
    return phi


def _cofactor_pair(u: int, m: int, p: int, phi: IntPoly) -> tuple[IntPoly, IntPoly]:
    """U, T with x^u - m = phi*U + p*T, U the [0, p) lift of (x^u - m)/phi mod p."""
    phi_bar = phi.reduce_mod(p)
    small = IntPoly.binomial(u, m).reduce_mod(p)
    quot, rem = divmod(small, phi_bar)
    if not rem.is_zero:
        raise ValueError(f"{phi_bar} does not divide x^{u} - {m} mod {p}")
    U = IntPoly.lift(quot)
    T = (IntPoly.binomial(u, m) - phi * U).exact_div_scalar(p)
    return U, T


def closed_form_polygon(n: int, m: int, p: int, phi: IntPoly) -> ClosedFormData:
    """Closed-form principal polygon data for x^n - m with respect to p and phi.

    Writes n = u * p^r, splits x^u - m as phi*U + p*T, forms the remainder R
    of the correction polynomial H (the binomial sum of (pT)) mod phi by a
    Horner loop on polynomials of degree below 2 deg(phi), and reads the
    polygon off the points (0, nu0) and (p^j, r - j) without developing
    x^n - m itself; H is never built.
    """
    if p == 2 or not arith.is_prime(p):
        raise ValueError("p must be an odd prime")
    if n % p != 0:
        raise ValueError(f"{p} does not divide {n}")
    if m % p == 0:
        raise ValueError(f"{p} divides m = {m}")
    u, r = _split_n(n, p)
    if not phi.is_monic or phi.degree < 1:
        raise ValueError("phi must be monic of degree >= 1")
    phi_bar = phi.reduce_mod(p)
    if not fppoly.is_irreducible(phi_bar):
        raise ValueError(f"{phi_bar} is not irreducible")
    U, T = _cofactor_pair(u, m, p, phi)
    if (U.reduce_mod(p) % phi_bar).is_zero:
        raise ValueError("phi divides the cofactor U mod p")
    if (T.reduce_mod(p) % phi_bar).is_zero:
        raise ValueError("phi divides the cofactor T mod p; use closed_form_lift")
    q = p**r
    # R = H mod phi for H = m^(q-1) * T + (1/p^(r+1)) * sum_{j=0}^{q-2} C(q, j) m^j (pT)^(q-j),
    # the sum accumulated by Horner in powers of pT and kept mod phi at every step: reducing
    # mod the monic phi is Z-linear, so it commutes with the exact division by p^(r+1)
    pT = T.scale(p) % phi
    acc = IntPoly.zero()
    for k in range(q, 1, -1):
        acc = acc + IntPoly.const(math.comb(q, q - k) * m ** (q - k))
        if k > 2:
            acc = acc * pT % phi
    acc = acc * pT % phi * pT % phi
    R = (T.scale(m ** (q - 1)) % phi) + acc.exact_div_scalar(p ** (r + 1))
    A0 = R.scale(p ** (r + 1)) + IntPoly.const(m**q - m)
    if A0.is_zero:
        raise ValueError("degenerate constant part")
    nu0 = A0.padic_valuation(p)
    points = ((0, nu0),) + tuple((p**j, r - j) for j in range(r + 1))
    return ClosedFormData(p, r, u, phi, U, T, R, A0, nu0, points)


def _effective_nu(p: int, m: int, r: int, nu_cap: int) -> int:
    """min(r+1, nu), using the cap itself when nu is only known to exceed it (sound)."""
    nu = arith.nu_stable(p, m, nu_cap)
    ceiling = nu.cap if isinstance(nu, arith.CapExceeded) else nu
    return min(r + 1, ceiling)


def theorem_general_test(
    n: int,
    m: int,
    *,
    nu_cap: int = 64,
    d_bound: int | None = None,
    seed: int = 0,
) -> MonogenityVerdict | None:
    """Splitting-count non-monogenity criterion for x^n - m.

    For each odd prime p | n coprime to m (n = u * p^r), the polygon of every
    irreducible factor of x^u - m mod p contributes min(r+1, nu) primes of
    residue degree d = deg(factor), nu = nu_p(m^(p-1) - 1).  Whenever those
    counts beat the number of monic irreducible degree-d polynomials over F_p,
    p divides the index of every generator.  Returns None when no prime fires;
    that is never a monogenity claim.

    Runs entirely on integer arithmetic: no polynomial of degree n is built,
    so n may be huge.
    """
    if not binomial_irreducible(n, m):
        raise ValueError(f"x^{n} - ({m}) is reducible over Q")
    for p in arith.factorize(n, seed).prime_divisors:
        if p == 2 or m % p == 0:
            continue
        u, r = _split_n(n, p)
        effective = _effective_nu(p, m, r, nu_cap)
        d = 0
        while True:
            d += 1
            if d > u:
                break
            if d_bound is not None and d > d_bound:
                break
            pd = p**d
            # beyond this, N_p(d) >= 2 * effective * (u/d) can never be beaten
            if pd >= 16 and pd >= 4 * effective * u:
                break
            factor_count = fppoly.count_degree_d_factors(p, d, u, m)
            if factor_count == 0:
                continue
            bound = arith.count_irreducibles(p, d)
            if effective * factor_count > bound:
                return MonogenityVerdict.not_monogenic(
                    n,
                    m,
                    provenance=f"splitting-count-criterion:p={p}",
                    p=p,
                    d=d,
                    ideal_count=effective * factor_count,
                    irreducible_count=bound,
                )
    return None


_FAMILIES = {"5-7": (5, 7), "3-11": (3, 11), "5-11": (5, 11)}


@dataclass(frozen=True)
class CorollaryReport:
    """Family shortcut evaluated verbatim, cross-checked against the criterion."""

    family: str
    r: int
    s: int
    m: int
    corollary_fires: bool
    fired_condition: int | None
    theorem_verdict: MonogenityVerdict | None
    agree: bool
    discrepancy: str | None = None


def corollary_checks(family: str, r: int, s: int, m: int, *, nu_cap: int = 64, seed: int = 0) -> CorollaryReport:
    """Evaluate a family hypothesis verbatim and compare with the general criterion.

    The family conditions are congruence shortcuts; each firing must be
    reproduced by theorem_general_test.  A shortcut that fires while the
    criterion does not is reported as a discrepancy, not suppressed.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}")
    if r < 1 or s < 1:
        raise ValueError("r and s must be positive")
    pa, pb = _FAMILIES[family]
    n = pa**r * pb**s
    if not binomial_irreducible(n, m):
        raise ValueError(f"x^{n} - ({m}) is reducible over Q")
    if family == "5-7":
        cond1 = r >= 1 and s >= 7 and pow(m, 6, 7**8) == 1
        cond2 = r >= 5 and s >= 1 and pow(m, 4, 5**6) == 1
    elif family == "3-11":
        cond1 = r >= 1 and s >= 11 and pow(m, 10, 11**12) == 1
        cond2 = r >= 2 and s >= 1 and pow(m, 2, 27) == 1
    else:
        cond1 = r >= 1 and s >= 2 and m % 11 == 10 and pow(m, 10, 11**3) == 1
        cond2 = r >= 6 and s >= 1 and pow(m, 4, 5**6) == 1
    fired = 1 if cond1 else 2 if cond2 else None
    verdict = theorem_general_test(n, m, nu_cap=nu_cap, seed=seed)
    fires = fired is not None
    agree = (not fires) or verdict is not None
    discrepancy = None
    if not agree:
        discrepancy = (
            f"family {family} condition ({fired}) holds for r={r}, s={s}, m={m} "
            f"but the splitting-count inequality does not fire"
        )
    return CorollaryReport(family, r, s, m, fires, fired, verdict, agree, discrepancy)


def detect_power_decomposition(n: int, m: int, seed: int = 0) -> tuple[int, int] | None:
    """(a, u) with m = a^u satisfying the generator-construction hypotheses, largest u.

    Only u = g, g largest with |m| = b^g, can give a squarefree a = +-b, so m
    is factored only when it is a perfect power, and then only its root b, once
    the sign, gcd(u, n) and the primes of n pass.  g is found by taking exact
    q-th roots for primes q alone, as long as they exist: the exponents k with
    |m| a k-th power are the divisors of g, so g is the product of the q taken.
    """
    b, u, q = abs(m), 1, 2
    while q <= b.bit_length():
        root = _iroot(b, q)
        if root**q == b:
            b, u = root, u * q
        else:
            q += 1
            while not arith.is_prime(q):
                q += 1
    if u == 1:
        return None
    if (m < 0 and u % 2 == 0) or math.gcd(u, n) != 1:
        return None
    if any(b % p for p in arith.factorize(n, seed).prime_divisors) or not arith.factorize(b, seed).is_squarefree:
        return None
    return (-b if m < 0 else b), u


class SelfCheckError(RuntimeError):
    """A certificate failed its own verification: a defect in the engine, never an answer."""


def construct_generator(n: int, a: int, u: int, *, seed: int = 0) -> MonogenityVerdict:
    """Power-basis generator for the field of x^n - a^u via a Bezout exponent pair.

    theta = alpha^t / a^s is a root of G = x^n - a (u*t - n*s = 1); the claim
    is certified by splitting every prime of a in G's order and checking index
    valuation zero.  The defining root alpha itself is never a generator: its
    index is divisible by each prime of a at least (n-1)(u-1)/2 times, which
    this routine also verifies on x^n - a^u.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    if u < 2:
        raise ValueError("u >= 2 required")
    if math.gcd(u, n) != 1:
        raise ValueError(f"gcd(u, n) = {math.gcd(u, n)} != 1")
    if abs(a) < 2:
        raise ValueError("|a| >= 2 required")
    a_fac = arith.factorize(a, seed)
    if not a_fac.is_squarefree:
        raise ValueError(f"a = {a} is not squarefree")
    n_primes = set(arith.factorize(n, seed).prime_divisors)
    if not n_primes <= set(a_fac.prime_divisors):
        missing = sorted(n_primes - set(a_fac.prime_divisors))
        raise ValueError(f"every prime of n must divide a; missing {missing}")
    t, s = arith.bezout_positive(u, n)
    G = IntPoly.binomial(n, a)
    F = IntPoly.binomial(n, a**u)
    alpha_bound = (n - 1) * (u - 1) // 2
    notes = []
    for q in a_fac.prime_divisors:
        split_g = ore.ore_split(G, q, seed)
        if not split_g.exact or split_g.index_valuation != 0:
            raise SelfCheckError(f"index check failed at q={q}: expected exact valuation 0, got {split_g}")
        split_f = ore.ore_split(F, q, seed)
        if split_f.index_valuation < alpha_bound:
            raise SelfCheckError(f"defining-root index bound failed at q={q}")
        notes.append(f"q={q}: generator index valuation 0; defining-root index valuation >= {alpha_bound}")
    return MonogenityVerdict.monogenic(
        n,
        a**u,
        provenance="generator-construction",
        t=t,
        s=s,
        G=G,
        a=a,
        u=u,
        alpha_index_bound=alpha_bound,
        notes=notes,
    )


def binomial_discriminant(n: int, a: int) -> int:
    """Signed discriminant of x^n - a: (-1)^(n(n-1)/2) (-1)^(n^2-1) n^n a^(n-1)."""
    if n < 2:
        raise ValueError("n >= 2 required")
    if a == 0:
        raise ValueError("a must be nonzero")
    sign = (-1) ** (n * (n - 1) // 2) * (-1) ** (n * n - 1)
    return sign * n**n * a ** (n - 1)


def analyze(
    n: int,
    m: int,
    *,
    seed: int = 0,
    nu_cap: int = 64,
    d_bound: int | None = None,
    split_degree_budget: int = 64,
) -> MonogenityVerdict:
    """Full verdict pipeline for x^n - m.

    Order: generator construction when m = a^u under its hypotheses (m is
    factored only when it is a perfect power, and then only its root); then the
    splitting-count criterion; then direct splits with the common-index-divisor
    test at every prime of n*m below n (degree permitting).  Otherwise an
    honest Inconclusive: monogenity is claimed only through the verified
    construction.
    """
    _check_field(n, m)
    notes: list[str] = []
    decomp = detect_power_decomposition(n, m, seed)
    if decomp is not None:
        a, u = decomp
        return construct_generator(n, a, u, seed=seed)
    notes.append("no squarefree power decomposition matches the generator construction")
    verdict = theorem_general_test(n, m, nu_cap=nu_cap, d_bound=d_bound, seed=seed)
    if verdict is not None:
        return verdict
    notes.append("splitting-count criterion did not fire")
    if n <= split_degree_budget:
        F = IntPoly.binomial(n, m)
        candidates = [p for p in range(2, n) if n * m % p == 0 and arith.is_prime(p)]
        for p in candidates:
            try:
                witness = ore.common_index_divisor(F, p, seed)
            except ore.NotPRegular:
                notes.append(f"p={p}: splitting not p-regular; only an index lower bound is known")
                continue
            if witness is not None:
                return MonogenityVerdict.not_monogenic(
                    n,
                    m,
                    provenance=f"common-index-divisor:p={p}",
                    p=p,
                    d=witness.d,
                    ideal_count=witness.ideal_count,
                    irreducible_count=witness.irreducible_count,
                )
        notes.append(f"no common index divisor among primes {candidates}")
    else:
        notes.append(f"degree {n} exceeds the direct-split budget {split_degree_budget}")
    return MonogenityVerdict.inconclusive(n, m, notes)
