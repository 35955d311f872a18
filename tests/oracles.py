"""Independent oracles the tests check the library against.

Resultants give the Dedekind screen of the splitting tests (p divides the
discriminant whenever p ramifies), decoding checks phi-adic developments, and
the closed-form discriminant of x^n - a is cross-checked against the
resultant route.  The closed-form polygon is checked against its binomial
sum taken term by term, over the cofactors U, T of x^u - m = phi*U + p*T
from a division over F_p, residual coefficients against a division that goes
through IntPoly, principal polygons against a lower convex hull that sorts
and dedups its own cloud, every IntPoly the engine builds unchecked against
the public constructor, Ore's index against a column-by-column lattice
count, the irreducibility test of x^n - m against the rule that factors n,
in-place division by a monic divisor against the loop that subtracts c * d
for each nonzero coefficient d below the top,
and irreducibility over F_p and over F_q = F_p[x]/(base) against trial
division, the latter with its residue arithmetic done by
FpPoly division mod base rather than by the factoring engine.  CNS digit
strings are decoded by Horner's rule and encoded one backward-division step
at a time, on the coefficient tuple of G alone.  Primality is checked
against all thirteen Miller-Rabin bases at every size, and factorizations
against trial division.  The paper's family corollaries are evaluated as
their congruence conditions, for the tests to hold the general
splitting-count criterion to them.
"""

import itertools
import math
import random

from monocert import arith, purefield
from monocert.fppoly import FpPoly
from monocert.polygon import IntPoly, PhiExpansion, Side


def derivative(f: IntPoly) -> IntPoly:
    return IntPoly([i * c for i, c in enumerate(f.coeffs)][1:])


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Integer resultant via fraction-free (Bareiss) elimination of the Sylvester matrix."""
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        return 0
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    rows = [[0] * size for _ in range(size)]
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows[i][i : i + m + 1] = fc
    for i in range(m):
        rows[n + i][i : i + n + 1] = gc
    sign, prev = 1, 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, size):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for i in range(k + 1, size):
            head = rows[i][k]
            if head == 0 and pivot == prev:
                continue
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * pivot - head * rows[k][j]) // prev
            rows[i][k] = 0
        prev = pivot
    return sign * rows[size - 1][size - 1]


def discriminant(f: IntPoly) -> int:
    """Discriminant of monic f, (-1)^(n(n-1)/2) * Res(f, f')."""
    if not f.is_monic:
        raise ValueError("discriminant implemented for monic polynomials")
    n = f.degree
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, derivative(f))


def binomial_discriminant(n: int, a: int) -> int:
    """Signed discriminant of x^n - a: (-1)^(n(n-1)/2) (-1)^(n^2-1) n^n a^(n-1)."""
    if n < 2:
        raise ValueError("n >= 2 required")
    if a == 0:
        raise ValueError("a must be nonzero")
    sign = (-1) ** (n * (n - 1) // 2) * (-1) ** (n * n - 1)
    return sign * n**n * a ** (n - 1)


def divide_in_place_by_loop(rest: list[int], dv) -> None:
    """Divide rest by the monic dv in place: rest[:deg dv] becomes the remainder, rest[deg dv:] the quotient.

    Quotient coefficient k is the value left at rest[k + deg dv]; the loop
    never multiplies by a zero coefficient of dv.
    """
    top = len(dv) - 1
    low = [(j, d) for j, d in enumerate(dv[:top]) if d]
    for k in range(len(rest) - len(dv), -1, -1):
        c = rest[k + top]
        if c:
            for j, d in low:
                rest[k + j] -= c * d


def decode(exp: PhiExpansion) -> IntPoly:
    """sum parts[j] * base**j: the polynomial a development encodes."""
    out = IntPoly.zero()
    power = IntPoly.const(1)
    for part in exp.parts:
        out = out + part * power
        power = power * exp.base
    return out


def is_canonical(a: IntPoly) -> bool:
    """a is what the public constructor builds from its coefficients: ints, trimmed."""
    return a == IntPoly(list(a.coeffs)) and all(type(c) is int for c in a.coeffs)


def cofactor_pair(u: int, m: int, p: int, phi: IntPoly) -> tuple[IntPoly, IntPoly]:
    """U, T with x^u - m = phi*U + p*T, U the [0, p) lift of (x^u - m)/phi mod p."""
    phi_bar = phi.reduce_mod(p)
    small = IntPoly.binomial(u, m).reduce_mod(p)
    quot, rem = divmod(small, phi_bar)
    if not rem.is_zero:
        raise ValueError(f"{phi_bar} does not divide x^{u} - {m} mod {p}")
    U = IntPoly.lift(quot)
    T = (IntPoly.binomial(u, m) - phi * U).exact_div_scalar(p)
    return U, T


def closed_form_horner(m: int, p: int, r: int, phi: IntPoly, T: IntPoly) -> tuple[IntPoly, IntPoly, int, tuple]:
    """R, A0, nu0 and points of the closed-form polygon by the binomial sum, in q = p^r Horner steps.

    R = H mod phi for H = m^(q-1) T + p^-(r+1) sum_{j=0}^{q-2} C(q, j) m^j (pT)^(q-j), the sum
    accumulated by Horner in powers of pT and reduced mod phi at every step; reducing mod the
    monic phi is Z-linear, so it commutes with the exact division by p^(r+1).
    """
    q = p**r
    pT = T.scale(p) % phi
    acc = IntPoly.zero()
    for k in range(q, 1, -1):
        acc = acc + IntPoly.const(math.comb(q, q - k) * m ** (q - k))
        if k > 2:
            acc = acc * pT % phi
    acc = acc * pT % phi * pT % phi
    R = (T.scale(m ** (q - 1)) % phi) + acc.exact_div_scalar(p ** (r + 1))
    A0 = R.scale(p ** (r + 1)) + IntPoly.const(m**q - m)
    nu0 = A0.padic_valuation(p)
    return R, A0, nu0, ((0, nu0),) + tuple((p**j, r - j) for j in range(r + 1))


def residual_coefficients(exp: PhiExpansion, side: Side, p: int) -> tuple[tuple[int, ...], ...]:
    """Residual coefficients of a side: part / p^target through IntPoly, reduced mod (p, phi), () above the side.

    A part's valuation is the min over its coefficients, each valued on its own.
    """
    phi_bar = exp.base.reduce_mod(p)
    (s, ys) = side.start
    step = side.height // side.side_degree
    out = []
    for j in range(side.side_degree + 1):
        part, target = exp.parts[s + j * side.ram_index], ys - j * step
        if part.is_zero or min(arith.padic_valuation(p, c) for c in part.coeffs if c) > target:
            out.append(())
        else:
            unit = part.exact_div_scalar(p**target)
            out.append((unit.reduce_mod(p) % phi_bar).coeffs)
    return tuple(out)


def lower_convex_hull(points) -> tuple[tuple[int, int], ...]:
    """Vertices of the lower convex hull, collinear interior points dropped."""
    best: dict[int, int] = {}
    for x, y in points:
        if x not in best or y < best[x]:
            best[x] = y
    pts = sorted(best.items())
    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) > 1:
            o, a = hull[-2], hull[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return tuple(hull)


def principal_vertices(points) -> tuple[tuple[int, int], ...]:
    """Vertices of the negative-slope prefix of the lower hull: () when it has no falling side."""
    hull = lower_convex_hull(points)
    k = 1
    while k < len(hull) and hull[k][1] < hull[k - 1][1]:
        k += 1
    return hull[:k] if k > 1 else ()


def polygon_index_by_columns(poly, degphi: int) -> int:
    """deg(phi) times the number of lattice points with x,y >= 1 on or under the chain, one column at a time."""
    if degphi < 1:
        raise ValueError("degphi must be positive")
    if poly.is_empty:
        return 0
    count = 0
    for side in poly.sides:
        (s, ys), (r, _) = side.start, side.end
        length, height = side.length, side.height
        for x in range(max(s, 1), r + 1):
            # floor of the chain height at x, exact in integers
            y = (ys * length - height * (x - s)) // length
            if y >= 1:
                count += y
    # interior vertex columns are shared by two sides; subtract the duplicates
    for v in poly.vertices[1:-1]:
        if v[0] >= 1 and v[1] >= 1:
            count -= v[1]
    return degphi * count


def binomial_irreducible_by_factoring(n: int, m: int) -> bool:
    """Irreducibility of x^n - m by the rule read off the primes of n: no q-th power for q | n, no -4k^4 when 4 | n."""
    if n < 2 or abs(m) < 2:
        raise ValueError("need n >= 2 and |m| >= 2")
    for q in arith.factorize(n).prime_divisors:
        if purefield._is_kth_power(m, q):
            return False
    if n % 4 == 0 and m < 0 and (-m) % 4 == 0 and purefield._is_kth_power((-m) // 4, 4):
        return False
    return True


def is_irreducible_by_trial_division(f: FpPoly) -> bool:
    """f has degree >= 1 and no monic polynomial of degree 1 .. deg f // 2 divides it."""
    p = f.p
    for d in range(1, f.degree // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if (f % FpPoly(p, low + (1,))).is_zero:
                return False
    return f.degree >= 1


def fq_mul(base: FpPoly, a: tuple, b: tuple) -> tuple:
    """a * b in F_p[x]/(base) for residue tuples: the integer product, reduced by FpPoly mod base."""
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return (FpPoly(base.p, prod) % base).coeffs


def fq_add(base: FpPoly, a: tuple, b: tuple, sign: int = 1) -> tuple:
    """a + sign * b in F_p[x]/(base) for residue tuples."""
    return FpPoly(base.p, [x + sign * y for x, y in itertools.zip_longest(a, b, fillvalue=0)]).coeffs


def fq_poly_mul(base: FpPoly, f: list, g: list) -> list:
    """The product of two polynomials over F_p[x]/(base), residue coefficients constant first."""
    out = [()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = fq_add(base, out[i + j], fq_mul(base, a, b))
    return out


def fq_divides(base: FpPoly, h: list, g: list) -> bool:
    """Monic h divides g over F_p[x]/(base), by schoolbook long division."""
    rem, d = list(g), len(h) - 1
    for k in range(len(rem) - 1 - d, -1, -1):
        c = rem[k + d]
        if c:
            for j, b in enumerate(h):
                rem[k + j] = fq_add(base, rem[k + j], fq_mul(base, c, b), -1)
    return not any(rem[:d])


def is_irreducible_over_fq_by_trial_division(base: FpPoly, g: list) -> bool:
    """g (nonzero top coefficient) has degree >= 1 and no monic polynomial over F_p[x]/(base) of degree 1 .. deg g // 2 divides it."""
    for d in range(1, (len(g) - 1) // 2 + 1):
        residues = [FpPoly(base.p, cs).coeffs for cs in itertools.product(range(base.p), repeat=base.degree)]
        for low in itertools.product(residues, repeat=d):
            if fq_divides(base, list(low) + [(1,)], g):
                return False
    return len(g) >= 2


def cns_decode_by_horner(coeffs: tuple[int, ...], mode: str, digits) -> tuple[int, ...]:
    """sum d_i theta^i in Z[x]/(G) for monic G = coeffs, by Horner's rule; the first digit outside the set raises."""
    b = abs(coeffs[0])
    allowed = range(0, b) if mode == "standard" else range(-(b - 1), b)
    for d in digits:
        if d not in allowed:
            raise ValueError(f"digit {d} outside the {mode} digit set")
    n = len(coeffs) - 1
    z = [0] * n
    for d in reversed(digits):
        lead = z[-1]
        z = [d - lead * coeffs[0]] + [z[i - 1] - lead * coeffs[i] for i in range(1, n)]
    return tuple(z)


def cns_encode_by_steps(coeffs: tuple[int, ...], mode: str, z: tuple[int, ...], step_cap: int | None):
    """(digits, terminated, cycle_witness, steps) of backward division from z, one step at a time.

    The digit is the residue of the constant coordinate mod b = |G(0)|, moved
    to r - b in signed mode when 2r > b.  A cap of None is the default
    10 (radius + 1) n log2(b) + 64 steps, radius the largest |coordinate|.
    """
    n, b = len(coeffs) - 1, abs(coeffs[0])
    if step_cap is None:
        step_cap = int(10 * (max(map(abs, z)) + 1) * n * math.log2(b)) + 64
    if not any(z):
        return (0,), True, None, 0
    digits, seen, state = [], {z}, z
    while len(digits) < step_cap:
        r = state[0] % b
        d = r if mode == "standard" or 2 * r <= b else r - b
        q = (state[0] - d) // coeffs[0]
        digits.append(d)
        state = tuple(state[i + 1] - coeffs[i + 1] * q for i in range(n - 1)) + (-q,)
        if not any(state):
            return tuple(digits), True, None, len(digits)
        if state in seen:
            return tuple(digits), False, state, len(digits)
        seen.add(state)
    return tuple(digits), False, None, len(digits)


def is_strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: n odd > 2 passes base a (a^d = 1 or a^(2^i d) = -1 mod n for n - 1 = 2^r d)."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime_all_bases(n: int) -> bool:
    """Primality as tested before the base schedule: every one of the thirteen bases 2 .. 41 for any n.

    Past their proof bound 3317044064679887385961981, forty witnesses drawn
    from random.Random(n) run too.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    if n >= 3317044064679887385961981:
        rng = random.Random(n)
        bases += tuple(rng.randrange(2, n - 1) for _ in range(40))
    return all(is_strong_probable_prime(n, a) for a in bases)


def factorize_by_trial_division(n: int) -> tuple[tuple[int, int], ...]:
    """(p, e) of |n| >= 1, primes ascending, by dividing out d = 2, 3, 4, ... up to the square root of the rest."""
    n, factors, d = abs(n), [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


# The paper's family corollaries: n = pa^r * pb^s, and two congruence conditions on m.
FAMILIES = {"5-7": (5, 7), "3-11": (3, 11), "5-11": (5, 11)}


def family_condition(family: str, r: int, s: int, m: int) -> tuple[int, int | None]:
    """(n, the first of the family's conditions (1) and (2) that m meets, or None), each evaluated verbatim."""
    pa, pb = FAMILIES[family]
    if family == "5-7":
        cond1 = s >= 7 and pow(m, 6, 7**8) == 1
        cond2 = r >= 5 and pow(m, 4, 5**6) == 1
    elif family == "3-11":
        cond1 = s >= 11 and pow(m, 10, 11**12) == 1
        cond2 = r >= 2 and pow(m, 2, 27) == 1
    else:
        cond1 = s >= 2 and m % 11 == 10 and pow(m, 10, 11**3) == 1
        cond2 = r >= 6 and pow(m, 4, 5**6) == 1
    return pa**r * pb**s, 1 if cond1 else 2 if cond2 else None
