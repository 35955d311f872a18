"""Integer polynomial input, phi-adic developments, principal Newton polygons and their residual polynomials.

`IntPoly` is the input type: F, phi and the lifts built from them.  A part of
a development is a plain coefficient tuple of ints (constant first, trimmed,
() for zero): Ore's theorem reads only its p-adic valuation and its residues
mod p.  A residual polynomial is its coefficient tuple, each coefficient a
residue over phi mod p, in the format `fppoly.fq_factor` takes.

All geometry is exact: cloud points are integer pairs, hull comparisons are
integer cross products, slopes are Fractions in lowest terms.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import arith
from .fppoly import FpPoly, _check_modulus, _fmt_poly, _int_pmul, _trimmed, is_irreducible


class IntPoly:
    """Dense polynomial with arbitrary-precision integer coefficients: the input type of the engine.

    An immutable value type holding F, phi and their lifts, with no ring
    arithmetic: the engine computes on coefficient lists, and the parts of a
    development are plain int tuples.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        _set_coeffs(self, tuple(_trimmed(_integers(coeffs))))

    def __setattr__(self, *a):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def _wrap(cls, coeffs: Sequence[int]) -> "IntPoly":
        """An IntPoly over int coefficients the engine already holds trimmed (nonzero top, or none).

        The trusted constructor: nothing is converted or trimmed, and the slot
        is set through the `coeffs` descriptor itself, past the immutability
        guard.  Only engine code whose coefficients are ints by construction
        calls it; the tests hold every such route to what `IntPoly(coeffs)`
        builds (`oracles.is_canonical`).
        """
        out = object.__new__(cls)
        _set_coeffs(out, tuple(coeffs))
        return out

    @classmethod
    def binomial(cls, n: int, m: int) -> "IntPoly":
        """x**n - m."""
        if n < 1:
            raise ValueError("n must be positive")
        if n - 1 > sys.maxsize:
            raise ValueError(f"degree {n} is too large for a dense polynomial")
        # the top is 1, so only -m needs the public constructor's check: a float raises the ValueError naming it
        coeffs = [-m] + [0] * (n - 1) + [1]
        coeffs[:1] = _integers(coeffs[:1])
        return cls._wrap(coeffs)

    @classmethod
    def lift(cls, f: FpPoly) -> "IntPoly":
        """Integer lift with coefficients in [0, p)."""
        return cls._wrap(f.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def evaluate(self, a: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def reduce_mod(self, p: int) -> FpPoly:
        return FpPoly(p, self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPoly) and other.coeffs == self.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self) -> str:
        return _fmt_poly(self.coeffs)


_set_coeffs = IntPoly.coeffs.__set__  # the slot's own setter, which IntPoly.__setattr__ does not guard


def _content_valuation(coeffs: Sequence[int], p: int) -> int:
    """The min of the p-adic valuations of the nonzero coefficients, some nonzero: the valuation of their gcd.

    p is not checked; the caller has proven it prime.
    """
    return arith._valuation(p, math.gcd(*coeffs))


def _integers(values: Iterable) -> list[int]:
    """values as a list of ints; a value that is no integer (a float, a string) raises a ValueError naming it."""
    out = []
    for v in values:
        try:
            out.append(operator.index(v))
        except TypeError:
            raise ValueError(f"{v!r} is not an integer") from None
    return out


def _divide_in_place(rest: list[int], dv: Sequence[int]) -> None:
    """Divide rest by the monic dv in place: rest[:deg dv] becomes the remainder, rest[deg dv:] the quotient.

    Quotient coefficient k is the value left at rest[k + deg dv].  A
    quadratic dv = x^2 + a1 x + a0 (`cns.decode`'s digit base, `_mulmod`'s
    modulus, the phi that `purefield._binomial_remainder` reduces x^u - m
    by, and `phi_expand`'s phi when F is not x^n + f0 or phi has a0 = 0 or
    a double root) carries the two pending coefficients below the top in
    locals, so each quotient coefficient costs one list read, one list
    write and two products, zero or not.  Every other degree subtracts
    c * d from the list and never multiplies by a zero coefficient of dv;
    `phi_expand` divides by such a phi when F is not x^n + f0, when
    phi(0) = 0 or phi has a double root, or when the development is too
    short for `_euler_parts` to pay.
    """
    if len(dv) == 3 and len(rest) > 2:
        a0, a1 = dv[0], dv[1]
        c, below = rest[-1], rest[-2]
        for k in range(len(rest) - 3, -1, -1):
            rest[k + 2] = c
            c, below = below - a1 * c, rest[k] - a0 * c
        rest[1], rest[0] = c, below
        return
    top = len(dv) - 1
    low = [(j, d) for j, d in enumerate(dv[:top]) if d]
    for k in range(len(rest) - len(dv), -1, -1):
        c = rest[k + top]
        if c:
            for j, d in low:
                rest[k + j] -= c * d


def _mulmod(a: Sequence[int], b: Sequence[int], dv: Sequence[int]) -> list[int]:
    """a * b mod the monic dv on coefficient lists: the product `_int_pmul`, reduced by `_divide_in_place`."""
    out = _int_pmul(a, b)
    _divide_in_place(out, dv)
    return _trimmed(out[: len(dv) - 1])


def _powmod(base: Sequence[int], e: int, dv: Sequence[int]) -> list[int]:
    """base**e mod the monic dv, by square-and-multiply over `_mulmod`; base must already be reduced.

    Modulo a linear dv the reduced base is a constant, and so is every power of it: one integer power.
    """
    if len(dv) == 2:
        return _trimmed([(base[0] if base else 0) ** e])
    out = [1]
    for bit in bin(e)[2:]:
        out = _mulmod(out, out, dv)
        if bit == "1":
            out = _mulmod(out, base, dv)
    return out


# phi_expand develops x^n + f0 over a phi of degree >= 3 by `_euler_parts` only when repeated division would compute
# more quotient coefficients than this.  Timed against the division on x^n - 18 (n <= 200, counts 1, 2, 3, 5 and
# all parts, phi with coefficients in [1, 9]; Python 3.11, one core of a 2-vCPU Xeon), the recurrence broke even
# at about 200 such coefficients for d = 3, 260 for d = 4, 300 to 390 for d = 5 and 390 for d = 6, where its fixed
# setup (the elimination and x^n mod phi, about 0.07 ms at d = 4) stops outweighing the divisions it saves.
_EULER_MIN_QUOTIENT = 400


def _euler_parts(n: int, phi: Sequence[int], count: int) -> list[list[int]] | None:
    """The leading `count` parts of x^n over the monic phi of degree d >= 2, each padded to d coefficients.

    None when phi(0) = 0 or phi has a double root: then x phi' is no unit mod phi, and the elimination below
    finds no pivot.  With x^n = sum P_J phi^J and x phi' P_J = Q_J phi + B_J (deg B_J < d), Euler's identity
    x (x^n)' = n x^n reads, digit by digit in phi, x P_J' + J Q_J + (J+1) B_(J+1) = n P_J.  So
    P_(J+1) = W (n P_J - x P_J' - J Q_J) mod phi / ((J+1) D), and the division is exact, for
    D = det(multiplication by x phi' mod phi) and W = D (x phi')^-1 mod phi, which one fraction-free
    Gauss-Jordan elimination gives.  P_0 is x^n mod phi by `_powmod`; each later part is one d x d matrix,
    fixed up to a multiple of J, applied to the one before.
    """
    d = len(phi) - 1
    # column j: x^j x phi' = quot phi + rem; at j = 0 quot = d and rem = x phi' - d phi, then one shift and reduction
    rem, quot = [(i - d) * a for i, a in enumerate(phi[:d])], [d]
    rems, quots = [], []
    for _ in range(d):
        rems.append(rem)
        quots.append(quot + [0] * (d - len(quot)))
        t = rem[-1]
        rem, quot = [-t * phi[0]] + [r - t * a for r, a in zip(rem, phi[1:d])], [t] + quot
    # [M | I] -> [D I | W] for M = [rems] the matrix of multiplication by x phi'; each division is exact
    rows = [[rem[i] for rem in rems] + [int(i == k) for k in range(d)] for i in range(d)]
    last = 1
    for k in range(d):
        piv = next((i for i in range(k, d) if rows[i][k]), None)
        if piv is None:
            return None
        rows[k], rows[piv] = rows[piv], rows[k]
        top = rows[k]
        pk = top[k]
        for i, row in enumerate(rows):
            if i != k:
                rows[i] = [(pk * a - row[k] * b) // last for a, b in zip(row, top)]
        last = pk
    W = [row[d:] for row in rows]
    # part J+1 = (K0 - J K1) P_J / ((J+1) D) for K0 = W (n - x d/dx) and K1 = W [quots]
    K0 = [[w * (n - l) for l, w in enumerate(row)] for row in W]
    K1 = [[sum(map(operator.mul, row, col)) for col in quots] for row in W]
    part = _powmod([0, 1], n, phi)
    parts = [part + [0] * (d - len(part))]
    for j in range(count - 1):
        s = (j + 1) * last
        part = parts[-1]
        parts.append(
            [(sum(map(operator.mul, r0, part)) - j * sum(map(operator.mul, r1, part))) // s for r0, r1 in zip(K0, K1)]
        )
    return parts


@dataclass(frozen=True)
class PhiExpansion:
    """F = sum parts[j] * base**j with deg parts[j] < deg base.

    Each part is its coefficient tuple of ints, constant first, trimmed, ()
    for zero.  A prefix development (`phi_expand` with `count`) keeps only
    the leading parts and satisfies F = sum parts[j] * base**j mod
    base**len(parts).  The public constructor checks each part's form, so a
    list, an untrimmed tuple, a coefficient that is no int, or a longer part,
    which belongs to no development in powers of base, raises a ValueError
    naming the part.  `phi_expand` returns through `_wrap`, which skips that
    check: each of its routes builds every part in that form, and the tests
    hold every route to the public constructor on the same parts.
    """

    base: IntPoly
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = self.base.degree
        for j, a in enumerate(self.parts):
            if type(a) is not tuple or len(a) > d or (a and not a[-1]) or any(type(c) is not int for c in a):
                raise ValueError(f"part {j} = {a!r} is no trimmed tuple of ints of degree below deg base = {d}")

    @classmethod
    def _wrap(cls, base: IntPoly, parts: tuple[tuple[int, ...], ...]) -> "PhiExpansion":
        """A development the engine built, every part already in form: __post_init__ is skipped."""
        out = object.__new__(cls)
        out.__dict__.update(base=base, parts=parts)
        return out


def phi_expand(F: IntPoly, phi: IntPoly, *, count: int | None = None) -> PhiExpansion:
    """phi-adic development of F: parts[j] of degree < deg phi with F = sum parts[j] * phi**j, each an int tuple.

    With `count`, only parts[0 .. count-1] are developed (all of them when
    count exceeds deg F // deg phi + 1); the others are never computed.

    When phi = x^d - c (every linear phi among them), no division is done:
    a term f_i x^i with i = k*d + r is x^r (phi + c)^k, so by the binomial
    theorem it adds f_i C(k, j) c^(k-j) to coefficient r of parts[j] for
    j <= k, starting at j = min(k, count - 1).  For F = x^n + f0 with
    n = k*d + r that is one column: part j is the single term
    C(k, j) c^(k-j) x^r, built as it is going down j, and part 0 also holds
    f0, which may share position 0 with the term or cancel it (x^6 - 64
    over x - 2 has part 0 = ()); for x^n - m that is O(count) integer
    operations.  Any other F adds its terms into a count x d accumulator,
    which still costs no division (x^750 + 3x + 5 over x + 3: 0.7 ms,
    against 67 ms by repeated division; Python 3.11, one core of a 2-vCPU
    Xeon).  When F = x^n + f0 and phi = x^2 + a1 x + a0 with
    a0 != 0 and a1^2 != 4 a0, no division is done either: part 0 comes
    from n steps of the two-term recurrence of 1/(1 + a1 t + a0 t^2), and
    each later part from the one before by a fixed number of products and
    two exact divisions, so `count` parts cost n + count steps (derived
    beside the code).  When F = x^n + f0 and phi has degree d >= 3,
    phi(0) != 0 and distinct roots, and the divisions below would compute
    more than `_EULER_MIN_QUOTIENT` quotient coefficients (count parts take
    count (n - d (count - 1) / 2) of them), `_euler_parts` develops x^n
    without dividing: part 0 is x^n mod phi by square-and-multiply, and
    Euler's identity x F' = n F makes each later part one d x d matrix step
    from the one before.  Any other phi is divided into F repeatedly on one
    coefficient list, in place, each remainder sliced off the bottom as the
    next part, until `count` parts are sliced off; c such divisions cost
    about the (n - cd) cd products of one division by phi^c, counted over
    the nonzero coefficients of phi below the top, except that a quadratic
    phi, divided with its two pending coefficients in locals, always takes
    two products per quotient coefficient.
    """
    if not phi.is_monic or phi.degree < 1:
        raise ValueError("phi must be monic of degree >= 1")
    if not F.is_monic:
        raise ValueError("F must be monic")
    d = phi.degree
    full = F.degree // d + 1
    if count is None:
        count = full
    elif count < 1:
        raise ValueError("count must be positive")
    count = min(count, full)
    n = F.degree
    binomial = n >= 1 and not any(F.coeffs[1:n])  # F = x^n + f0
    if not any(phi.coeffs[1:d]):
        c = -phi.coeffs[0]
        if binomial:
            # x^n = x^r (phi + c)^k for n = k d + r: part j is C(k, j) c^(k-j) x^r, and part 0 also holds f0
            k, r = divmod(n, d)
            pad = (0,) * r
            parts = [()] * count
            term = math.comb(k, count - 1) * c ** (k - count + 1)
            for j in range(count - 1, 0, -1):
                if term:
                    parts[j] = pad + (term,)
                term = term * (c * j) // (k - j + 1)
            row = [*pad, term]
            row[0] += F.coeffs[0]
            parts[0] = tuple(_trimmed(row))
            return PhiExpansion._wrap(phi, tuple(parts))
        acc = [[0] * d for _ in range(count)]
        for i, f in enumerate(F.coeffs):
            if not f:
                continue
            k, r = divmod(i, d)
            top = min(k, count - 1)
            term = f * math.comb(k, top) * c ** (k - top)
            for j in range(top, -1, -1):
                acc[j][r] += term
                term = term * (c * j) // (k - j + 1)
                if not term:
                    break
        return PhiExpansion._wrap(phi, tuple(tuple(_trimmed(row)) for row in acc))
    if d == 2 and binomial:
        a0, a1 = phi.coeffs[0], phi.coeffs[1]
        disc = a1 * a1 - 4 * a0
        if a0 and disc:
            # x^n over x^2 + a1 x + a0: with r(t) = 1 + a1 t + a0 t^2 and h(J, N) = [t^N] r^-J, the
            # quotient x^n div phi^J has coefficients h(J, n-2J-k), and x^k mod phi is U_k x + V_k
            # with sum U_k t^k = t/r, sum V_k t^k = (1 + a1 t)/r.  So part J of x^n is
            # (u + a1 v) + v x for u = h(J+1, n-2J), v = h(J+1, n-2J-1).  Part 0 reads u, v off
            # s_k = [t^k] 1/r.  Differentiating r^-J gives (N+1) h(J, N+1) = -J (a1 h(J+1, N)
            # + 2 a0 h(J+1, N-1)), and r g' = -J r' g for g = r^-J gives (N+1) h(J, N+1)
            # + a1 (N+J) h(J, N) + a0 (N-1+2J) h(J, N-1) = 0; eliminating h(J+2, n-2J-1)
            # between them steps u, v from part J to J+1, and both divisions are exact
            v, u = 0, 1
            for _ in range(n):
                v, u = u, -a1 * u - a0 * v
            parts = [tuple(_trimmed([u + a1 * v + F.coeffs[0], v]))]
            for j in range(count - 1):
                u = (2 * (n - 2 * j) * u + a1 * (n + 1) * v) // ((j + 1) * disc)
                v = -((n - 2 * j - 1) * v + a1 * (j + 1) * u) // (2 * a0 * (j + 1))
                parts.append(tuple(_trimmed([u + a1 * v, v])))
            return PhiExpansion._wrap(phi, tuple(parts))
    if d >= 3 and binomial and count * (2 * n - d * (count - 1)) > 2 * _EULER_MIN_QUOTIENT:
        parts = _euler_parts(n, phi.coeffs, count)
        if parts is not None:
            parts[0][0] += F.coeffs[0]
            return PhiExpansion._wrap(phi, tuple(tuple(_trimmed(row)) for row in parts))
    parts = []
    rest = list(F.coeffs)
    while len(parts) < count:
        _divide_in_place(rest, phi.coeffs)
        parts.append(tuple(_trimmed(rest[:d])))
        del rest[:d]
    return PhiExpansion._wrap(phi, tuple(parts))


@dataclass(frozen=True)
class Side:
    """One negative-slope side of a principal polygon."""

    start: tuple[int, int]
    end: tuple[int, int]

    def __post_init__(self):
        if self.end[0] <= self.start[0]:
            raise ValueError("side must advance in x")
        if self.end[1] >= self.start[1]:
            raise ValueError("principal sides have negative slope")

    @classmethod
    def _wrap(cls, start: tuple[int, int], end: tuple[int, int]) -> "Side":
        """A Side from a chain segment, which already advances in x and falls in y: __post_init__ is skipped."""
        out = object.__new__(cls)
        out.__dict__.update(start=start, end=end)
        return out

    @property
    def length(self) -> int:
        return self.end[0] - self.start[0]

    @property
    def height(self) -> int:
        return self.start[1] - self.end[1]

    @property
    def side_degree(self) -> int:
        return math.gcd(self.length, self.height)

    @property
    def ram_index(self) -> int:
        return self.length // self.side_degree

    @property
    def slope(self) -> Fraction:
        return Fraction(-self.height, self.length)


@dataclass(frozen=True)
class PrincipalPolygon:
    """Negative-slope part of a Newton polygon: lower-convex vertex chain."""

    vertices: tuple[tuple[int, int], ...]
    sides: tuple[Side, ...]

    @property
    def total_length(self) -> int:
        return sum(s.length for s in self.sides)

    @property
    def is_empty(self) -> bool:
        return not self.sides


def _principal_chain(points: Iterable[tuple[int, int]]) -> PrincipalPolygon:
    """Principal polygon of points sorted by x, then y: the lower chain of their strict running minima.

    The polygon starts at the first point, and every later vertex ends a
    falling side, so it lies strictly below every earlier point: those are on
    or above the side's line, which falls to the right.  So only a point
    below every earlier one is admitted, and the admitted points have the
    same principal polygon as all of them.  Each one falls below the last
    vertex, so every side of their lower chain falls, and the chain is the
    whole polygon: it ends at the leftmost lowest point.  The monotone chain
    pops every vertex on or above the segment from its predecessor to the
    next point, so collinear interior points go; a later point at the same x
    is never below the first, so consecutive vertices advance in x.  So
    every side passes Side's checks by construction and is built unchecked.
    """
    hull: list[tuple[int, int]] = []
    for pt in points:
        x, y = pt
        if hull and y >= hull[-1][1]:
            continue
        while len(hull) > 1:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                break
            hull.pop()
        hull.append(pt)
    vertices = tuple(hull) if len(hull) > 1 else ()  # one point makes no side
    return PrincipalPolygon(vertices, tuple(map(Side._wrap, hull, hull[1:])))


def principal_from_points(points: Sequence[tuple[int, int]]) -> PrincipalPolygon:
    """Principal polygon of a point cloud: the negative-slope prefix of its lower hull (lowest point per x)."""
    return _principal_chain(sorted((x, y) for x, y in points))


def principal_polygon(exp: PhiExpansion, p: int) -> PrincipalPolygon:
    """Principal Newton polygon of the development with respect to nu_p.

    Cloud points are (j, nu_p(parts[j])) over nonzero parts; the polygon keeps
    the negative-slope sides of the lower convex envelope.  Empty whenever
    nu_p(parts[0]) = 0, i.e. when the reduction of the base does not divide
    the reduction of the developed polynomial.  Only points strictly below
    every earlier one can be vertices (`_principal_chain`), so with v the
    lowest valuation so far, a part whose coefficients p^v all divide (a
    zero part among them) is skipped without being valued.  The sides end
    at the first part of valuation 0, so a prefix development through that
    part gives the same polygon as the full one, and the cloud stops there
    too.  It comes in increasing j, so it goes through the lower chain as
    it is, without a sort.
    """
    phi_bar = exp.base.reduce_mod(p)  # proves p prime
    if phi_bar.degree != exp.base.degree:
        raise ValueError("base must stay monic mod p")
    if not is_irreducible(phi_bar):
        raise ValueError(f"{phi_bar} is not irreducible")
    if exp.parts and not exp.parts[0]:
        raise ValueError("base divides the polynomial over Z; the polygon is unbounded")
    cloud = []
    pv = 0  # p^v for the lowest valuation v so far, 0 before part 0
    for j, a in enumerate(exp.parts):
        g = math.gcd(*a)
        if pv and not g % pv:
            continue
        v = arith._valuation(p, g)
        cloud.append((j, v))
        if not v:
            break
        pv = p**v
    return _principal_chain(cloud)


def _points_under(start: tuple[int, int], end: tuple[int, int]) -> int:
    """Lattice points (x, y) with s < x <= t and y >= 1 on or under the segment from (s, y_s) to (t, y_t).

    `polygon_index` gives the formula and its proof.
    """
    (s, ys), (t, yt) = start, end
    length, height = t - s, ys - yt
    return length * yt + ((length - 1) * (height - 1) + math.gcd(length, height) - 1) // 2


def polygon_index(poly: PrincipalPolygon, degphi: int) -> int:
    """deg(phi) times the number of lattice points with x, y >= 1 on or under the chain (Ore's index).

    The chain starts on the y-axis, as every phi-polygon does (parts[0] is
    nonzero), and each side counts its half-open columns s < x <= t, so no
    column is counted twice.  A side from (s, y_s) to (t, y_t), with
    L = t - s, H = y_s - y_t and g = gcd(L, H), holds
    L*y_t + ((L-1)(H-1) + g - 1)/2 points (`_points_under`): column t - j
    holds y_t + floor(H j / L), and sum_{j<L} floor(H j / L) counts the
    interior points of the L x H rectangle on or below its diagonal, which
    are the g - 1 on it and, by central symmetry, half of the other
    (L-1)(H-1) - (g-1).
    """
    if degphi < 1:
        raise ValueError("degphi must be positive")
    if poly.vertices and poly.vertices[0][0]:
        raise ValueError("a principal polygon starts on the y-axis")
    return degphi * sum(_points_under(side.start, side.end) for side in poly.sides)


def residual_polynomial(exp: PhiExpansion, side: Side, p: int) -> tuple[tuple[int, ...], ...]:
    """Residual polynomial attached to a side of the principal polygon, as its coefficient tuple.

    coeffs[j], the coefficient of y^j, comes from the development part at
    abscissa s + j*e, where the side is at height t: the part's ints divided
    by p^t and reduced mod p, as a residue over phi_bar = base mod p (ints
    in [0, p), constant first, trimmed, () for zero), the format
    `fppoly.fq_factor` takes.  The gcd of the part's ints is divisible by
    p^t exactly when its cloud point is on or above the side, and a part
    strictly above the side, or a zero part, reduces to ().  Every part is
    below deg phi (the public `PhiExpansion` checks it, and `phi_expand`
    builds it so), so the reduction mod p is already reduced modulo
    phi_bar.  A side reaching past the last developed part is rejected,
    since a prefix development does not know the parts beyond it.
    """
    _check_modulus(p)
    (s, ys) = side.start
    e, d = side.ram_index, side.side_degree
    step = side.height // d
    if side.end[0] >= len(exp.parts):
        raise ValueError("side runs past the developed parts")
    if side.end[1] < 0:
        raise ValueError("side endpoints must lie on the polygon")
    coeffs = []
    for j in range(d + 1):
        part = exp.parts[s + j * e]
        pt = p ** (ys - j * step)
        if math.gcd(*part) % pt:
            raise ValueError("side does not bound the development cloud")
        coeffs.append(tuple(_trimmed([c // pt % p for c in part])))
    if not coeffs[0] or not coeffs[-1]:
        raise ValueError("side endpoints must lie on the polygon")
    return tuple(coeffs)
