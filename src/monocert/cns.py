"""Canonical number systems on Z[x]/(G): digit expansions and box verification.

The base is a root theta of a monic integer polynomial G with |G(0)| >= 2;
digits are residues of the constant coordinate.  Encoding is backward
division: subtract a digit, divide by theta, repeat until zero.  Decoding
reads the element of d_0 d_1 ... d_k as the remainder of sum d_i x^i mod G,
in one pass of division from the top digit down.  Nothing here
assumes the system is canonical -- non-terminating orbits are detected and
reported with a cycle witness, and uniqueness is only ever claimed after an
exhaustive check.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from . import arith, purefield
from .polygon import IntPoly, _divide_in_place, _integers

Element = tuple[int, ...]

_SIGNED_ENUM_BUDGET = 200_000


def _divisors(n: int) -> list[int]:
    n_fac = arith.factorize(n)
    if n_fac.cofactors:
        raise ValueError(f"divisors of {n} unknown: rho did not split the cofactor {n_fac.cofactors[0]}")
    out = [1]
    for p, e in n_fac.factors:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


@dataclass(frozen=True)
class CnsBasis:
    """Digit system for the order of a monic polynomial with |constant| >= 2."""

    G: IntPoly
    digit_mode: str = "standard"

    def __post_init__(self):
        if not self.G.is_monic or self.G.degree < 1:
            raise ValueError("G must be monic of degree >= 1")
        c0 = self.G.coeffs[0]
        if abs(c0) < 2:
            raise ValueError("|G(0)| >= 2 required for a digit base")
        if self.digit_mode not in ("standard", "signed"):
            raise ValueError("digit_mode must be 'standard' or 'signed'")
        # cheap reducibility screens; a full irreducibility proof is the
        # caller's business
        if self.G.degree >= 2:
            for d in _divisors(abs(c0)):
                if self.G.evaluate(d) == 0 or self.G.evaluate(-d) == 0:
                    raise ValueError(f"G has the rational root {d if self.G.evaluate(d) == 0 else -d}")
            if all(c == 0 for c in self.G.coeffs[1:-1]):
                if not purefield.binomial_irreducible(self.G.degree, -c0):
                    raise ValueError("binomial G is reducible over Q")

    @property
    def degree(self) -> int:
        return self.G.degree

    @property
    def digit_base(self) -> int:
        return abs(self.G.coeffs[0])

    def digit_set(self) -> range:
        b = self.digit_base
        if self.digit_mode == "standard":
            return range(0, b)
        return range(-(b - 1), b)

    def validate_element(self, z) -> Element:
        z = tuple(_integers(z))
        if len(z) != self.degree:
            raise ValueError(f"element needs exactly {self.degree} coordinates")
        return z

    def default_step_cap(self, radius: int) -> int:
        return int(10 * (radius + 1) * self.degree * math.log2(self.digit_base)) + 64


@dataclass(frozen=True)
class DigitExpansion:
    """Digits least significant first; terminated=False carries the loop evidence."""

    digits: tuple[int, ...]
    terminated: bool
    cycle_witness: Element | None
    steps: int

    def to_json_dict(self) -> dict:
        out: dict = {"digits": list(self.digits), "terminated": self.terminated, "steps": self.steps}
        if self.cycle_witness is not None:
            out["cycle_witness"] = list(self.cycle_witness)
        return out


def encode(basis: CnsBasis, z, step_cap: int | None = None) -> DigitExpansion:
    """Backward-division digit expansion of an element.

    Each step picks the digit congruent to the constant coordinate mod the
    base (mode-dependent tie rule), subtracts it and divides by theta.  Stops
    at zero, at a revisited state (cycle witness), or at the step cap.
    """
    z = basis.validate_element(z)
    if step_cap is None:
        step_cap = basis.default_step_cap(max((abs(c) for c in z), default=0))
    if step_cap <= 0:
        raise ValueError("step_cap must be positive")
    if not any(z):
        return DigitExpansion((0,), True, None, 0)
    c0, *tail, _ = basis.G.coeffs
    b = abs(c0)
    # residues above the threshold become negative digits: none in standard mode
    top = b if basis.digit_mode == "standard" else b // 2
    digits: list[int] = []
    seen = {z}
    state = z
    while len(digits) < step_cap:
        z0 = state[0]
        d = z0 % b
        if d > top:
            d -= b
        q, rem = divmod(z0 - d, c0)
        assert rem == 0
        digits.append(d)
        state = (*[s - k * q for s, k in zip(state[1:], tail)], -q)
        if not any(state):
            return DigitExpansion(tuple(digits), True, None, len(digits))
        seen.add(state)
        # one new state per step: a set that did not grow has seen this one
        if len(seen) == len(digits):
            return DigitExpansion(tuple(digits), False, state, len(digits))
    return DigitExpansion(tuple(digits), False, None, len(digits))


def decode(basis: CnsBasis, digits) -> Element:
    """The element of a digit string: the remainder of sum d_i x^i mod G.

    One top-down pass of division by the monic G (`_divide_in_place`); each
    digit costs one product per nonzero coefficient of G below the top, and
    two for a quadratic G, whose pass keeps both pending coefficients in
    locals.
    """
    r = _integers(digits)
    if not r:
        raise ValueError("empty digit string")
    allowed = basis.digit_set()
    if min(r) < allowed.start or max(r) >= allowed.stop:
        bad = next(d for d in r if d not in allowed)
        raise ValueError(f"digit {bad} outside the {basis.digit_mode} digit set")
    n = basis.degree
    _divide_in_place(r, basis.G.coeffs)
    return tuple(r[:n]) + (0,) * (n - len(r))


@dataclass(frozen=True)
class BoxReport:
    """Exhaustive encode over a coordinate box, with self-checks."""

    total: int
    terminated: int
    non_terminated: int
    max_digits: int
    collisions: int
    witnesses: tuple[Element, ...]
    signed_enum_length: int | None = None
    signed_multiple_expansions: int | None = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "total": self.total,
            "terminated": self.terminated,
            "non_terminated": self.non_terminated,
            "max_digits": self.max_digits,
            "collisions": self.collisions,
            "witnesses": [list(w) for w in self.witnesses],
        }
        if self.signed_enum_length is not None:
            out["signed_enum_length"] = self.signed_enum_length
            out["signed_multiple_expansions"] = self.signed_multiple_expansions
        return out


def _signed_redundancy(basis: CnsBasis) -> tuple[int, int]:
    """Count elements reached by more than one valid signed digit string.

    Exhaustive over strings up to the largest length fitting the enumeration
    budget; strings end in a nonzero digit, plus the single string (0).
    """
    digits = list(basis.digit_set())
    width = len(digits)
    length = 1
    total = width
    while total * width <= _SIGNED_ENUM_BUDGET:
        length += 1
        total *= width
    zero = decode(basis, (0,))
    seen: dict[Element, int] = {zero: 1}
    multi = 0
    # elements of the strings of length l - 1, in itertools.product order
    level = [zero]
    for l in range(1, length + 1):
        # the element of tail + (last,) is the element of tail plus last * theta^(l-1)
        power = decode(basis, (0,) * (l - 1) + (1,))
        steps = [(last, tuple(last * p for p in power)) for last in digits]
        longer = []
        for tail in level:
            for last, step in steps:
                element = tuple(map(operator.add, tail, step))
                longer.append(element)
                if last:
                    count = seen.get(element, 0) + 1
                    seen[element] = count
                    if count == 2:
                        multi += 1
        level = longer
    return length, multi


def verify_box(basis: CnsBasis, radius: int, step_cap: int | None = None) -> BoxReport:
    """Encode every element with coordinates in [-radius, radius].

    Counts terminating orbits, records a few non-terminating witnesses, and
    self-checks injectivity of the digit map (collisions must be zero).  In
    signed mode the redundancy of the digit set is measured by bounded-length
    enumeration instead of being assumed away.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if step_cap is None:
        step_cap = basis.default_step_cap(radius)
    n = basis.degree
    strings: dict[tuple[int, ...], int] = {}
    terminated = non_terminated = 0
    max_digits = 0
    witnesses: list[Element] = []
    for coords in itertools.product(range(-radius, radius + 1), repeat=n):
        exp = encode(basis, coords, step_cap)
        if exp.terminated:
            terminated += 1
            max_digits = max(max_digits, len(exp.digits))
            strings[exp.digits] = strings.get(exp.digits, 0) + 1
        else:
            non_terminated += 1
            if len(witnesses) < 5:
                witnesses.append(coords)
    collisions = sum(k - 1 for k in strings.values())
    enum_len = multi = None
    if basis.digit_mode == "signed":
        enum_len, multi = _signed_redundancy(basis)
    return BoxReport(
        total=(2 * radius + 1) ** n,
        terminated=terminated,
        non_terminated=non_terminated,
        max_digits=max_digits,
        collisions=collisions,
        witnesses=tuple(witnesses),
        signed_enum_length=enum_len,
        signed_multiple_expansions=multi,
    )


def kovacs_hypothesis(G: IntPoly) -> bool:
    """Coefficient-chain criterion: 1 <= a_(n-1) <= ... <= a_0, a_0 >= 2, |norm| > 2.

    For monic G the norm of the root is |G(0)| up to sign, so the last clause
    is |a_0| > 2.  Under the chain condition the criterion makes the digit
    system canonical exactly when the root generates a power integral basis.
    """
    if not G.is_monic:
        raise ValueError("G must be monic")
    if G.degree < 3:
        raise ValueError("degree >= 3 required")
    a = G.coeffs[:-1]
    n = G.degree
    if a[n - 1] < 1 or a[0] < 2:
        return False
    for i in range(n - 1):
        if a[i] < a[i + 1]:
            return False
    return abs(a[0]) > 2


@dataclass(frozen=True)
class MonogenicCnsReport:
    """Digit system built on a verified power-basis generator, with evidence."""

    verdict: purefield.MonogenityVerdict
    basis: CnsBasis
    kovacs: bool
    box_standard: BoxReport
    box_signed: BoxReport
    notes: tuple[str, ...]


def cns_from_monogenic(n: int, a: int, u: int, radius: int = 1, step_cap: int | None = None) -> MonogenicCnsReport:
    """Digit system x^n - a on the generator certified for x^n - a^u.

    The generator construction guarantees a power integral basis, which is the
    monogenity half of the chain criterion; the coefficient chain itself fails
    for binomials (negative and zero coefficients), so the canonical property
    is reported as measured box evidence, never asserted.
    """
    verdict = purefield.construct_generator(n, a, u)
    G = verdict.generator_poly
    basis = CnsBasis(G, "standard")
    kov = kovacs_hypothesis(G)
    box_std = verify_box(basis, radius, step_cap)
    box_sgn = verify_box(CnsBasis(G, "signed"), radius, step_cap)
    notes = [
        f"digit base {basis.digit_base} from the constant coefficient of {G}",
    ]
    if not kov:
        notes.append(
            "coefficient chain fails for a binomial base: canonical property is "
            "box-verified evidence only, not certified by the chain criterion"
        )
    return MonogenicCnsReport(
        verdict=verdict,
        basis=basis,
        kovacs=kov,
        box_standard=box_std,
        box_signed=box_sgn,
        notes=tuple(notes),
    )
