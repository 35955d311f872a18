"""The four benchmark workloads: seeded inputs, the timed op and its check.

A generator takes the seed and returns a schedule of plain-data items (ints
and tuples); the program only ever receives those inputs.  A schedule is a
fixed, interleaved set of slots in which the seed picks the instance, so
every round of a run over it -- and every seed -- loads the layers in the
same proportions.  Ops look monocert's functions up through its modules at
call time, so a traced run sees the same calls through the recording wrappers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import check


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, Any], list]  # (seed, monocert) -> schedule items
    build: Callable[[Any, list], Any]  # program-side objects made before the first op; timed as set-up
    op: Callable[[Any, Any, Any], Any]  # (monocert, objects, item) -> output; the timed call
    summary: Callable[[Any], Any]  # returned output -> hashable summary, compared across repeats and with the trace
    check: Callable[[Any, Any, Any], tuple[bool, bool]]  # (monocert, item, output) -> (ok, decided)
    warmup: int  # ops run and checked before timing starts


def _no_objects(mc, items):
    return None


def _radical(n: int) -> int:
    out, d = 1, 2
    while n > 1:
        if n % d == 0:
            out *= d
            while n % d == 0:
                n //= d
        d += 1
    return out


def _random_prime(rng: random.Random, bits: int, avoid: int = 0) -> int:
    while True:
        x = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if x != avoid and check.is_prime(x):
            return x


def _interleave(rows: list[list]) -> list:
    return [item for column in zip(*rows) for item in column]


# --- analyze: campaign and bigm -------------------------------------------

CAMPAIGN_NS = (12, 27, 30)
CAMPAIGN_WINDOW = 80
CAMPAIGN_M_MAX = 10_000


def campaign_inputs(seed: int, mc) -> list[tuple[int, int]]:
    """One window of consecutive m per n (as `search --m-range` takes them), the three n interleaved."""
    rng = random.Random(f"campaign:{seed}")
    windows = []
    for n in CAMPAIGN_NS:
        start = rng.randrange(2, CAMPAIGN_M_MAX - CAMPAIGN_WINDOW)
        windows.append([(n, m) for m in range(start, start + CAMPAIGN_WINDOW)])
    return _interleave(windows)


BIGM_NS = (9, 15, 21, 25)
BIGM_KINDS = (20, 31, 32, "power")
# 48 items: Brent's rho costs twice as much for one prime as for the next, so the seed
# moves the p90 of a 32-item schedule by 10% or more
BIGM_CYCLES = 3


def bigm_inputs(seed: int, mc) -> list[tuple[int, int]]:
    """Semiprimes with two 20-, 31- or 32-bit prime factors, and m = a^2 with a = rad(n) * (31-bit prime).

    Every group of four consecutive items has each n and each kind once.  The
    large prime of a power stays below 2^31 because ore_split at that prime
    rejects larger moduli.
    """
    rng = random.Random(f"bigm:{seed}")
    items = []
    for _ in range(BIGM_CYCLES):
        for i in range(len(BIGM_KINDS)):
            for j, n in enumerate(BIGM_NS):
                kind = BIGM_KINDS[(i + j) % len(BIGM_KINDS)]
                if kind == "power":
                    items.append((n, (_radical(n) * _random_prime(rng, 31)) ** 2))
                else:
                    p = _random_prime(rng, kind)
                    items.append((n, p * _random_prime(rng, kind, avoid=p)))
    return items


def analyze_op(mc, objects, item):
    n, m = item
    return mc.purefield.analyze(n, m)


def verdict_summary(out):
    return tuple(sorted((k, tuple(v) if isinstance(v, list) else v) for k, v in out.to_json_dict().items()))


def verdict_check(mc, item, out):
    return check.check_verdict(mc, item[0], item[1], out)


# --- develop: closed form against direct development ------------------------

DEVELOP_PRIMES = (3, 5, 7)
DEVELOP_R = (1, 2, 3)
DEVELOP_U = (1, 2, 3, 4, 5, 6)
DEVELOP_M = 50
# Criterion 3 also draws n = 1029..2058 (p = 7, r = 3, u >= 3).  One such op takes 1-5 s, so a run
# would hold only a handful and its mean would follow the seed; those strata are left out.
DEVELOP_N_MAX = 750
DEVELOP_DRAWS = 3  # instances per slot; with fewer, the few n >= 500 draws set ops_per_s and move it with the seed
_GOLDEN = 0.6180339887498949


def develop_slots(mc) -> list[tuple[int, int, int, int]]:
    """(p, r, u, d): each (p, r, u) criterion 3 draws with n <= 750, once per degree d a factor phi of x^u - m mod p can have.

    The phi degree is part of the slot because it sets the cost of the
    development; slots are ordered by n along a golden-ratio sequence so the
    largest n are spread evenly through the cycle.
    """
    slots = []
    for p in DEVELOP_PRIMES:
        for r in DEVELOP_R:
            for u in DEVELOP_U:
                if u % p == 0 or u * p**r > DEVELOP_N_MAX:
                    continue
                degrees = {
                    f.degree
                    for c in range(1, p)
                    for f, _ in mc.fppoly.factor(mc.IntPoly.binomial(u, c).reduce_mod(p)).factors
                }
                slots += [(p, r, u, d) for d in sorted(degrees)]
    ranked = sorted(slots, key=lambda s: (s[2] * s[0] ** s[1], s))
    return [s for _, s in sorted(((k * _GOLDEN) % 1.0, s) for k, s in enumerate(ranked))]


def develop_inputs(seed: int, mc) -> list[tuple]:
    """Criterion-3 instances: m in [-50, 50] and phi a factor of x^u - m mod p of the slot's degree, seeded."""
    rng = random.Random(f"develop:{seed}")
    slots = develop_slots(mc)
    items = []
    for _ in range(DEVELOP_DRAWS):
        for p, r, u, d in slots:
            n = u * p**r
            while True:
                m = rng.randint(-DEVELOP_M, DEVELOP_M)
                if abs(m) < 2 or m % p == 0 or not mc.purefield.binomial_irreducible(n, m):
                    continue
                factors = [f for f, _ in mc.fppoly.factor(mc.IntPoly.binomial(u, m).reduce_mod(p)).factors]
                choices = [f for f in factors if f.degree == d]
                if choices:
                    break
            items.append((n, m, p, u, tuple(rng.choice(choices).coeffs)))
    return items


def develop_op(mc, objects, item):
    n, m, p, u, phi_coeffs = item
    phi = mc.purefield.closed_form_lift(u, m, p, mc.FpPoly(p, phi_coeffs))
    closed = mc.purefield.closed_form_polygon(n, m, p, phi).hull()
    direct = mc.polygon.principal_polygon(mc.polygon.phi_expand(mc.IntPoly.binomial(n, m), phi), p)
    return closed, direct


def polygons_summary(out):
    return tuple(poly.vertices for poly in out)


def polygons_check(mc, item, out):
    return check.check_polygons(out)


# --- digits: canonical number systems --------------------------------------

DIGITS_CHAIN_A0 = (2, 3, 4)
# x^n - a from the generator construction: a squarefree and divisible by every prime of n
DIGITS_BINOMIALS = ((3, 6), (3, 15), (3, 30), (4, 6), (4, 10), (4, 14), (5, 10), (6, 6), (6, 30))
DIGITS_RADIUS = 20
DIGITS_ROUNDS = 64


def _has_rational_root(coeffs: tuple[int, ...]) -> bool:
    c0 = abs(coeffs[0])
    for d in range(1, c0 + 1):
        if c0 % d == 0 and any(sum(c * x**i for i, c in enumerate(coeffs)) == 0 for x in (d, -d)):
            return True
    return False


def digit_bases() -> list[tuple[tuple[int, ...], str]]:
    """x^2+2x+2, the chain cubics x^3+a2x^2+a1x+a0 (1 <= a2 <= a1 <= a0 <= 4), generator binomials; both digit modes.

    The bases are fixed and the seed draws the elements: a seeded subset of
    bases moved the mean op cost by 15% between seeds.
    """
    chains = [
        (a0, a1, a2, 1)
        for a0 in DIGITS_CHAIN_A0
        for a1 in range(1, a0 + 1)
        for a2 in range(1, a1 + 1)
        if not _has_rational_root((a0, a1, a2, 1))
    ]
    binomials = [(-a,) + (0,) * (n - 1) + (1,) for n, a in DIGITS_BINOMIALS]
    return [(coeffs, mode) for coeffs in [(2, 2, 1)] + chains + binomials for mode in ("standard", "signed")]


def digits_inputs(seed: int, mc) -> list[tuple]:
    """(coeffs, mode, z) with z drawn from the box [-20, 20]^n, the bases taken in turn."""
    rng = random.Random(f"digits:{seed}")
    return [
        (coeffs, mode, tuple(rng.randint(-DIGITS_RADIUS, DIGITS_RADIUS) for _ in range(len(coeffs) - 1)))
        for _ in range(DIGITS_ROUNDS)
        for coeffs, mode in digit_bases()
    ]


def digits_objects(mc, items):
    return {key: mc.cns.CnsBasis(mc.IntPoly(key[0]), key[1]) for key in dict.fromkeys(item[:2] for item in items)}


def digits_op(mc, bases, item):
    basis = bases[item[0], item[1]]
    expansion = mc.cns.encode(basis, item[2])
    return expansion, mc.cns.decode(basis, expansion.digits)


def digits_summary(out):
    exp, decoded = out
    return exp.digits, exp.terminated, exp.cycle_witness, exp.steps, decoded


def digits_check(mc, item, out):
    return check.check_digits(item[0], item[1], item[2], out)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "campaign",
            campaign_inputs,
            _no_objects,
            analyze_op,
            verdict_summary,
            verdict_check,
            warmup=30,
        ),
        Workload(
            "bigm",
            bigm_inputs,
            _no_objects,
            analyze_op,
            verdict_summary,
            verdict_check,
            warmup=4,
        ),
        Workload(
            "develop",
            develop_inputs,
            _no_objects,
            develop_op,
            polygons_summary,
            polygons_check,
            warmup=10,
        ),
        Workload(
            "digits",
            digits_inputs,
            digits_objects,
            digits_op,
            digits_summary,
            digits_check,
            warmup=500,
        ),
    )
}
