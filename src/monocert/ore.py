"""Prime splitting data via residual polynomials: exactness, index bounds, witnesses.

For a monic polynomial F and a prime p, every monic irreducible factor of
F mod p is lifted (coefficients in [0, p), moved by p while the lift
divides F over Z; `monocert polygon` lifts by the same rule), developed,
and its principal polygon's residual polynomials are factored over the
residue extension F_p[x]/(phi_bar), as coefficient tuples of residues over
the factor phi_bar itself (moving the lift by p leaves phi_bar as it is).
When every residual is separable the splitting is exact: each slot is a
prime ideal with its ramification index e and residue degree f.
Otherwise only the index lower bound is reported, never a splitting claim.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import arith, fppoly
from .polygon import (
    IntPoly,
    PhiExpansion,
    phi_expand,
    polygon_index,
    principal_polygon,
    residual_polynomial,
)


class NotPRegular(ValueError):
    """A prime count was asked of a split that is not exact (some residual polynomial is inseparable)."""


@dataclass(frozen=True)
class FactorSlot:
    """One prime ideal above p: lift, side, residual factor, and (e, f).

    residual_factor holds the monic factor's coefficients (ascending in y) as
    residues over phi mod p, in the format `residual_polynomial` returns and
    `fppoly.fq_factor` takes.
    """

    phi: IntPoly
    side_index: int
    residual_factor: tuple[tuple[int, ...], ...]
    multiplicity: int
    e: int
    f: int

    def to_json_dict(self) -> dict:
        return {
            "phi": list(self.phi.coeffs),
            "e": self.e,
            "f": self.f,
            "multiplicity": self.multiplicity,
        }


@dataclass(frozen=True)
class PrimeSplit:
    """Splitting data of p in the order Z[x]/F; exact iff F is p-regular."""

    p: int
    slots: tuple[FactorSlot, ...]
    exact: bool
    index_valuation: int

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "exact": self.exact,
            "index_valuation": self.index_valuation,
            "slots": [s.to_json_dict() for s in self.slots],
        }


def _develop(F: IntPoly, phi_bar: fppoly.FpPoly, p: int, count: int | None = None) -> PhiExpansion:
    """phi-adic development of F (through part count - 1) in the [0, p) lift of phi_bar.

    The lift is moved on by the constant p while it divides F over Z, where
    the polygon would be unbounded; F has finitely many monic factors over Z,
    so this ends.
    """
    phi = IntPoly.lift(phi_bar)
    exp = phi_expand(F, phi, count=count)
    while exp.parts[0].is_zero:
        phi = phi + IntPoly.const(p)
        exp = phi_expand(F, phi, count=count)
    return exp


def ore_split(F: IntPoly, p: int) -> PrimeSplit:
    """Split p in the order defined by monic F.

    Slots are enumerated from sides whose residual polynomial is separable;
    with `exact` False the slot list is partial and `index_valuation` is only
    a lower bound.

    Each factor (phi_bar, mult) of F mod p is lifted and developed by
    `_develop` only through part mult: phi_bar^mult exactly divides F mod p,
    so part mult is the first of valuation 0, where the lower hull's
    negative-slope prefix ends.  No later part changes the polygon, its index
    or its residual polynomials.  Each residual goes to `fppoly.fq_factor`
    over the phi_bar that `fppoly.factor` returned, so no base is reduced
    again per side.
    """
    if not F.is_monic:
        raise ValueError("F must be monic")
    if not arith.is_prime(p):
        raise ValueError(f"{p} is not prime")
    fbar = F.reduce_mod(p)
    factors = fppoly.factor(fbar).factors
    slots: list[FactorSlot] = []
    exact = True
    index_val = 0
    for phi_bar, mult in factors:
        exp = _develop(F, phi_bar, p, count=mult + 1)
        phi, degphi = exp.base, phi_bar.degree
        poly = principal_polygon(exp, p)
        assert poly.total_length == mult, "polygon length must equal the factor multiplicity"
        index_val += polygon_index(poly, degphi)
        for side_index, side in enumerate(poly.sides):
            res = residual_polynomial(exp, side, p)
            if not fppoly.fq_is_separable(phi_bar, res):
                exact = False
                continue
            e = side.ram_index
            for factor_coeffs, fmult in fppoly.fq_factor(phi_bar, res):
                slots.append(FactorSlot(phi, side_index, factor_coeffs, fmult, e, degphi * (len(factor_coeffs) - 1)))
    slots.sort(key=lambda s: (s.phi.coeffs, s.side_index, s.residual_factor))
    return PrimeSplit(p, tuple(slots), exact, index_val)


def common_index_divisor(F: IntPoly, p: int) -> arith.IndexDivisorWitness | None:
    """Smallest d whose prime count beats the irreducible count, if any.

    A positive answer certifies that p divides the index of every generator of
    the field, which rules out a power integral basis.  Prime counts are
    defined only for exact splits: otherwise NotPRegular is raised.
    """
    split = ore_split(F, p)
    if not split.exact:
        raise NotPRegular("prime-counting undefined without p-regularity")
    counts = Counter(s.f for s in split.slots)
    for d in sorted(counts):
        bound = arith.count_irreducibles(p, d)
        if counts[d] > bound:
            return arith.IndexDivisorWitness(p, d, counts[d], bound)
    return None
