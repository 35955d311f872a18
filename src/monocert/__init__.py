"""Exact-arithmetic monogenity certificates for pure number fields.

Newton polygon machinery over explicit integer lifts, prime splitting with
exactness flags, non-monogenity witnesses and verified power-basis
generators, plus canonical-number-system tooling on the monogenic cases.
"""

__version__ = "0.1.0"

from .arith import IndexDivisorWitness, IntFactorization, bezout_positive, count_irreducibles, factorize, padic_valuation
from .cns import BoxReport, CnsBasis, DigitExpansion, cns_from_monogenic, decode, encode, kovacs_hypothesis, verify_box
from .fppoly import FactorMultiset, FpPoly, count_degree_d_factors, factor
from .ore import FactorSlot, PrimeSplit, common_index_divisor, ore_split
from .polygon import (
    IntPoly,
    PhiExpansion,
    PrincipalPolygon,
    Side,
    phi_expand,
    polygon_index,
    principal_polygon,
    residual_polynomial,
)
from .purefield import (
    ClosedFormData,
    MonogenityVerdict,
    analyze,
    binomial_irreducible,
    closed_form_lift,
    closed_form_polygon,
    construct_generator,
    theorem_general_test,
)

__all__ = [name for name in dir() if not name.startswith("_")]
