import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monocert import arith, fppoly, ore, purefield
from monocert.polygon import IntPoly, phi_expand, principal_polygon, residual_polynomial
from oracles import derivative, poly_add, poly_mul, resultant

QUARTIC = IntPoly.binomial(4, 17)


class TestOreSplit:
    def test_quartic_at_2(self):
        split = ore.ore_split(QUARTIC, 2)
        assert split.exact
        assert split.index_valuation == 3
        assert sorted((s.e, s.f) for s in split.slots) == [(1, 1), (1, 1), (2, 1)]

    def test_cubic_at_5(self):
        split = ore.ore_split(IntPoly.binomial(3, 2), 5)
        assert split.exact
        assert split.index_valuation == 0
        assert sorted((s.e, s.f) for s in split.slots) == [(1, 1), (1, 2)]

    def test_prime_above_2_31(self):
        # 2 is not a cube mod 4294967311, so x^3 - 2 stays inert there
        split = ore.ore_split(IntPoly.binomial(3, 2), 4294967311)
        assert split.exact and split.index_valuation == 0
        assert sum(s.e * s.f for s in split.slots) == 3

    def test_unramified_shape(self):
        F = IntPoly.binomial(3, 2)
        split = ore.ore_split(F, 7)
        assert split.exact and split.index_valuation == 0
        degs = sorted(f.degree for f, mult in fppoly.factor(F.reduce_mod(7)).factors for _ in range(mult))
        assert sorted(s.f for s in split.slots) == degs
        assert all(s.e == 1 for s in split.slots)

    def test_lift_dividing_F_moves_by_p(self):
        # x^3 + 5 is irreducible mod 7 and is its own [0, 7) lift, whose polygon is unbounded;
        # the next lift, x^3 + 12, shows 7 inert
        split = ore.ore_split(IntPoly.binomial(3, -5), 7)
        assert split.exact and split.index_valuation == 0
        assert [(s.phi.coeffs, s.e, s.f) for s in split.slots] == [((12, 0, 0, 1), 1, 3)]

    def test_dedekind_where_squarefree_mod_p(self):
        # Dedekind's criterion: with F mod p squarefree, p does not divide the index and each
        # factor g of F mod p is one prime with e = 1, f = deg g; inert F = lift included
        cases = moved = 0
        for n in range(2, 31):
            for m in range(-40, 41):
                F = IntPoly.binomial(n, m)
                for p in (2, 3, 5, 7):
                    factors = fppoly.factor(F.reduce_mod(p)).factors
                    if any(mult > 1 for _, mult in factors):
                        continue
                    split = ore.ore_split(F, p)
                    assert split.exact and split.index_valuation == 0, (n, m, p)
                    assert sorted((s.e, s.f) for s in split.slots) == sorted((1, g.degree) for g, _ in factors), (n, m, p)
                    cases += 1
                    moved += any(s.phi != IntPoly.lift(s.phi.reduce_mod(p)) for s in split.slots)
        assert (cases, moved) == (4808, 215)

    def test_nonmonic_rejected(self):
        with pytest.raises(ValueError, match="monic"):
            ore.ore_split(IntPoly([1, 2]), 3)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            ore.ore_split(QUARTIC, 6)

    def test_inexact_reports_bound_only(self):
        # x^2 - 12 at 2: the single residual is y^2 + 1 = (y+1)^2, not separable
        split = ore.ore_split(IntPoly.binomial(2, 12), 2)
        assert not split.exact
        assert split.index_valuation == 1
        assert split.slots == ()

    def test_multiplicity_one_factors_still_split(self):
        # 5 is unramified in x^2 - 21 even though the constant part has valuation 2
        split = ore.ore_split(IntPoly.binomial(2, 21), 5)
        assert split.exact
        assert sorted(s.f for s in split.slots) == [1, 1]

    def test_determinism_byte_for_byte(self):
        a = ore.ore_split(QUARTIC, 2)
        fppoly.factor.cache_clear()
        fppoly.fq_factor.cache_clear()
        b = ore.ore_split(QUARTIC, 2)
        assert a == b
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(b.to_json_dict(), sort_keys=True)

    def test_slots_sorted_by_residual_factor(self):
        # x^3 - 750 at 5: one side with residual y^3 - 1 = (y^2 + y + 1)(y + 4) over F_5; slots on
        # one side are ordered by their residue tuples, so the quadratic factor comes first
        split = ore.ore_split(IntPoly.binomial(3, 750), 5)
        assert [s.residual_factor for s in split.slots] == [((1,), (1,), (1,)), ((4,), (1,))]
        assert [s["f"] for s in split.to_json_dict()["slots"]] == [2, 1]

    def test_json_shape(self):
        doc = ore.ore_split(QUARTIC, 2).to_json_dict()
        assert set(doc) == {"p", "exact", "index_valuation", "slots"}
        assert all(set(s) == {"phi", "e", "f", "multiplicity"} for s in doc["slots"])

    def test_fundamental_identity_random(self):
        rng = random.Random(7)
        exact_count = 0
        while exact_count < 150:
            F = IntPoly([rng.randint(-30, 30) for _ in range(rng.randint(2, 10))] + [1])
            p = rng.choice([2, 3, 5, 7, 11, 13])
            try:
                split = ore.ore_split(F, p)
            except ValueError:
                continue
            if not split.exact:
                continue
            exact_count += 1
            assert sum(s.e * s.f for s in split.slots) == F.degree
            if resultant(F, derivative(F)) % p != 0:
                assert all(s.e == 1 for s in split.slots)


# sha256 of the split JSON of x^n - m over 2 <= n <= 30, 2 <= |m| <= 40, one digest per p,
# taken before the polygon kernel was tightened: any change to a slot, a flag or an index shows
SPLIT_GRID_DIGESTS = {
    2: "f96fc40c9ffeba36e4a532944f59c2f0d8fcb03b0fa0e096275f2e5c2a05eee9",
    3: "1005f0a2ed20b613ebf10e629fa6370b5d29a7c4f75c980874b0dac3a4aa3fdf",
    5: "6d0ec46706c47844f47752d054eee71f6dca304ed1053105024fce3e80ca74e0",
    7: "0cb7a6cb173e7d4925b9f6785ecb913c90bb7a1df0848177cb20fa45c370e629",
    11: "50c18cdbcb52f92e5b080b3d4a9f331a167c258ab38c946803826129aba8074d",
    13: "cf94b16eca7de1de77e02c18d2f539940e992f58029d6dd473cd230d3bdce5ea",
}


@pytest.mark.parametrize("p", sorted(SPLIT_GRID_DIGESTS))
def test_split_bytes_pinned_on_binomial_grid(p):
    h = hashlib.sha256()
    for n in range(2, 31):
        for a in range(2, 41):
            for m in (a, -a):
                doc = ore.ore_split(IntPoly.binomial(n, m), p).to_json_dict()
                h.update(json.dumps([n, m, doc], sort_keys=True).encode())
    assert h.hexdigest() == SPLIT_GRID_DIGESTS[p]


class TestPrefixDevelopment:
    """ore_split develops each factor (phi_bar, mult) through part mult only; the full development agrees."""

    @given(
        cs=st.lists(st.integers(-60, 60), max_size=40),
        p=st.sampled_from([2, 3, 5, 7]),
    )
    def test_prefix_polygon_and_residuals_match_full(self, cs, p):
        F = IntPoly(cs + [1])
        for phi_bar, mult in fppoly.factor(F.reduce_mod(p)).factors:
            phi = IntPoly.lift(phi_bar)
            full = phi_expand(F, phi)
            prefix = phi_expand(F, phi, count=mult + 1)
            if not full.parts[0]:  # phi divides F over Z: no polygon either way
                with pytest.raises(ValueError, match="divides"):
                    principal_polygon(prefix, p)
                continue
            poly = principal_polygon(prefix, p)
            assert poly == principal_polygon(full, p)
            assert poly.total_length == mult
            for side in poly.sides:
                assert residual_polynomial(prefix, side, p) == residual_polynomial(full, side, p)


class TestExtensionResiduals:
    """Sides over proper extensions F_4 and F_9, where residual factoring is nontrivial."""

    def test_residual_splits_over_f4(self):
        phi = (1, 1, 1)
        F = IntPoly(poly_add(poly_add(poly_mul(phi, phi), phi, 2), (4,)))  # phi^2 + 2 phi + 4
        split = ore.ore_split(F, 2)
        # residual y^2 + y + 1 has trace-zero constant: two conjugate roots in F_4
        assert split.exact
        assert sorted((s.e, s.f) for s in split.slots) == [(1, 2), (1, 2)]
        assert split.index_valuation == 2

    def test_slot_residual_factors_over_f4(self):
        # x^6 - 5 at 2 over x^2 + x + 1 (a root w): the residual w*y^2 + (w + 1)*y + 1 has the roots 1 and
        # 1/w = w + 1, so its two slots hold the monic factors y + 1 and y + w + 1
        split = ore.ore_split(IntPoly.binomial(6, 5), 2)
        assert [s.residual_factor for s in split.slots if s.phi.coeffs == (1, 1, 1)] == [((1,), (1,)), ((1, 1), (1,))]

    def test_residual_inert_over_f4(self):
        phi = (1, 1, 1)
        F = IntPoly(poly_add(poly_mul(phi, poly_add(phi, (0, 2))), (0, 4)))  # phi^2 + 2x phi + 4x
        split = ore.ore_split(F, 2)
        # residual y^2 + y + xbar has trace one: irreducible, residue degree 4
        assert split.exact
        assert [(s.e, s.f) for s in split.slots] == [(1, 4)]

    def test_residual_over_f9(self):
        phi = (1, 0, 1)
        F = IntPoly(poly_add(poly_add(poly_mul(phi, phi), phi, 3), (0, 9)))  # phi^2 + 3 phi + 9x
        split = ore.ore_split(F, 3)
        assert split.exact
        assert sum(s.e * s.f for s in split.slots) == 4


class TestRegularity:
    def test_known_values(self):
        assert ore.ore_split(QUARTIC, 2).exact
        assert ore.ore_split(QUARTIC, 17).exact
        assert ore.ore_split(IntPoly.binomial(5, 6), 2).exact  # Eisenstein-type
        assert not ore.ore_split(IntPoly.binomial(2, 12), 2).exact


def _primes_of_degree(split, d):
    return sum(s.f == d for s in split.slots)


class TestPrimesOfDegree:
    def test_quartic_counts(self):
        split = ore.ore_split(QUARTIC, 2)
        assert _primes_of_degree(split, 1) == 3
        assert _primes_of_degree(split, 2) == 0

    def test_cubic_counts(self):
        split = ore.ore_split(IntPoly.binomial(3, 2), 5)
        assert _primes_of_degree(split, 2) == 1

    def test_odd_p_coprime_to_m_grid(self):
        # at an odd p | n with p not dividing m (n = u p^r) the split of x^n - m is exact, and over each
        # factor of x^u - m mod p its primes are those of the closed form: (e, f) multisets agree
        checked = 0
        for n in range(3, 31):
            for p in arith.factorize(n).prime_divisors:
                if p == 2 or p == n:
                    continue
                r = arith._valuation(p, n)
                u = n // p**r
                for m in range(-60, 121):
                    if m % p == 0 or abs(m) < 2 or not purefield.binomial_irreducible(n, m):
                        continue
                    split = ore.ore_split(IntPoly.binomial(n, m), p)
                    assert split.exact, (n, m, p)
                    nu_p = arith.padic_valuation(p, m ** (p - 1) - 1)  # the big-integer oracle for nu
                    nu = min(r + 1, nu_p)
                    want = Counter({d: nu * fppoly.count_degree_d_factors(p, d, u, m) for d in range(1, u + 1)})
                    assert Counter(s.f for s in split.slots) == want, (n, m, p)
                    by_phi: dict = {}
                    for slot in split.slots:
                        by_phi.setdefault(slot.phi, []).append((slot.e, slot.f))
                    capped = min(r + 2, nu_p)
                    for phi, primes in by_phi.items():
                        assert sorted(primes) == sorted(purefield._local_primes(p, r, phi.degree, capped)), (n, m, p, phi)
                    checked += 1
        assert checked > 2000


class TestCommonIndexDivisor:
    def test_inexact_rejected(self):
        with pytest.raises(ValueError, match="regular"):
            ore.common_index_divisor(IntPoly.binomial(2, 12), 2)

    def test_inexact_raises_not_p_regular(self):
        with pytest.raises(ore.NotPRegular):
            ore.common_index_divisor(IntPoly.binomial(2, 12), 2)

    def test_quartic_witness(self):
        w = ore.common_index_divisor(QUARTIC, 2)
        assert w is not None
        assert (w.d, w.ideal_count, w.irreducible_count) == (1, 3, 2)

    def test_cubic_negative(self):
        assert ore.common_index_divisor(IntPoly.binomial(3, 2), 5) is None

    def test_large_primes_never_divide_index(self):
        for n, m in [(3, 2), (4, 17), (5, 6), (6, 35)]:
            F = IntPoly.binomial(n, m)
            for p in (n + 1, n + 3):
                if not arith.is_prime(p):
                    continue
                try:
                    split = ore.ore_split(F, p)
                except ValueError:
                    continue
                if split.exact:
                    assert ore.common_index_divisor(F, p) is None, (n, m, p)

    def test_witness_implies_positive_index(self):
        w = ore.common_index_divisor(QUARTIC, 2)
        assert w is not None
        assert ore.ore_split(QUARTIC, 2).index_valuation >= 1

    def test_matches_degree_scan(self):
        # the smallest d = 1..deg F whose prime count beats the irreducible count, as a plain scan
        for n in range(2, 25):
            for m in (-12, -7, 3, 5, 17, 45, 80, 82):
                F = IntPoly.binomial(n, m)
                for p in (2, 3, 5, 7):
                    split = ore.ore_split(F, p)
                    if not split.exact:
                        continue
                    expected = None
                    for d in range(1, n + 1):
                        ideals, bound = _primes_of_degree(split, d), arith.count_irreducibles(p, d)
                        if ideals > bound:
                            expected = (d, ideals, bound)
                            break
                    w = ore.common_index_divisor(F, p)
                    assert (None if w is None else (w.d, w.ideal_count, w.irreducible_count)) == expected, (n, m, p)
