import hashlib
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monocert import arith, fppoly, ore, purefield
from monocert.polygon import IntPoly, phi_expand, principal_from_points, principal_polygon
from oracles import (
    binomial_discriminant,
    binomial_irreducible_by_factoring,
    closed_form_horner,
    cofactor_pair,
    discriminant,
    family_condition,
    is_canonical,
    poly_add,
    poly_divmod,
    poly_exact_div,
    poly_mul,
    polygon_index_by_columns,
)


class TestBinomialIrreducible:
    def test_known_values(self):
        assert purefield.binomial_irreducible(4, 17)
        assert not purefield.binomial_irreducible(4, -4)  # x^4 + 4 splits
        assert not purefield.binomial_irreducible(6, 64)
        assert not purefield.binomial_irreducible(9, 8)  # 8 is a cube
        assert purefield.binomial_irreducible(9, 7)

    def test_minus_four_fourth_powers(self):
        assert not purefield.binomial_irreducible(4, -64)  # -4 * 2^4
        assert not purefield.binomial_irreducible(8, -4)
        assert purefield.binomial_irreducible(4, -2)

    def test_negative_cubes(self):
        assert not purefield.binomial_irreducible(3, -27)
        assert purefield.binomial_irreducible(3, -25)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            purefield.binomial_irreducible(1, 5)
        with pytest.raises(ValueError):
            purefield.binomial_irreducible(3, 1)

    def test_iroot_brackets_the_root(self):
        for x in range(1, 3000):
            for k in range(1, 20):
                r = purefield._iroot(x, k)
                assert r**k <= x < (r + 1) ** k, (x, k)

    @settings(max_examples=300)
    @given(c=st.integers(0, 2**70), k=st.integers(2, 61), t=st.one_of(st.just(1), st.integers(1, 2**20)))
    @example(c=2**31 - 1, k=2, t=1)
    @example(c=0, k=3, t=5)
    def test_kth_root_screen_only_rejects(self, c, k, t):
        # the residue screen may reject, never accept: every answer is the one of _iroot alone
        b = c**k * t
        root = purefield._iroot(b, k)
        assert purefield._kth_root(b, k) == (root if root**k == b else None)

    def test_screen_primes(self):
        for k in range(2, 62):
            ells = purefield._screen_primes(k)
            assert [ell for ell in range(2, ells[-1] + 1) if arith.is_prime(ell) and ell % k == 1] == list(ells)
            assert len(ells) == 4

    @settings(max_examples=300)
    @given(
        n=st.one_of(st.integers(2, 64), st.integers(2, 10**6)),
        root=st.integers(2, 40),
        k=st.integers(1, 12),
        c=st.one_of(st.just(1), st.integers(1, 9)),
        sign=st.sampled_from((1, -1)),
    )
    @example(n=12, root=2, k=6, c=1, sign=1)  # |m| = 2^k with k | n
    @example(n=7, root=2, k=7, c=1, sign=1)  # q = n itself, bit_length(m) = n + 1
    @example(n=10, root=2, k=5, c=1, sign=-1)  # negative m, odd k: (-2)^5
    @example(n=10, root=3, k=2, c=1, sign=-1)  # negative m, even k: -9 is no square
    @example(n=4, root=3, k=4, c=4, sign=-1)  # -4 * 3^4 with 4 | n
    @example(n=8, root=2, k=2, c=1, sign=-1)  # -4 * 1^4 with 8 | n
    @example(n=12, root=2, k=4, c=1, sign=-1)  # -16 = -4 * 4 is no -4k^4
    @example(n=3 * 4099, root=5, k=3, c=1, sign=1)  # a prime of n above 2^12, a cube
    @example(n=2 * 4099, root=7, k=1, c=1, sign=-1)
    def test_matches_factoring_oracle(self, n, root, k, c, sign):
        m = sign * root**k * c
        assert purefield.binomial_irreducible(n, m) == binomial_irreducible_by_factoring(n, m)

    def test_large_prime_power_of_n(self):
        # q = 4099 > 2^12 divides n and m is a 4099-th power, of either sign
        for n in (4099, 6 * 4099):
            for m in (2**4099, -(3**4099), 6**4099 * 5):
                assert purefield.binomial_irreducible(n, m) == binomial_irreducible_by_factoring(n, m), (n, m)
        assert not purefield.binomial_irreducible(6 * 4099, -(3**4099))

    def test_huge_prime_exponent_finishes(self):
        # a 4294967311-th root of 3 is 1; Newton would form a 4.3-Gbit power to find it
        assert purefield.binomial_irreducible(3 * 4294967311, 3)
        assert purefield.analyze(3 * 4294967311, 3).status == "inconclusive"


class TestCheckField:
    def test_accepts(self):
        assert purefield._check_field(4, 17) is None
        assert purefield.analyze(4, 17).n == 4

    def test_rejects(self):
        with pytest.raises(ValueError):
            purefield.analyze(2, 5)
        with pytest.raises(ValueError, match="reducible"):
            purefield.analyze(6, 64)

    def test_generator_route_never_answers_a_reducible_binomial(self):
        # analyze tests irreducibility only in theorem_general_test, after the generator route; so on every
        # reducible x^n - m, n = 3..128, |m| <= 3000 or m = +-2^k or 6^k, the screen must return None and no
        # a^u = m may make construct_generator succeed.  x^4620 - m is irreducible iff m is no q-th power for a
        # prime q <= 11 and no -4k^4 (4620 = 4 * 3 * 5 * 7 * 11), and then so is every x^n - m with |m| <= 3000
        small = [m for m in range(-3000, 3001) if abs(m) >= 2 and not purefield.binomial_irreducible(4620, m)]
        powers = [m for k in range(2, 65) for m in (2**k, -(2**k), 6**k)]
        cases = {(n, m) for m in small + powers for n in range(3, 129) if not purefield.binomial_irreducible(n, m)}
        assert len(cases) == 11966
        for m in set(small + powers):
            roots = [(u, purefield._kth_root(abs(m), u)) for u in range(2, abs(m).bit_length())]
            reps = [(-r if m < 0 else r, u) for u, r in roots if r is not None and (m > 0 or u % 2)]
            for n in range(3, 129):
                if (n, m) not in cases:
                    continue
                assert purefield.detect_power_decomposition(n, m) is None, (n, m)
                for a, u in reps:
                    with pytest.raises(ValueError):
                        purefield.construct_generator(n, a, u)

    def test_analyze_tests_irreducibility_once(self, monkeypatch):
        calls = []
        real = purefield.binomial_irreducible
        monkeypatch.setattr(purefield, "binomial_irreducible", lambda n, m: calls.append((n, m)) or real(n, m))
        assert purefield.analyze(12, 7).status == "inconclusive"
        assert calls == [(12, 7)]
        calls.clear()
        with pytest.raises(ValueError, match="reducible"):
            purefield.analyze(6, 64)
        assert calls == [(6, 64)]
        # the generator route needs none: 36 = 6^2 with 6 squarefree and gcd(2, 3) = 1
        calls.clear()
        assert purefield.analyze(3, 36).status == "monogenic"
        assert calls == []


class TestClosedFormPolygon:
    def test_matches_direct_computation(self):
        phi = IntPoly([-1, 1])
        data = purefield.closed_form_polygon(9, 7, 3, phi)
        direct = principal_polygon(phi_expand(IntPoly.binomial(9, 7), phi), 3)
        assert data.hull() == direct
        assert data.nu0 == 1

    def test_case_split_shapes(self):
        # deep congruence: nu >= r+1 gives r+1 sides through (1, r), ..., (p^r, 0)
        phi = purefield.closed_form_lift(1, 80, 3, fppoly.FpPoly(3, [-80, 1]))
        data = purefield.closed_form_polygon(27, 80, 3, phi)
        hull = data.hull()
        assert len(hull.sides) == 4
        assert hull.vertices == ((0, data.nu0), (1, 3), (3, 2), (9, 1), (27, 0))
        # shallow congruence: nu <= r gives nu sides
        phi2 = purefield.closed_form_lift(1, 2, 3, fppoly.FpPoly(3, [-2, 1]))
        data2 = purefield.closed_form_polygon(27, 2, 3, phi2)
        assert data2.nu0 == 1
        assert len(data2.hull().sides) == 1

    def test_identity_decomposition(self):
        # (9, 7) at x - 1 as before; r = 2 with u > 1 (deg phi 1 and 2); negative m, r = 1 and r = 2
        instances = [(9, 7, 3, IntPoly([-1, 1]))]
        for n, m, p, u in [(18, 5, 3, 2), (45, 2, 3, 5), (50, -3, 5, 2), (28, -10, 7, 4), (98, -3, 7, 2)]:
            for phi_bar, _ in fppoly.factor(IntPoly.binomial(u, m).reduce_mod(p)).factors:
                instances.append((n, m, p, purefield.closed_form_lift(u, m, p, phi_bar)))
        assert {phi.degree for *_, phi in instances} >= {1, 2}
        for n, m, p, phi in instances:
            data = purefield.closed_form_polygon(n, m, p, phi)
            q = p**data.r
            U, T = cofactor_pair(data.u, m, p, phi)
            assert IntPoly.binomial(data.u, m).coeffs == poly_add(poly_mul(data.phi.coeffs, U), T, p)
            assert data.A0 == poly_add((m**q - m,), data.R, p ** (data.r + 1))
            # the exact correction polynomial H, built in full; R is its remainder mod phi
            pT = poly_add((), T, p)
            binomial_sum = ()
            for j in range(q - 1):
                power = (1,)
                for _ in range(q - j):
                    power = poly_mul(power, pT)
                binomial_sum = poly_add(binomial_sum, power, math.comb(q, j) * m**j)
            H = poly_add(poly_add((), T, m ** (q - 1)), poly_exact_div(binomial_sum, p ** (data.r + 1)))
            V, R = poly_divmod(H, phi.coeffs)
            assert H == poly_add(poly_mul(V, phi.coeffs), R)
            assert R == data.R, (n, m, p, phi)

    def test_r3_matches_horner_oracle(self):
        # q = 27, 125 and 343, where building H in full (above) is out of reach; m of both signs,
        # phi of degree 1 to 4 (x^5 - m mod 3 has a quartic factor, x^3 - 3 mod 7 is irreducible)
        instances = []
        for p, u, m in [(3, 1, 5), (3, 5, -7), (3, 13, 2), (5, 2, 2), (5, 4, 3), (5, 2, -3), (7, 1, -10), (7, 3, 3)]:
            for phi_bar, _ in fppoly.factor(IntPoly.binomial(u, m).reduce_mod(p)).factors:
                instances.append((u * p**3, m, p, purefield.closed_form_lift(u, m, p, phi_bar)))
        assert {phi.degree for *_, phi in instances} == {1, 2, 3, 4}
        for n, m, p, phi in instances:
            data = purefield.closed_form_polygon(n, m, p, phi)
            assert data.r == 3
            U, T = cofactor_pair(data.u, m, p, phi)
            assert IntPoly.binomial(data.u, m).coeffs == poly_add(poly_mul(data.phi.coeffs, U), T, p)
            assert closed_form_horner(m, p, 3, phi, T) == (data.R, data.A0, data.nu0, data.points), (n, m, p, phi)
            assert all(is_canonical(a) for a in (data.phi, data.R, data.A0))

    def test_bad_lift_rejected_and_bump_works(self):
        phi_bar = fppoly.FpPoly(3, [2, 1])  # x + 2, the [0, p) lift for m = 7
        with pytest.raises(ValueError, match="cofactor T"):
            purefield.closed_form_polygon(9, 7, 3, IntPoly.lift(phi_bar))
        bumped = purefield.closed_form_lift(1, 7, 3, phi_bar)
        assert bumped == IntPoly([5, 1])
        data = purefield.closed_form_polygon(9, 7, 3, bumped)
        direct = principal_polygon(phi_expand(IntPoly.binomial(9, 7), bumped), 3)
        assert data.hull() == direct

    def test_inexact_correction_rejected(self, monkeypatch):
        # p^(r+1) divides S - m^q by the binomial theorem; an S that breaks it raises rather than rounds R
        monkeypatch.setattr(purefield, "_powmod", lambda *a: [2])  # 2 - 7^9 = 1 mod 27
        with pytest.raises(ValueError, match="not divisible by 27"):
            purefield.closed_form_polygon(9, 7, 3, IntPoly([5, 1]))

    def test_lift_matches_cofactor_split(self):
        # the bump read off (x^u - m) mod phi against the rule on the cofactor T of x^u - m = phi U + p T;
        # every factor is simple (p divides neither u nor m), so phi_bar never divides U mod p
        checked = 0
        for p in (3, 5, 7):
            for u in range(1, 7):
                if u % p == 0:
                    continue
                for m in range(-50, 51):
                    if m % p == 0:
                        continue
                    for phi_bar, multiplicity in fppoly.factor(IntPoly.binomial(u, m).reduce_mod(p)).factors:
                        assert multiplicity == 1, (u, m, p, phi_bar)
                        lift = IntPoly.lift(phi_bar)
                        _, T = cofactor_pair(u, m, p, lift)
                        bump = (fppoly.FpPoly(p, T) % phi_bar).is_zero
                        want = IntPoly(poly_add(lift.coeffs, (p,))) if bump else lift
                        assert purefield.closed_form_lift(u, m, p, phi_bar) == want, (u, m, p, phi_bar)
                        checked += 1
        assert checked > 1000

    @pytest.mark.parametrize(
        "u, m, p, coeffs", [(1, 7, 3, [0, 1]), (2, 3, 5, [1, 1]), (4, 2, 7, [1, 2, 1]), (1, 2, 3, [0, 0, 1])]
    )
    def test_lift_of_a_non_factor_rejected(self, u, m, p, coeffs):
        phi_bar = fppoly.FpPoly(p, coeffs)
        with pytest.raises(ValueError) as split:
            cofactor_pair(u, m, p, IntPoly.lift(phi_bar))
        with pytest.raises(ValueError, match="does not divide") as lift:
            purefield.closed_form_lift(u, m, p, phi_bar)
        assert str(lift.value) == str(split.value)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="odd"):
            purefield.closed_form_polygon(4, 17, 2, IntPoly([1, 1]))
        with pytest.raises(ValueError, match="divide"):
            purefield.closed_form_polygon(9, 7, 5, IntPoly([-1, 1]))
        with pytest.raises(ValueError, match="divides m"):
            purefield.closed_form_polygon(9, 6, 3, IntPoly([-1, 1]))
        with pytest.raises(ValueError, match="not divide"):
            purefield.closed_form_polygon(9, 5, 3, IntPoly([-1, 1]))
        # the valuation of n = 0 would never end, and a negative n leaves no u >= 1
        for n in (0, -9):
            with pytest.raises(ValueError, match="n must be positive"):
                purefield.closed_form_polygon(n, 7, 3, IntPoly([-1, 1]))
        # the lift's remainder test divides by phi over Z, so it takes only a monic phi_bar of degree >= 1
        for coeffs in ([1, 2], [1]):
            with pytest.raises(ValueError, match="monic"):
                purefield.closed_form_lift(1, 7, 3, fppoly.FpPoly(3, coeffs))

    def test_pinned_on_criterion_3_grid(self):
        # the lift, R, A0, nu0 and points, or the error text, over the grid p in {3, 5, 7}, r <= 3, u <= 6 and
        # |m| <= 50 coprime to p, at every factor of x^u - m mod p, through both the bumped and the [0, p) lift
        lines = []
        for p in (3, 5, 7):
            for u in range(1, 7):
                if u % p == 0:
                    continue
                for m in range(-50, 51):
                    if m % p == 0:
                        continue
                    for phi_bar, _ in fppoly.factor(IntPoly.binomial(u, m).reduce_mod(p)).factors:
                        lift = purefield.closed_form_lift(u, m, p, phi_bar)
                        for r in (1, 2, 3):
                            for phi in (lift, IntPoly.lift(phi_bar)):
                                try:
                                    d = purefield.closed_form_polygon(u * p**r, m, p, phi)
                                    out = (d.R, d.A0, d.nu0, d.points)
                                except ValueError as e:
                                    out = str(e)
                                lines.append(f"{u} {m} {p} {r} {phi.coeffs} {out}")
        assert len(lines) == 13458
        assert sum(line.endswith("cofactor T mod p; use closed_form_lift") for line in lines) == 1173
        assert sum(line.endswith("degenerate constant part") for line in lines) == 8
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "1af8f7706782dd9cf5210f1992dee3fe2980bf5f5ebf504ad7eebff9a3036d62"

    def test_oracle_equivalence_random(self):
        rng = random.Random(99)
        done = 0
        while done < 25:
            p = rng.choice([3, 5, 7])
            r = rng.randint(1, 2)
            u = rng.randint(1, 6)
            m = rng.randint(-50, 50)
            if u % p == 0 or abs(m) < 2 or m % p == 0:
                continue
            n = u * p**r
            if not purefield.binomial_irreducible(n, m):
                continue
            fm = fppoly.factor(IntPoly.binomial(u, m).reduce_mod(p))
            phi_bar, _ = rng.choice(list(fm.factors))
            phi = purefield.closed_form_lift(u, m, p, phi_bar)
            data = purefield.closed_form_polygon(n, m, p, phi)
            direct = principal_polygon(phi_expand(IntPoly.binomial(n, m), phi), p)
            assert data.hull() == direct, (n, m, p, phi)
            done += 1


class TestGeneralCriterion:
    def test_fires_on_27_82(self):
        v = purefield.theorem_general_test(27, 82)
        assert v is not None and v.status == "not_monogenic"
        assert (v.p, v.witness_d, v.ideal_count, v.irreducible_count) == (3, 1, 4, 3)

    def test_huge_degree_instance(self):
        v = purefield.theorem_general_test(5 * 7**7, 7**8 - 1)
        assert v is not None
        assert (v.p, v.witness_d, v.ideal_count, v.irreducible_count) == (7, 1, 8, 7)

    def test_no_fire(self):
        assert purefield.theorem_general_test(9, 5) is None
        assert purefield.theorem_general_test(4, 17) is None  # no odd prime divides 4

    def test_reducible_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            purefield.theorem_general_test(6, 64)

    def test_valuation_above_64_counted_exactly(self):
        v = purefield.theorem_general_test(3**70, 3**70 + 1)
        assert (v.p, v.witness_d, v.ideal_count, v.irreducible_count) == (3, 1, 70, 3)

    @pytest.mark.parametrize(
        "n,m",
        [
            (27, 82),
            (5 * 7**7, 7**8 - 1),
            (3**70, 3**70 + 1),  # r + 1 = 71, nu = 70
            (2 * 3**66, 3**66 + 1),  # r + 1 = 67, nu = 66
            (4 * 3**65, 10),  # r + 1 = 66, nu = 2
        ],
    )
    def test_certificate_recomputable(self, n, m):
        v = purefield.theorem_general_test(n, m)
        p = v.p
        u, r = n, 0
        while u % p == 0:
            u, r = u // p, r + 1
        effective = 0
        while effective < r + 1 and (m ** (p - 1) - 1) % p ** (effective + 1) == 0:
            effective += 1
        assert v.ideal_count == effective * fppoly.count_degree_d_factors(p, v.witness_d, u, m)
        assert v.irreducible_count == arith.count_irreducibles(p, v.witness_d)

    def test_prime_of_n_above_2_31(self):
        # p = 4294967311 | n: the criterion counts factors mod p by pow(m, k, p) alone
        n = 4294967311 * 2**31
        assert purefield.theorem_general_test(n, 3) is None
        v = purefield.analyze(n, 3)
        assert v.status == "inconclusive"
        assert "splitting-count criterion did not fire" in v.notes

    def test_cross_validation_against_splitting(self):
        # every firing with moderate degree is confirmed by the full splitting
        for n, m in [(27, 80), (27, 82), (45, 19)]:
            v = purefield.theorem_general_test(n, m)
            if v is None:
                continue
            split = ore.ore_split(IntPoly.binomial(n, m), v.p)
            assert split.exact
            assert sum(s.f == v.witness_d for s in split.slots) >= v.ideal_count


class TestCorollaryChecks:
    """The paper's family corollaries, evaluated as congruences, against `theorem_general_test`."""

    @staticmethod
    def _shallow(family, r, s, m, cond):
        # 3-11 condition (2) asks only nu_3(m^2 - 1) >= 3 (m^2 = 1 mod 27).  With nu = 3 or r = 2,
        # k = min(nu - 1, r) = 2 gives 3 degree-1 primes over the one root of x^11 - m mod 3, no more than the
        # 3 monic linear polynomials over F_3: the criterion needs m^2 = 1 mod 81 and r >= 3.  At s >= 2 the
        # degree-5 factors of x^(11^s) - m fire on their own.
        return family == "3-11" and cond == 2 and s == 1 and (r == 2 or pow(m, 2, 81) != 1)

    def test_every_firing_is_confirmed_but_the_shallow_3_11_condition(self):
        fired = shallow = 0
        for family, moduli in {"5-7": (7**8, 5**6), "3-11": (11**12, 27), "5-11": (11**3, 5**6)}.items():
            ms = set(range(-30, 31)) | {k * M + e for M in moduli for k in (-3, -2, -1, 1, 2, 3) for e in (-1, 1)}
            for r in range(1, 7):
                for s in range(1, 12):
                    for m in sorted(ms):
                        if abs(m) < 2:
                            continue
                        n, cond = family_condition(family, r, s, m)
                        if cond is None or not purefield.binomial_irreducible(n, m):
                            continue
                        fired += 1
                        expect_none = self._shallow(family, r, s, m, cond)
                        shallow += expect_none
                        assert (purefield.theorem_general_test(n, m) is None) == expect_none, (family, r, s, m, cond)
        assert (fired, shallow) == (1848, 44)

    def test_family_5_7(self):
        n, cond = family_condition("5-7", 1, 7, 7**8 - 1)
        assert cond == 1 and purefield.theorem_general_test(n, 7**8 - 1) is not None

    def test_family_5_11(self):
        n, cond = family_condition("5-11", 1, 2, 1330)
        assert cond == 1
        assert purefield.theorem_general_test(n, 1330).ideal_count == 15  # 3 sides x 5 factors

    def test_family_3_11_discrepancy_flagged(self):
        # shallow congruence: condition (2) holds at r=2, but the splitting-count inequality does not fire
        n, cond = family_condition("3-11", 2, 1, 26)
        assert (n, cond) == (99, 2)
        assert purefield.theorem_general_test(99, 26) is None

    def test_family_3_11_fires_when_deep(self):
        n, cond = family_condition("3-11", 3, 1, 80)
        assert cond == 2 and purefield.theorem_general_test(n, 80) is not None

    def test_silent_family_is_not_a_discrepancy(self):
        assert family_condition("5-7", 1, 1, 3) == (35, None)


class TestConstructGenerator:
    @pytest.mark.parametrize("n,a,u", [(6, 30, 5), (4, 6, 3), (6, 6, 5), (10, 10, 3)])
    def test_suite(self, n, a, u):
        v = purefield.construct_generator(n, a, u)
        assert v.status == "monogenic"
        assert u * v.t - n * v.s == 1 and 1 <= v.t <= n
        assert v.generator_poly == IntPoly.binomial(n, a)
        assert v.alpha_index_bound == (n - 1) * (u - 1) // 2
        for q in arith.factorize(a).prime_divisors:
            assert ore.ore_split(v.generator_poly, q).index_valuation == 0
            assert ore.ore_split(IntPoly.binomial(n, a**u), q).index_valuation >= v.alpha_index_bound

    def test_negative_base(self):
        v = purefield.construct_generator(4, -2, 3)
        assert v.status == "monogenic" and v.generator_poly == IntPoly.binomial(4, -2)

    def test_precondition_errors_name_the_failure(self):
        with pytest.raises(ValueError, match="u >= 2"):
            purefield.construct_generator(6, 30, 1)
        with pytest.raises(ValueError, match="gcd"):
            purefield.construct_generator(6, 30, 3)
        with pytest.raises(purefield.GeneratorHypothesisError, match="^a=12 not squarefree$"):
            purefield.construct_generator(6, 12, 5)
        with pytest.raises(purefield.GeneratorHypothesisError, match="^a=5 misses a prime of n$"):
            purefield.construct_generator(6, 5, 5)
        for a in (-1, 0, 1):
            with pytest.raises(ValueError, match=r"\|a\| >= 2"):
                purefield.construct_generator(3, a, 2)

    def test_prime_above_modulus_limit(self):
        # the closed-form self-check decides q = 4294967311 without factoring over F_q
        v = purefield.analyze(3, (3 * 4294967311) ** 2)
        assert v.status == "monogenic" and v.generator_base == 3 * 4294967311
        assert "q=4294967311: generator index valuation 0; defining-root index valuation >= 1" in v.notes

    def test_pure_split_matches_ore_split(self):
        # the closed form agrees with ore_split wherever both run; u = 1 is G = x^n - a
        for q in (3, 5, 7):
            for n in range(3, 40):
                for u in range(1, 12):
                    if math.gcd(n, u) != 1:
                        continue
                    for a in (2 * q, -q):
                        c = a**u
                        split = ore.ore_split(IntPoly.binomial(n, c), q)
                        assert purefield._pure_split(n, c, q) == (split.exact, split.index_valuation), (n, u, q, a)
        # a side of degree 2, (0, 2)--(4, 0): y^2 - 2 is separable mod 3, so the split is exact
        assert purefield._pure_split(4, 18, 3) == (True, 2)

    def test_pure_split_index_is_the_column_count(self):
        # the one side (0, k)--(n, 0) of x^n - 3^k at 3, counted column by column
        for n in range(2, 60):
            for k in range(1, 20):
                poly = principal_from_points([(0, k), (n, 0)])
                assert purefield._pure_split(n, 3**k, 3)[1] == polygon_index_by_columns(poly, 1), (n, k)


class TestEveryPrimeOfNDividesA:
    """n | a^e with e = bit_length(n) exactly when every prime of n divides a, as no exponent of n reaches e."""

    def test_pow_identity_matches_factoring(self):
        for n in range(2, 5000):
            primes = arith.factorize(n).prime_divisors
            rad = math.prod(primes)
            for b in [*range(1, 31), rad, 2 * rad, rad * primes[-1], rad // primes[0], rad // primes[-1]]:
                for a in (b, -b):
                    assert (pow(a, n.bit_length(), n) == 0) == all(a % p == 0 for p in primes), (n, a)

    def test_generator_hypothesis_matches_factoring(self):
        # rad(n) * q (q a prime not dividing n) holds every prime of n; rad(n) / p misses p
        for n in range(3, 5000, 7):
            primes = arith.factorize(n).prime_divisors
            rad = math.prod(primes)
            q = next(q for q in (2, 3, 5, 7, 11, 13) if n % q)
            u = next(u for u in range(2, 30) if math.gcd(u, n) == 1)
            for sign in (1, -1):
                assert purefield.construct_generator(n, sign * rad * q, u).status == "monogenic"
                if len(primes) > 1:
                    a = sign * rad // primes[0]
                    with pytest.raises(purefield.GeneratorHypothesisError, match=f"^a={a} misses a prime of n$"):
                        purefield.construct_generator(n, a, u)


PRIMES_BELOW_64 = [p for p in range(2, 64) if arith.is_prime(p)]


class TestPureSplitOracle:
    @settings(max_examples=200)
    @given(
        n=st.integers(3, 64),
        p=st.sampled_from(PRIMES_BELOW_64),
        k=st.integers(1, 9),
        c=st.integers(1, 60),
        sign=st.sampled_from([1, -1]),
    )
    @example(n=4, p=2, k=2, c=3, sign=1)  # g = 2: p | g, not exact
    @example(n=9, p=3, k=3, c=2, sign=-1)  # g = 3 = p, negative m
    @example(n=12, p=3, k=2, c=5, sign=1)  # p | n and p | m, g = 2 prime to p
    @example(n=6, p=2, k=1, c=3, sign=-1)  # p = 2 | n*m, Eisenstein
    @example(n=8, p=2, k=4, c=2, sign=-1)  # nu_2(m) = 5 > k
    @example(n=64, p=61, k=9, c=60, sign=-1)  # largest degree and prime
    def test_matches_ore_split(self, n, p, k, c, sign):
        # Ore's data at p | m in closed form against the full splitting; an exact split is never a witness
        assume(p < n)
        m = sign * p**k * c
        F = IntPoly.binomial(n, m)
        split = ore.ore_split(F, p)
        assert purefield._pure_split(n, m, p) == (split.exact, split.index_valuation)
        if split.exact:
            assert ore.common_index_divisor(F, p) is None


# (n, m) -> (d, ideal_count, irreducible_count): every pair with n in
# {66, 72, 80, 96, 100, 128, 130, 160, 192, 256} and odd 3 <= m < 60 that the
# 2-adic count decides; all were inconclusive while p = 2 needed a direct split
# of degree at most 64
ABOVE_BUDGET_WITNESSES = {
    (66, 5): (2, 3, 1), (66, 13): (2, 3, 1), (66, 17): (2, 2, 1), (66, 21): (2, 3, 1),
    (66, 29): (2, 3, 1), (66, 33): (2, 2, 1), (66, 41): (2, 2, 1), (66, 45): (2, 3, 1),
    (66, 53): (2, 3, 1), (66, 57): (2, 2, 1), (72, 5): (2, 3, 1), (72, 13): (2, 3, 1),
    (72, 17): (2, 5, 1), (72, 21): (2, 3, 1), (72, 29): (2, 3, 1), (72, 33): (1, 4, 2),
    (72, 41): (2, 4, 1), (72, 45): (2, 3, 1), (72, 53): (2, 3, 1), (72, 57): (2, 4, 1),
    (80, 17): (4, 4, 3), (80, 33): (1, 3, 2), (96, 5): (2, 3, 1), (96, 13): (2, 3, 1),
    (96, 17): (2, 5, 1), (96, 21): (2, 3, 1), (96, 29): (2, 3, 1), (96, 33): (1, 3, 2),
    (96, 41): (2, 4, 1), (96, 45): (2, 3, 1), (96, 53): (2, 3, 1), (96, 57): (2, 4, 1),
    (100, 17): (1, 3, 2), (100, 33): (1, 3, 2), (128, 33): (1, 3, 2), (160, 17): (4, 4, 3),
    (160, 33): (1, 3, 2), (192, 5): (2, 3, 1), (192, 13): (2, 3, 1), (192, 17): (2, 5, 1),
    (192, 21): (2, 3, 1), (192, 29): (2, 3, 1), (192, 33): (1, 3, 2), (192, 41): (2, 4, 1),
    (192, 45): (2, 3, 1), (192, 53): (2, 3, 1), (192, 57): (2, 4, 1), (256, 33): (1, 3, 2),
}


class TestTwoAdicCount:
    def test_matches_ore_split(self):
        # per factor phi, the closed-form primes are Ore's slots; the witness is the one of Ore's counts
        for n in range(2, 129, 2):
            r = arith._valuation(2, n)
            u = n >> r
            # x^n - m = (x^u - 1)^(2^r) mod 2 for every odd m
            phi_degrees = Counter({f: fppoly.count_degree_d_factors(2, f, u, 1) for f in range(1, u + 1)})
            for m in range(-199, 200, 2):
                if abs(m) < 2 or not purefield.binomial_irreducible(n, m):
                    continue
                split = ore.ore_split(IntPoly.binomial(n, m), 2)
                assert split.exact, (n, m)
                by_phi: dict = {}
                for slot in split.slots:
                    by_phi.setdefault(slot.phi, []).append((slot.e, slot.f))
                assert +Counter(phi.degree for phi in by_phi) == +phi_degrees, (n, m)
                nu = min(r + 2, arith.padic_valuation(2, m - 1))
                for phi, primes in by_phi.items():
                    assert sorted(primes) == sorted(purefield._local_primes(2, r, phi.degree, nu)), (n, m, phi)
                counts = Counter(slot.f for slot in split.slots)
                bounds = {d: arith.count_irreducibles(2, d) for d in counts}
                ore_witness = next(
                    (arith.IndexDivisorWitness(2, d, counts[d], bounds[d]) for d in sorted(counts) if counts[d] > bounds[d]), None
                )
                assert purefield._count_witness(n, m, 2) == ore_witness, (n, m)

    def test_primes_cover_the_degree(self):
        # sum of e * residue degree over phi is p^r * deg(phi), far beyond the n of the Ore grid;
        # nu runs over every value the cap at r + 2 leaves
        for p in (2, 3, 5, 7):
            for r in range(1, 12):
                for f in range(1, 7):
                    for nu in range(1, r + 3):
                        primes = purefield._local_primes(p, r, f, nu)
                        assert sum(e * g for e, g in primes) == p**r * f, (p, r, f, nu)

    def test_verdicts_above_the_budget(self):
        # the only verdicts the count changes, each re-derived by a direct split at p = 2
        for n in (66, 72, 80, 96, 100, 128, 130, 160, 192, 256):
            for m in range(3, 60, 2):
                if not purefield.binomial_irreducible(n, m) or purefield.theorem_general_test(n, m):
                    continue
                witness = ore.common_index_divisor(IntPoly.binomial(n, m), 2)
                expected = witness and (witness.d, witness.ideal_count, witness.irreducible_count)
                assert ABOVE_BUDGET_WITNESSES.get((n, m)) == expected, (n, m)
                v = purefield.analyze(n, m)
                if expected:
                    assert (v.status, v.provenance, v.p) == ("not_monogenic", "common-index-divisor:p=2", 2)
                    assert (v.witness_d, v.ideal_count, v.irreducible_count) == expected
                else:
                    assert v.status == "inconclusive"
                    assert v.notes[-2:] == (
                        "p=2: no common index divisor",
                        f"degree {n} exceeds the direct-split budget 64",
                    )

    def test_huge_n(self, monkeypatch):
        v = purefield.analyze(2**200, 33)
        assert (v.status, v.provenance, v.witness_d, v.ideal_count, v.irreducible_count) == (
            "not_monogenic",
            "common-index-divisor:p=2",
            1,
            3,
            2,
        )
        degrees = []
        original = fppoly.count_degree_d_factors

        def counted(p, d, u, m):
            degrees.append(d)
            return original(p, d, u, m)

        monkeypatch.setattr(fppoly, "count_degree_d_factors", counted)
        n = 2 * (2**61 - 1)
        v = purefield.analyze(n, 3)
        assert v.status == "inconclusive"
        assert v.notes[-2:] == ("p=2: no common index divisor", f"degree {n} exceeds the direct-split budget 64")
        # nu_2(3 - 1) = 1, so k = 0 and the cutoff 2^d >= 2 * (k + 1) * u = 2^62 - 2 ends the count after d = 61
        assert degrees == list(range(1, 62))


class TestBinomialDiscriminant:
    def test_known_values(self):
        assert binomial_discriminant(6, 30) == 6**6 * 30**5
        assert binomial_discriminant(2, 5) == 20
        assert binomial_discriminant(3, 2) == -108

    def test_matches_resultant_route(self):
        for n in range(2, 9):
            for a in (-7, -2, 3, 10):
                assert binomial_discriminant(n, a) == discriminant(IntPoly.binomial(n, a)), (n, a)

    def test_magnitude_identity(self):
        for n, a in [(6, 30), (4, 6), (10, 10)]:
            assert abs(binomial_discriminant(n, a)) == n**n * abs(a) ** (n - 1)


class TestDetectPowerDecomposition:
    def test_found(self):
        assert purefield.detect_power_decomposition(6, 30**5) == (30, 5)
        assert purefield.detect_power_decomposition(27, 81) == (3, 4)
        assert purefield.detect_power_decomposition(4, -8) == (-2, 3)

    def test_root_is_not_factored(self):
        # the screen passes a non-squarefree root on; construct_generator rejects it
        assert purefield.detect_power_decomposition(5, 20**3) == (20, 3)
        with pytest.raises(purefield.GeneratorHypothesisError, match="^a=20 not squarefree$"):
            purefield.construct_generator(5, 20, 3)
        v = purefield.analyze(5, 20**3)
        assert v.notes[0] == "no squarefree power decomposition matches the generator construction"

    def test_not_found(self):
        assert purefield.detect_power_decomposition(6, -64) is None  # 2^6: u = 6 is even and m < 0
        assert purefield.detect_power_decomposition(6, 30) is None  # u = 1 only
        assert purefield.detect_power_decomposition(10, 9) is None  # 3 misses the primes of 10
        assert purefield.detect_power_decomposition(9, 64) is None  # gcd(u, n) > 1 for u in {2, 3, 6}

    def test_no_root_taken_when_m_misses_a_prime_of_n(self, monkeypatch):
        # 15 does not divide m^4 for m = P * Q with 31-bit primes P, Q: no prime of 15 divides m, so no root is tried
        roots = []
        kth_root = purefield._kth_root
        monkeypatch.setattr(purefield, "_kth_root", lambda b, k: roots.append(k) or kth_root(b, k))
        assert purefield.detect_power_decomposition(15, (2**31 - 1) * 2147483629) is None
        assert roots == []
        # a power whose root has every prime of n still takes its roots
        assert purefield.detect_power_decomposition(15, (15 * 2147483647) ** 2) == (15 * 2147483647, 2)
        assert roots


def _power_decomposition_oracle(n, m):
    """The screen by the exponent-gcd rule: factor m and take u = g, the gcd of its exponents."""
    fac = arith.factorize(m)
    g = 0
    for _, e in fac.factors:
        g = math.gcd(g, e)
    if g < 2 or (m < 0 and g % 2 == 0) or math.gcd(g, n) != 1:
        return None
    b = math.prod(p ** (e // g) for p, e in fac.factors)
    if any(b % p for p in arith.factorize(n).prime_divisors):
        return None
    return fac.sign * b, g


def _generator_hypotheses_oracle(n, m):
    """The full hypotheses: try the divisors u of the exponent gcd g, largest first, for a squarefree root."""
    fac = arith.factorize(m)
    n_primes = set(arith.factorize(n).prime_divisors)
    g = 0
    for _, e in fac.factors:
        g = math.gcd(g, e)
    for u in sorted((d for d in range(2, g + 1) if g % d == 0), reverse=True):
        if m < 0 and u % 2 == 0:
            continue
        if math.gcd(u, n) != 1:
            continue
        if any(e != u for _, e in fac.factors):
            continue  # the u-th root must be squarefree
        a = fac.sign * math.prod(fac.prime_divisors)
        if abs(a) < 2:
            continue
        if not n_primes <= set(fac.prime_divisors):
            continue
        return a, u
    return None


_POWER_INPUTS = dict(
    a=st.integers(min_value=2, max_value=60),
    u=st.integers(min_value=1, max_value=8),
    c=st.one_of(st.just(1), st.integers(min_value=1, max_value=30)),
    sign=st.sampled_from((1, -1)),
    n=st.integers(min_value=3, max_value=40),
)


def _power_examples(test):
    for kwargs in (
        dict(a=6, u=2, c=1, sign=-1, n=5),  # negative m with even u
        dict(a=12, u=5, c=1, sign=1, n=6),  # non-squarefree root
        dict(a=10, u=3, c=1, sign=-1, n=15),  # root misses the prime 3 of n
        dict(a=30, u=3, c=1, sign=1, n=6),  # gcd(u, n) = 3
        dict(a=30, u=5, c=1, sign=-1, n=6),  # every hypothesis holds
        dict(a=2, u=4, c=2, sign=1, n=3),  # 2^4 * 2 = 2^5
        dict(a=2, u=60, c=1, sign=1, n=7),  # composite g: 2^60
        dict(a=3, u=36, c=1, sign=1, n=5),  # 3^36
        dict(a=5, u=15, c=1, sign=-1, n=4),  # (-5)^15
        dict(a=42, u=12, c=1, sign=1, n=7),  # (6*7)^12, found with u = 12
        dict(a=20, u=3, c=1, sign=1, n=5),  # screen passes, root 20 not squarefree
    ):
        test = example(**kwargs)(test)
    return test


class TestDetectPowerDecompositionOracle:
    @given(**_POWER_INPUTS)
    @_power_examples
    def test_matches_exponent_gcd_rule(self, a, u, c, sign, n):
        m = sign * a**u * c
        got = purefield.detect_power_decomposition(n, m)
        assert got == _power_decomposition_oracle(n, m)
        if got is not None:
            assert got[0] ** got[1] == m

    @settings(deadline=None)
    @given(**_POWER_INPUTS)
    @_power_examples
    def test_analyze_certifies_exactly_under_the_hypotheses(self, a, u, c, sign, n):
        m = sign * a**u * c
        expected = _generator_hypotheses_oracle(n, m)
        if not purefield.binomial_irreducible(n, m):
            assert expected is None
            return
        v = purefield.analyze(n, m)
        got = (v.generator_base, v.generator_exponent) if v.status == "monogenic" else None
        assert got == expected


class TestFactorOnlyWhatARouteNeeds:
    @pytest.fixture
    def factorized(self, monkeypatch):
        """Absolute values factorize was called on; a call above 2^64 fails the test at once."""
        calls = []
        original = arith.factorize

        def guarded(n):
            if abs(n) > 2**64:
                raise AssertionError(f"factorize called on a {abs(n).bit_length()}-bit number")
            calls.append(abs(n))
            return original(n)

        monkeypatch.setattr(arith, "factorize", guarded)
        return calls

    def test_hard_semiprime_decided_without_factoring_m(self, factorized):
        m = (2**61 - 1) * (2**89 - 1)
        assert purefield.analyze(9, m).to_json_dict() == {
            "status": "inconclusive",
            "provenance": "none",
            "n": 9,
            "m": m,
            "notes": [
                "no squarefree power decomposition matches the generator construction",
                "splitting-count criterion did not fire",
                "no common index divisor among primes [3]",
            ],
        }

    def test_power_root_factored_once(self, factorized):
        b = 15 * 2147483647
        v = purefield.analyze(15, b**2)
        assert v.status == "monogenic" and (v.generator_base, v.generator_exponent) == (b, 2)
        assert factorized.count(b) == 1

    def test_n_factored_at_most_once(self, factorized):
        # every route of analyze: generator (a != n), criterion, direct splits, inconclusive
        inputs = [(n, m) for n in (12, 27, 30) for m in range(2, 60)]
        inputs += [(6, 30**5), (15, (15 * 2147483647) ** 2), (5, 20**3), (27, 82), (4, 17), (3, 2)]
        inputs += [(9, (2**31 - 1) * 2147483629), (21, -(2**31 - 1) * 2147483629)]
        for n, m in inputs:
            if not purefield.binomial_irreducible(n, m):
                continue
            factorized.clear()
            purefield.analyze(n, m)
            assert factorized.count(n) <= 1, (n, m, factorized)

    def test_hypotheses_of_a_huge_n_without_factoring_it(self, factorized):
        N = (2**61 - 1) * (2**89 - 1)
        assert purefield.binomial_irreducible(N, 3)
        assert purefield.detect_power_decomposition(N, 6**5) is None
        with pytest.raises(purefield.GeneratorHypothesisError, match="^a=2 misses a prime of n$"):
            purefield.construct_generator(N, 2, 5)
        assert factorized == [2]

    def test_31_bit_semiprime_never_factored(self, factorized):
        m = (2**31 - 1) * 2147483629
        for n in (9, 15, 21):
            purefield.analyze(n, m)
            purefield.analyze(n, -m)
        assert factorized
        assert m not in factorized


class TestUnsplitCofactor:
    """Rho's budget leaves a composite unsplit: the routes that need its primes never read the rest as complete."""

    SEMIPRIME = 1000003 * 1000033

    @pytest.fixture
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(arith, "_RHO_BUDGET", 64)
        assert arith.factorize(self.SEMIPRIME).cofactors == (self.SEMIPRIME,)

    def test_squarefree_hypothesis_undecided(self, small_budget):
        a = 6 * self.SEMIPRIME
        with pytest.raises(purefield.GeneratorHypothesisError, match=f"undecided.* 40-bit cofactor {self.SEMIPRIME}$"):
            purefield.construct_generator(3, a, 2)
        # analyze goes on to the other routes, and says squarefreeness was undecided, not refuted
        v = purefield.analyze(3, a**2)
        assert v.status == "inconclusive"
        assert v.notes[0] == (
            "the power root of m has a 40-bit composite cofactor rho did not split; the generator construction is undecided"
        )
        assert "no squarefree power decomposition matches the generator construction" not in v.notes

    def test_refuted_hypothesis_keeps_its_note(self, small_budget):
        # 144 = 12^2 passes the screen at n = 3; 12 is split completely and is not squarefree: refuted, note unchanged
        assert purefield.detect_power_decomposition(3, 144) == (12, 2)
        with pytest.raises(purefield.GeneratorHypothesisError, match="not squarefree") as info:
            purefield.construct_generator(3, 12, 2)
        assert info.value.cofactor is None
        assert purefield.analyze(3, 144).notes[0] == "no squarefree power decomposition matches the generator construction"

    def test_criterion_tries_the_primes_found(self, small_budget, monkeypatch):
        tried = []
        monkeypatch.setattr(purefield, "_count_witness", lambda n, m, p: tried.append(p))
        notes = []
        assert purefield.theorem_general_test(5 * 7 * self.SEMIPRIME, 2, notes) is None
        assert tried == [5, 7]
        assert notes == ["n has a 40-bit composite cofactor rho did not split; its primes were not tried"]

    def test_analyze_of_an_n_rho_cannot_split(self):
        # (2^61 - 1)(2^89 - 1) under the real budget: a verdict, not a hang
        n = (2**61 - 1) * (2**89 - 1)
        v = purefield.analyze(n, 3)
        assert v.status == "inconclusive"
        assert v.notes[1:3] == (
            "n has a 150-bit composite cofactor rho did not split; its primes were not tried",
            "splitting-count criterion did not fire",
        )


class TestAnalyze:
    def test_bytes_pinned_on_small_grid(self):
        # sha256 of the verdict JSON, or the error text, over 3 <= n <= 64 and -200 <= m <= 399
        # (37,200 inputs); the digest was taken before the duplicate helpers were folded
        h = hashlib.sha256()
        for n in range(3, 65):
            for m in range(-200, 400):
                try:
                    doc = purefield.analyze(n, m).to_json_dict()
                except ValueError as e:
                    doc = {"error": str(e)}
                h.update(json.dumps([n, m, doc], sort_keys=True).encode())
        assert h.hexdigest() == "91185eedbad62fa5f714a1f62cc9f82de77b8d442c4232f40fe864155f7d6b48"

    def test_monogenic_route(self):
        v = purefield.analyze(6, 30**5)
        assert v.status == "monogenic" and (v.t, v.s) == (5, 4)

    def test_common_index_divisor_route(self):
        v = purefield.analyze(4, 17)
        assert v.status == "not_monogenic"
        assert v.provenance == "common-index-divisor:p=2"
        assert (v.p, v.witness_d, v.ideal_count, v.irreducible_count) == (2, 1, 3, 2)

    def test_criterion_route(self):
        v = purefield.analyze(27, 82)
        assert v.status == "not_monogenic"
        assert v.provenance.startswith("splitting-count")

    def test_inconclusive_is_honest(self):
        v = purefield.analyze(3, 2)
        assert v.status == "inconclusive"
        assert v.notes

    def test_reducible_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            purefield.analyze(6, 64)

    def test_not_p_regular_note(self):
        v = purefield.analyze(4, 12)
        assert v.status == "inconclusive"
        assert "p=2: splitting not p-regular; only an index lower bound is known" in v.notes

    def test_direct_route_errors_propagate(self, monkeypatch):
        # only NotPRegular means "not p-regular"; any other ValueError is a defect and surfaces
        def broken(F, p):
            raise ValueError("injected fault")

        monkeypatch.setattr(ore, "ore_split", broken)
        with pytest.raises(ValueError, match="injected fault"):
            purefield.analyze(9, 5)  # p = 3 does not divide m, so the direct route splits there

    def test_two_adic_errors_propagate(self, monkeypatch):
        def broken(p, d, u, m):
            raise ValueError("injected fault")

        monkeypatch.setattr(fppoly, "count_degree_d_factors", broken)
        with pytest.raises(ValueError, match="injected fault"):
            purefield._count_witness(4, 5, 2)
        with pytest.raises(ValueError, match="injected fault"):
            purefield.analyze(4, 5)  # 4 has no odd prime for the criterion; only the count at p = 2 calls it

    def test_generator_defects_propagate(self, monkeypatch):
        # only GeneratorHypothesisError falls through to the other routes; any other error surfaces
        def broken(n, a, u):
            raise ValueError("injected fault")

        monkeypatch.setattr(purefield, "construct_generator", broken)
        with pytest.raises(ValueError, match="injected fault"):
            purefield.analyze(6, 30**5)

    def test_degree_budget(self):
        v = purefield.analyze(65, 2)
        assert v.status == "inconclusive"
        assert v.notes[-1] == "degree 65 exceeds the direct-split budget 64"

    def test_regularity_note_at_p_equal_n(self):
        # p = n divides gcd(n, m) too: 3 | gcd(3, nu_3(m)) exactly when 27 | m
        irregular = "p=3: splitting not p-regular; only an index lower bound is known"
        noted = [
            m
            for m in range(-200, 400)
            if abs(m) >= 2 and purefield.binomial_irreducible(3, m) and irregular in purefield.analyze(3, m).notes
        ]
        assert noted == [-189, -135, -108, -54, 54, 108, 135, 189, 270, 297, 351, 378]
        assert not ore.ore_split(IntPoly.binomial(3, 54), 3).exact

    def test_regularity_notes_name_the_inexact_primes(self):
        # an inconclusive verdict names exactly the primes p | n*m at which Ore's split is inexact
        checked = 0
        for n in range(3, 21):
            for m in range(-60, 121):
                if abs(m) < 2 or not purefield.binomial_irreducible(n, m):
                    continue
                v = purefield.analyze(n, m)
                if v.status != "inconclusive":
                    continue
                F = IntPoly.binomial(n, m)
                inexact = [p for p in arith.factorize(n * m).prime_divisors if not ore.ore_split(F, p).exact]
                named = [int(note[2 : note.index(":")]) for note in v.notes if "not p-regular" in note]
                assert named == inexact, (n, m)
                checked += 1
        assert checked > 500

    def test_regularity_notes_above_budget(self):
        # a split at p | m is irregular only when p | gcd(n, nu_p(m)); that needs no Ore split,
        # so the note is kept above the degree budget as it is below it
        assert purefield.analyze(68, 12).notes == (
            "no squarefree power decomposition matches the generator construction",
            "splitting-count criterion did not fire",
            "p=2: splitting not p-regular; only an index lower bound is known",
            "degree 68 exceeds the direct-split budget 64",
        )
        assert "p=2: splitting not p-regular; only an index lower bound is known" in purefield.analyze(64, 12).notes
        # 5 | gcd(70, 5) and 7 | gcd(70, 7); 17 does not divide gcd(68, 2), nor 2 gcd(68, 1)
        assert purefield.analyze(70, 5**5 * 7**7).notes[2:] == (
            "p=2: no common index divisor",
            "p=5: splitting not p-regular; only an index lower bound is known",
            "p=7: splitting not p-regular; only an index lower bound is known",
            "degree 70 exceeds the direct-split budget 64",
        )
        assert not any("p-regular" in note for note in purefield.analyze(68, 17**2 * 2).notes)
