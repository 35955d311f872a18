import random
from itertools import zip_longest

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monocert import arith, fppoly
from monocert.fppoly import FpPoly, FqElement


def P(p, *coeffs):
    return FpPoly(p, coeffs)


def _naive_mul(f, g):
    out = [0] * (len(f) + len(g))
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


class TestRingOps:
    def test_gcd_over_f2(self):
        # x^4 + 1 = (x^2 + 1)^2 over F_2
        assert fppoly.gcd(P(2, 1, 0, 0, 0, 1), P(2, 1, 0, 1)) == P(2, 1, 0, 1)

    def test_divide_by_one(self):
        f = P(5, 3, 1, 4)
        q, r = divmod(f, FpPoly.one(5))
        assert (q, r) == (f, FpPoly.zero(5))

    def test_pow_mod(self):
        # x has order 3 modulo x^2 + x + 1 over F_2
        x = FpPoly.x(2)
        assert x.pow_mod(7, P(2, 1, 1, 1)) == x

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            P(2, 1, 1) + P(3, 1, 1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P(3, 1, 1), FpPoly.zero(3))

    def test_modulus_validation(self):
        with pytest.raises(ValueError, match="not prime"):
            FpPoly(6, [1])
        with pytest.raises(ValueError, match="threshold"):
            FpPoly(2**31 + 11, [1])

    @given(
        p=st.sampled_from([2, 5, 11]),
        fc=st.lists(st.integers(0, 10), min_size=1, max_size=8),
        gc=st.lists(st.integers(0, 10), min_size=1, max_size=6),
    )
    def test_divmod_identity(self, p, fc, gc):
        f, g = FpPoly(p, fc), FpPoly(p, gc)
        if g.is_zero:
            return
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree

    @given(
        p=st.sampled_from([2, 3, 5, 7]),
        fc=st.lists(st.integers(-20, 20), max_size=8),
        gc=st.lists(st.integers(-20, 20), max_size=6),
        mc=st.lists(st.integers(-20, 20), min_size=1, max_size=5),
        k=st.integers(-30, 30),
        e=st.integers(0, 6),
    )
    def test_wrappers_match_naive_loops(self, p, fc, gc, mc, k, e):
        f, g, zero = FpPoly(p, fc), FpPoly(p, gc), FpPoly.zero(p)
        pairs = list(zip_longest(fc, gc, fillvalue=0))
        assert f + g == FpPoly(p, [a + b for a, b in pairs])
        assert f - g == FpPoly(p, [a - b for a, b in pairs])
        assert -f == FpPoly(p, [-a for a in fc])
        assert f.scale(k) == FpPoly(p, [k * a for a in fc])
        assert f.scale(k * p) == zero
        assert f.derivative() == FpPoly(p, [i * a for i, a in enumerate(fc)][1:])
        assert FpPoly(p, [0] * p + [1]).derivative() == zero  # d/dx x^p = p x^(p-1) = 0
        monic = f.monic()
        if f.is_zero:
            assert monic == zero
        else:
            assert monic == FpPoly(p, [a * pow(f.lc, -1, p) for a in f.coeffs])
            assert monic.monic() == monic
        assert fppoly.gcd(f, zero) == fppoly.gcd(zero, f) == monic
        h = fppoly.gcd(f, g)
        if not h.is_zero:
            assert h.is_monic and (f % h).is_zero and (g % h).is_zero
        for m in (FpPoly(p, mc), FpPoly(p, [k % p or 1])):  # the second has degree 0
            if m.is_zero:
                continue
            want = FpPoly.one(p) % m
            for _ in range(e):
                want = FpPoly(p, _naive_mul(want.coeffs, f.coeffs)) % m
            assert f.pow_mod(e, m) == want
            with pytest.raises(ValueError, match="negative power"):
                f.pow_mod(-1 - e, m)


class TestFactor:
    def test_quartic_binomial_mod_2(self):
        fm = fppoly.factor(P(2, 1, 0, 0, 0, 1))  # x^4 - 17 reduces to x^4 + 1
        assert fm.factors == ((P(2, 1, 1), 4),)

    def test_five_linear_roots_mod_11(self):
        fm = fppoly.factor(FpPoly(11, [-10, 0, 0, 0, 0, 1]))
        assert len(fm.factors) == 5
        assert all(f.degree == 1 and mult == 1 for f, mult in fm.factors)

    def test_irreducible_fixed(self):
        f = P(2, 1, 1, 1)
        assert fppoly.factor(f).factors == ((f, 1),)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            fppoly.factor(FpPoly.zero(3))

    def test_reconstruction_random(self):
        rng = random.Random(1234)
        for _ in range(1000):
            p = rng.choice([2, 3, 5, 7, 11])
            deg = rng.randint(1, 12)
            f = FpPoly(p, [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])
            fm = fppoly.factor(f, seed=17)
            assert fm.product(p) == f, f
            assert all(fppoly.is_irreducible(g) for g, _ in fm.factors)

    def test_determinism(self):
        f = FpPoly(7, [3, 1, 4, 1, 5, 0, 2, 1])
        assert fppoly.factor(f, seed=3) == fppoly.factor(f, seed=3)


class TestCountDegreeDFactors:
    def test_known_values(self):
        assert fppoly.count_degree_d_factors(7, 1, 5, 2) == 1  # the factor x - 4
        assert fppoly.count_degree_d_factors(11, 1, 5, -1) == 5
        assert fppoly.count_degree_d_factors(3, 2, 11, 2) == 0  # unique root already in F_3
        assert fppoly.count_degree_d_factors(3, 1, 11, 2) == 1

    def test_p_divides_m(self):
        assert fppoly.count_degree_d_factors(5, 1, 7, 10) == 1  # x^7 only has the factor x
        assert fppoly.count_degree_d_factors(5, 2, 7, 10) == 0

    def test_huge_exponent(self):
        # no polynomial is materialized, so u may be astronomical
        assert fppoly.count_degree_d_factors(7, 1, 5**40, 7**8 - 1) == 1

    def test_oracle_agreement_full_range(self):
        for p in (2, 3, 5, 7, 11):
            for u in range(1, 13):
                for m in range(-50, 51):
                    fm = fppoly.factor(FpPoly(p, [-m] + [0] * (u - 1) + [1]), seed=0)
                    for d in range(1, u + 1):
                        assert fppoly.count_degree_d_factors(p, d, u, m) == fm.count_of_degree(d), (p, d, u, m)

    def test_separable_degree_sum(self):
        # with p coprime to u*m the reduction is separable: factor degrees sum to u
        for p, u, m in [(3, 5, 4), (5, 6, 3), (7, 4, 5), (11, 9, 2)]:
            total = sum(d * fppoly.count_degree_d_factors(p, d, u, m) for d in range(1, u + 1))
            assert total == u

    def test_exhaustive_generation_matches_necklace_count(self):
        for p in (2, 3, 5):
            for d in range(1, 4):
                found = 0
                for idx in range(p**d):
                    coeffs = []
                    v = idx
                    for _ in range(d):
                        coeffs.append(v % p)
                        v //= p
                    if fppoly.is_irreducible(FpPoly(p, coeffs + [1])):
                        found += 1
                assert found == arith.count_irreducibles(p, d), (p, d)


class TestSeparability:
    def test_known_values(self):
        assert fppoly.is_separable(P(2, 1, 1, 1))
        assert not fppoly.is_separable(P(3, 1, 2, 1))  # (x+1)^2
        assert fppoly.is_separable(P(5, 2, 1))  # any degree-1 polynomial

    def test_frobenius_composite(self):
        assert not fppoly.is_separable(P(3, 1, 0, 0, 1))  # x^3 + 1 = (x+1)^3


class TestExtensionField:
    def _base(self):
        return P(3, 1, 0, 1)  # x^2 + 1, irreducible mod 3

    def test_inverse(self):
        base = self._base()
        a = FqElement(base, FpPoly.x(3))
        assert (a * a.inverse()) == FqElement.one(base)
        with pytest.raises(ZeroDivisionError):
            FqElement.zero(base).inverse()

    @pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (3, 4), (2, 7), (3, 6), (2, 10), (37, 2)])
    def test_inverse_by_field_size(self, p, d):
        # q = 4, 9 and 81 (fq_factor uses Zech tables), then 128, 729, 1024 and 1369 (_ExtField inverts there)
        base = _first_irreducible(p, d)
        q, one = p**d, FqElement.one(base)
        rng = random.Random(f"inverse:{p}:{d}")
        for _ in range(20):
            a = FqElement(base, FpPoly(p, [rng.randrange(p) for _ in range(d)]))
            if a.is_zero:
                continue
            assert a * a.inverse() == one
            assert a.inverse() == a ** (q - 2)

    def test_inverse_reducible_base(self):
        base = P(5, 1, 0, 1)  # x^2 + 1 = (x + 2)(x + 3) mod 5
        with pytest.raises(ValueError, match="not irreducible"):
            FqElement(base, P(5, 2, 1)).inverse()
        unit = FqElement(base, P(5, 1, 1))  # coprime to the base, so still invertible
        assert unit * unit.inverse() == FqElement.one(base)

    def test_pow(self):
        base = self._base()
        a = FqElement(base, P(3, 1, 1))
        assert a**8 == FqElement.one(base)  # the multiplicative group has order 8

    def test_fq_factor_splits_linear(self):
        # y^2 + 1 = (y - x)(y + x) over F_9 with x^2 = -1
        base = self._base()
        one = FqElement.one(base)
        f = [one, FqElement.zero(base), one]
        factors = fppoly.fq_factor(f, seed=0)
        assert len(factors) == 2
        assert all(mult == 1 and len(g) == 2 for g, mult in factors)
        x = FqElement(base, FpPoly.x(3))
        roots = {(-g[0] / g[1]) for g, _ in factors}
        assert roots == {x, -x}

    def test_fq_separability(self):
        base = self._base()
        one = FqElement.one(base)
        two = FqElement.from_int(base, 2)
        assert fppoly.fq_is_separable([one, one])
        # (y+1)^3 = y^3 + 3y^2 + 3y + 1 = y^3 + 1 in characteristic 3
        assert not fppoly.fq_is_separable([one, FqElement.zero(base), FqElement.zero(base), one])
        assert fppoly.fq_is_separable([two, one, one])

    def test_fq_factor_char2_extension(self):
        # F_4 = F_2[x]/(x^2+x+1); y^2 + y + x is separable, factor it
        base = P(2, 1, 1, 1)
        x = FqElement(base, FpPoly.x(2))
        one = FqElement.one(base)
        f = [x, one, one]
        assert fppoly.fq_is_separable(f)
        factors = fppoly.fq_factor(f, seed=1)
        total = sum(len(g) - 1 for g, mult in factors for _ in range(mult))
        assert total == 2
        # reconstruct the product
        prod = [one]
        for g, mult in factors:
            for _ in range(mult):
                new = [FqElement.zero(base)] * (len(prod) + len(g) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(g):
                        new[i + j] = new[i + j] + a * b
                prod = new
        assert prod == f


def _first_irreducible(p, d):
    """The monic irreducible of degree d over F_p whose low coefficients, read in base p, are smallest."""
    for idx in range(p**d):
        low = list(fppoly._index_coeffs(p, idx))
        f = FpPoly(p, low + [0] * (d - len(low)) + [1])
        if fppoly.is_irreducible(f):
            return f


def _ext_product(K, factors):
    prod = [K.one]
    for g, mult in factors:
        for _ in range(mult):
            prod = K.pmul(prod, list(g))
    return prod


class TestFlatBackends:
    """fq_factor on the flat backends against the FqElement-backed _ExtField reference."""

    # (p, deg phi): q = p, Zech fields up to 81, and 2**7, 2**10 and 37**2 above it
    FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2**31 - 1, 1)]
    FIELDS += [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 4), (2, 7), (2, 10), (37, 2)]

    def _inputs(self, K, rng):
        """Random polynomials, products with repeated and equal-degree factors, and g(y^p)."""

        def rand_poly(deg):
            lead = K.rand(rng)
            while lead == K.zero:
                lead = K.rand(rng)
            return [K.rand(rng) for _ in range(deg)] + [lead]

        out = [rand_poly(rng.randint(1, 6)) for _ in range(3)]
        linears = [rand_poly(1) for _ in range(3)]
        out.append(_ext_product(K, [(g, 1) for g in linears] + [(rand_poly(2), 2)]))
        if K.char <= 7:
            g = rand_poly(2)
            spread = [K.zero] * (K.char * (len(g) - 1) + 1)
            spread[:: K.char] = g
            out.append(spread)
        return out

    @pytest.mark.parametrize("p,d", FIELDS)
    def test_matches_reference(self, p, d):
        base = _first_irreducible(p, d)
        K = fppoly._ExtField(base)
        rng = random.Random(f"fq:{p}:{d}")
        for f in self._inputs(K, rng):
            seed = rng.randrange(100)
            got = fppoly.fq_factor(f, seed=seed)
            want = fppoly._factor_list(K, list(f), random.Random(seed))
            assert got == tuple((tuple(g), m) for g, m in want)
            assert _ext_product(K, got) == fppoly._pmonic(K, f)
            assert all(g[-1] == K.one for g, _ in got)
            assert fppoly.fq_is_separable(f) == all(m == 1 for _, m in got)
            if d >= 2:
                # the Zech engine itself, also for fields fq_factor leaves to _ExtField
                Z = fppoly._ZechField(base)
                zech = fppoly._factor_list(Z, [Z.from_fq(c) for c in f], random.Random(seed))
                assert tuple((tuple(Z.to_fq(c) for c in g), m) for g, m in zech) == got

    @pytest.mark.parametrize(
        "p,d,backend",
        [
            (2**31 - 1, 1, "_PrimeField"),
            (2, 2, "_ZechField"),
            (3, 4, "_ZechField"),
            (2, 7, "_ExtField"),
            (2, 10, "_ExtField"),
            (37, 2, "_ExtField"),
        ],
    )
    def test_backend_by_order(self, p, d, backend):
        base = _first_irreducible(p, d)
        K, _, _ = fppoly._fq_backend([FqElement.one(base)])
        assert type(K).__name__ == backend

    def test_base_mismatch_rejected(self):
        one9, one4 = FqElement.one(P(3, 1, 0, 1)), FqElement.one(P(2, 1, 1, 1))
        with pytest.raises(ValueError, match="mismatch"):
            fppoly.fq_factor([one9, one4])

    @pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 4), (2, 10)])
    def test_zech_tables(self, p, d):
        base = _first_irreducible(p, d)
        K = fppoly._ZechField(base)
        q = p**d
        assert len(K.exp) == len(K.zech) == q - 1 and len(K.log) == q
        # exp and log are inverse bijections between logs 0..q-2 and nonzero residues
        assert sorted(K.exp) == list(range(1, q))
        assert K.log[0] == -1
        assert all(K.log[K.exp[k]] == k for k in range(q - 1))
        # exp walks the powers of one generator, checked with FqElement arithmetic
        g, power = K.to_fq(1), FqElement.one(base)
        one = FqElement.one(base)
        for k in range(q - 1):
            assert K.to_fq(k) == power
            assert K.from_fq(power) == k
            assert K.zech[k] == K.from_fq(one + power)  # zech[d] = log(1 + g^d)
            power = power * g
        assert power == one
