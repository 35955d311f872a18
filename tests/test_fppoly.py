import random
from itertools import zip_longest

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monocert import arith, fppoly
from monocert.fppoly import FpPoly, _padd, _pderiv, _pgcd, _pmod, _pmonic, _ppow_mod, _PrimeField, _pscale, _psub
from oracles import fq_add, fq_poly_mul, is_irreducible_by_trial_division, is_irreducible_over_fq_by_trial_division


def P(p, *coeffs):
    return FpPoly(p, coeffs)


def L(p, coeffs):
    """coeffs reduced mod p and trimmed: an element of the list engine over _PrimeField(p)."""
    return list(FpPoly(p, coeffs).coeffs)


def _naive_mul(f, g):
    out = [0] * (len(f) + len(g))
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _product(fm, p):
    """unit * the product of the factors with multiplicity, on the F_p kernel."""
    K = _PrimeField(p)
    out = L(p, [fm.unit])
    for f, e in fm.factors:
        for _ in range(e):
            out = K.pmul(out, f.coeffs)
    return FpPoly(p, out)


def _is_separable(f):
    K = _PrimeField(f.p)
    return len(_pgcd(K, f.coeffs, _pderiv(K, f.coeffs))) == 1


class TestRingOps:
    def test_gcd_over_f2(self):
        # x^4 + 1 = (x^2 + 1)^2 over F_2
        assert _pgcd(_PrimeField(2), [1, 0, 0, 0, 1], [1, 0, 1]) == [1, 0, 1]

    def test_divide_by_one(self):
        f = P(5, 3, 1, 4)
        q, r = divmod(f, P(5, 1))
        assert (q, r) == (f, FpPoly.zero(5))

    def test_pow_mod(self):
        # x has order 3 modulo x^2 + x + 1 over F_2
        assert _ppow_mod(_PrimeField(2), [0, 1], 7, [1, 1, 1]) == [0, 1]

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            P(2, 1, 1) % P(3, 1, 1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P(3, 1, 1), FpPoly.zero(3))

    def test_modulus_validation(self):
        for composite in (6, 2**31 + 1):  # 2^31 + 1 = 3 * 715827883
            with pytest.raises(ValueError, match="not prime"):
                FpPoly(composite, [1])
        assert FpPoly(2**31 + 11, [1, 2**31 + 12]).coeffs == (1, 1)  # no ceiling on prime moduli

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
        K = _PrimeField(p)
        assert _padd(K, K.pmul(q.coeffs, g.coeffs), r.coeffs) == list(f.coeffs)
        assert r.degree < g.degree

    @given(
        p=st.sampled_from([2, 3, 5, 7]),
        fc=st.lists(st.integers(-20, 20), max_size=8),
        gc=st.lists(st.integers(-20, 20), max_size=6),
        mc=st.lists(st.integers(-20, 20), min_size=1, max_size=5),
        k=st.integers(-30, 30),
        e=st.integers(0, 6),
    )
    def test_engine_matches_naive_loops(self, p, fc, gc, mc, k, e):
        K = _PrimeField(p)
        f, g = L(p, fc), L(p, gc)
        pairs = list(zip_longest(fc, gc, fillvalue=0))
        assert _padd(K, f, g) == L(p, [a + b for a, b in pairs])
        assert _psub(K, f, g) == L(p, [a - b for a, b in pairs])
        assert _psub(K, [], f) == L(p, [-a for a in fc])
        assert _pscale(K, f, k) == L(p, [k * a for a in fc])
        assert _pscale(K, f, k * p) == []
        assert _pderiv(K, f) == L(p, [i * a for i, a in enumerate(fc)][1:])
        assert _pderiv(K, L(p, [0] * p + [1])) == []  # d/dx x^p = p x^(p-1) = 0
        monic = _pmonic(K, f)
        if not f:
            assert monic == []
        else:
            assert monic == L(p, [a * pow(f[-1], -1, p) for a in f])
            assert _pmonic(K, monic) == monic
        assert _pgcd(K, f, []) == _pgcd(K, [], f) == monic
        h = _pgcd(K, f, g)
        if h:
            assert h[-1] == 1 and _pmod(K, f, h) == [] and _pmod(K, g, h) == []
        for m in (L(p, mc), L(p, [k % p or 1])):  # the second has degree 0
            if not m:
                continue
            want = _pmod(K, [1], m)
            for _ in range(e):
                want = _pmod(K, L(p, _naive_mul(want, f)), m)
            assert _ppow_mod(K, f, e, m) == want


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
            fm = fppoly.factor(f)
            assert _product(fm, p) == f, f
            for g, _ in fm.factors:
                assert g == FpPoly(p, g.coeffs) and g.is_monic, g
                assert fppoly.is_irreducible(g), g
                # the oracle's cost is p^(deg g // 2) divisions; above 11^3 it would dominate the suite
                if p ** (g.degree // 2) <= 11**3:
                    assert is_irreducible_by_trial_division(g), g

    @given(
        p=st.sampled_from([2, 3, 5, 7]),
        cs=st.lists(st.integers(-20, 20), max_size=7),
    )
    def test_is_irreducible_matches_trial_division(self, p, cs):
        # non-monic, constant and zero f included; the last two are not irreducible
        f = FpPoly(p, cs)
        assert fppoly.is_irreducible(f) == is_irreducible_by_trial_division(f)

    def test_determinism(self):
        f = FpPoly(7, [3, 1, 4, 1, 5, 0, 2, 1])
        first = fppoly.factor(f)
        fppoly.factor.cache_clear()
        assert fppoly.factor(f) == first


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
                    fm = fppoly.factor(FpPoly(p, [-m] + [0] * (u - 1) + [1]))
                    for d in range(1, u + 1):
                        assert fppoly.count_degree_d_factors(p, d, u, m) == sum(g.degree == d for g, _ in fm.factors), (p, d, u, m)

    def test_prime_above_2_31(self):
        # p - 1 = 2 * 3^2 * 5 * 131 * 364289, so x^u - m splits in several ways; m = p reduces to x^u
        p = 4294967311
        for u in range(1, 13):
            for m in (1, -1, 2, 3, 7, p):
                fm = fppoly.factor(FpPoly(p, [-m] + [0] * (u - 1) + [1]))
                for d in range(1, u + 1):
                    assert fppoly.count_degree_d_factors(p, d, u, m) == sum(g.degree == d for g, _ in fm.factors), (d, u, m)

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
        assert _is_separable(P(2, 1, 1, 1))
        assert not _is_separable(P(3, 1, 2, 1))  # (x+1)^2
        assert _is_separable(P(5, 2, 1))  # any degree-1 polynomial

    def test_frobenius_composite(self):
        assert not _is_separable(P(3, 1, 0, 0, 1))  # x^3 + 1 = (x+1)^3

    @pytest.mark.parametrize("p,d", [(7, 1), (2**31 - 1, 1), (2, 2), (3, 2), (3, 4), (2, 7), (37, 2)])
    def test_fq_is_separable_matches_gcd_oracle(self, p, d):
        # prime fields and _ExtField fields, on inputs that include g(y^p) and squares
        base = _first_irreducible(p, d)
        K = fppoly._fq_backend(base)
        rng = random.Random(f"sep:{p}:{d}")
        seen = set()
        for _ in range(4):
            for f in _fq_test_inputs(fppoly._ExtField(base), rng):
                g = [K.from_residue(c) for c in f]
                want = len(_pgcd(K, g, _pderiv(K, g))) == 1
                assert fppoly.fq_is_separable(base, f) == want, f
                seen.add(want)
        assert seen == {True, False}


class TestExtensionField:
    """_ExtField arithmetic on residue tuples, and fq_factor/fq_is_separable on small fields."""

    def _base(self):
        return P(3, 1, 0, 1)  # x^2 + 1, irreducible mod 3

    def test_inverse(self):
        K = fppoly._ExtField(self._base())
        a = (0, 1)
        assert K.mul(a, K.inv(a)) == K.one
        with pytest.raises(ZeroDivisionError):
            K.inv(K.zero)

    @pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (3, 4), (2, 7), (3, 6), (2, 10), (37, 2)])
    def test_inverse_by_field_size(self, p, d):
        # q = 4, 9, 81, 128, 729, 1024 and 1369
        base = _first_irreducible(p, d)
        K, q = fppoly._ExtField(base), p**d
        rng = random.Random(f"inverse:{p}:{d}")
        for _ in range(20):
            a = K.rand(rng)
            if a == K.zero:
                continue
            assert K.mul(a, K.inv(a)) == K.one
            assert list(K.inv(a)) == _ppow_mod(_PrimeField(p), a, q - 2, base.coeffs)  # a ** (q - 2)

    def test_inverse_reducible_base(self):
        K = fppoly._ExtField(P(5, 1, 0, 1))  # x^2 + 1 = (x + 2)(x + 3) mod 5
        with pytest.raises(ValueError, match="not irreducible"):
            K.inv((2, 1))
        unit = (1, 1)  # coprime to the base, so still invertible
        assert K.mul(unit, K.inv(unit)) == K.one

    @pytest.mark.parametrize("p,d", [(2, 3), (3, 2), (37, 2)])
    def test_pdivmod_identity(self, p, d):
        # monic and non-monic divisors; the product is taken by the oracle's arithmetic, not the engine
        base = _first_irreducible(p, d)
        K = fppoly._ExtField(base)
        rng = random.Random(f"pdivmod:{p}:{d}")
        for _ in range(30):
            f = fppoly._trimmed([K.rand(rng) for _ in range(rng.randint(0, 7))])
            g = fppoly._trimmed([K.rand(rng) for _ in range(rng.randint(1, 4))] + [rng.choice([K.one, K.rand(rng)])])
            if not g:
                continue
            quot, rem = K.pdivmod(f, g)
            assert len(rem) < len(g)
            prod = fq_poly_mul(base, quot, g)
            assert fppoly._trimmed([fq_add(base, a, b) for a, b in zip_longest(prod, rem, fillvalue=())]) == f

    def test_pow(self):
        base = self._base()
        # the multiplicative group has order 8
        assert _ppow_mod(_PrimeField(3), (1, 1), 8, base.coeffs) == [1]

    def test_fq_factor_splits_linear(self):
        # y^2 + 1 = (y - x)(y + x) over F_9 with x^2 = -1
        base = self._base()
        K = fppoly._ExtField(base)
        factors = fppoly.fq_factor(base, [(1,), (), (1,)])
        assert len(factors) == 2
        assert all(mult == 1 and len(g) == 2 for g, mult in factors)
        roots = {K.mul(K.neg(g[0]), K.inv(g[1])) for g, _ in factors}
        assert roots == {(0, 1), (0, 2)}  # x and -x

    def test_fq_separability(self):
        base = self._base()
        one, two = (1,), (2,)
        assert fppoly.fq_is_separable(base, [one, one])
        # (y+1)^3 = y^3 + 3y^2 + 3y + 1 = y^3 + 1 in characteristic 3
        assert not fppoly.fq_is_separable(base, [one, (), (), one])
        assert fppoly.fq_is_separable(base, [two, one, one])

    def test_fq_factor_char2_extension(self):
        # F_4 = F_2[x]/(x^2+x+1); y^2 + y + x is separable, factor it
        base = P(2, 1, 1, 1)
        K = fppoly._ExtField(base)
        x, one = (0, 1), (1,)
        f = [x, one, one]
        assert fppoly.fq_is_separable(base, f)
        factors = fppoly.fq_factor(base, f)
        total = sum(len(g) - 1 for g, mult in factors for _ in range(mult))
        assert total == 2
        # reconstruct the product
        prod = [one]
        for g, mult in factors:
            for _ in range(mult):
                new = [K.zero] * (len(prod) + len(g) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(g):
                        new[i + j] = K.add(new[i + j], K.mul(a, b))
                prod = new
        assert prod == f


def _first_irreducible(p, d):
    """The monic irreducible of degree d over F_p whose low coefficients, read in base p, are smallest."""
    for idx in range(p**d):
        low = []
        for _ in range(d):
            idx, c = divmod(idx, p)
            low.append(c)
        f = FpPoly(p, low + [1])
        if fppoly.is_irreducible(f):
            return f


def _ext_product(K, factors):
    prod = [K.one]
    for g, mult in factors:
        for _ in range(mult):
            prod = K.pmul(prod, list(g))
    return prod


def _fq_test_inputs(K, rng):
    """Random polynomials over K, products with repeated and equal-degree factors, and g(y^p)."""

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


class TestFlatBackends:
    """fq_factor against trial division over F_q, and on prime fields against the _ExtField engine."""

    # (p, deg phi): q = p, then q = 4 .. 81, 2**7, 2**10 and 37**2
    FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2**31 - 1, 1)]
    FIELDS += [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 4), (2, 7), (2, 10), (37, 2)]

    @pytest.mark.parametrize("p,d", FIELDS)
    def test_matches_reference(self, p, d):
        base = _first_irreducible(p, d)
        K = fppoly._ExtField(base)
        rng = random.Random(f"fq:{p}:{d}")
        for f in _fq_test_inputs(K, rng):
            got = fppoly.fq_factor(base, f)
            if d == 1:
                # _PrimeField ran; _ExtField over the linear base is a second engine
                want = fppoly._factor_list(K, list(f), random.Random(0))
                assert got == tuple((tuple(g), m) for g, m in want)
            # the oracle's residue arithmetic is FpPoly division mod base, not the engine
            prod = [f[-1]]
            for g, m in got:
                assert g[-1] == K.one
                for _ in range(m):
                    prod = fq_poly_mul(base, prod, list(g))
                # trial division costs q^(deg g // 2) divisions; above 625 it would dominate the suite
                if (p**d) ** ((len(g) - 1) // 2) <= 625:
                    assert is_irreducible_over_fq_by_trial_division(base, list(g)), g
            assert prod == list(f)

    @pytest.mark.parametrize(
        "p,d,backend",
        [(7, 1, fppoly._PrimeField), (3, 2, fppoly._ExtField), (2, 7, fppoly._ExtField), (37, 2, fppoly._ExtField)],
    )
    def test_factor_list_independent_of_stream(self, p, d, backend):
        # the random stream picks the splitting path of equal-degree factoring, never the sorted answer
        base = _first_irreducible(p, d)
        K = backend(p) if d == 1 else backend(base)
        rng = random.Random(f"stream:{p}:{d}")
        inputs = _fq_test_inputs(K, rng)
        inputs += [_ext_product(K, [(g, 1) for g in inputs[:3]] + [(inputs[3], 2)])]
        for f in inputs:
            first = fppoly._factor_list(K, list(f), random.Random(0))
            assert _ext_product(K, first) == fppoly._pmonic(K, f)
            for s in range(1, 6):
                assert fppoly._factor_list(K, list(f), random.Random(s)) == first, (p, d, s)

    @pytest.mark.parametrize(
        "p,d,backend",
        [
            (2**31 - 1, 1, "_PrimeField"),
            (2, 2, "_ExtField"),
            (3, 4, "_ExtField"),
            (2, 7, "_ExtField"),
            (2, 10, "_ExtField"),
            (37, 2, "_ExtField"),
        ],
    )
    def test_backend_by_order(self, p, d, backend):
        # the backend follows deg phi alone: _PrimeField for a linear base, _ExtField for any q above
        base = _first_irreducible(p, d)
        assert type(fppoly._fq_backend(base)).__name__ == backend

    @pytest.mark.parametrize(
        "base,coeffs,match",
        [
            (P(3, 1, 0, 1), [(1,), (0, 0, 1)], "not a reduced residue"),  # degree 2 >= deg base
            (P(3, 1, 0, 1), [(1,), (3,)], "not a reduced residue"),  # entry >= p
            (P(3, 1, 0, 2), [(1,), (1,)], "monic"),
            (P(3, 1, 0, 1), [(), ()], "zero"),
            (P(3, 1, 0, 1), [[1], (1,)], "not a reduced residue"),  # a list is not a residue, and not hashed
        ],
    )
    def test_malformed_input_rejected(self, base, coeffs, match):
        for _ in range(2):  # the second time with a valid result over the same base cached
            with pytest.raises(ValueError, match=match):
                fppoly.fq_factor(base, coeffs)
            with pytest.raises(ValueError, match=match):
                fppoly.fq_is_separable(base, coeffs)
            if base.is_monic:
                fppoly.fq_factor(base, [(1,), (1,)])
                fppoly.fq_is_separable(base, [(1,), (1,)])


_CACHED = (fppoly.factor, fppoly.fq_factor)


@st.composite
def _fq_inputs(draw):
    """(base, residue coefficients) over F_p[x]/(base) for q from 2 to 2**7."""
    p, d = draw(st.sampled_from([(2, 1), (5, 1), (2, 2), (3, 2), (2, 3), (3, 3), (2, 7)]))
    base = _first_irreducible(p, d)
    residue = st.lists(st.integers(0, p - 1), max_size=d).map(lambda cs: FpPoly(p, cs).coeffs)
    coeffs = draw(st.lists(residue, min_size=1, max_size=6).filter(any))
    return base, coeffs


class TestCaches:
    """The two cached functions against their uncached bodies."""

    def _check(self, fn, args, same_key):
        fn.cache_clear()
        want = fn.__wrapped__(*args)
        first = fn(*args)
        before = fn.cache_info()
        again = fn(*same_key)
        assert first == want and again is first
        assert fn.cache_info().hits == before.hits + 1

    @given(
        p=st.sampled_from([2, 3, 5, 7, 2**31 - 1]),
        cs=st.lists(st.integers(-50, 50), max_size=8),
    )
    def test_fp_results_match_uncached(self, p, cs):
        f = FpPoly(p, cs)
        if not f.is_zero:
            self._check(fppoly.factor, (f,), (FpPoly(p, list(f.coeffs)),))

    @given(_fq_inputs())
    def test_fq_results_match_uncached(self, case):
        base, coeffs = case
        equal_base = FpPoly(base.p, list(base.coeffs))
        self._check(fppoly.fq_factor, (base, tuple(coeffs)), (equal_base, list(coeffs)))

    def test_hit_skips_validation(self, monkeypatch):
        base, coeffs = P(3, 1, 0, 1), ((1,), (0, 1), (1,))
        fppoly.fq_factor.cache_clear()
        first = fppoly.fq_factor(base, coeffs)

        def fail(*args):
            raise AssertionError("a stored input validated again")

        monkeypatch.setattr(fppoly, "_check_residues", fail)
        assert fppoly.fq_factor(base, list(coeffs)) is first
        assert fppoly.fq_is_separable(base, coeffs)
        with pytest.raises(AssertionError):
            fppoly.fq_factor(base, ((1,), (1,)))  # a miss validates

    def test_keyword_and_positional_share_an_entry(self):
        f = P(5, 1, 0, 0, 1)
        fppoly.factor.cache_clear()
        assert fppoly.factor(f) is fppoly.factor(f=f)
        assert fppoly.factor.cache_info().currsize == 1

    def test_size_stays_bounded(self):
        assert all(fn.cache_info().maxsize == fppoly._CACHE_SIZE for fn in _CACHED)
        fppoly.factor.cache_clear()
        p = 2**31 - 1
        for c in range(fppoly._CACHE_SIZE + 100):
            assert fppoly.is_irreducible(FpPoly(p, [c, 1]))
        info = fppoly.factor.cache_info()
        assert info.misses == fppoly._CACHE_SIZE + 100
        assert info.currsize == fppoly._CACHE_SIZE
