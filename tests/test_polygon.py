import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monocert import arith, fppoly, polygon, purefield
from monocert.polygon import (
    IntPoly,
    PhiExpansion,
    Side,
    phi_expand,
    polygon_index,
    principal_from_points,
    principal_polygon,
    residual_polynomial,
)
from oracles import (
    decode,
    discriminant,
    divide_in_place_by_loop,
    is_canonical,
    lower_convex_hull,
    polygon_index_by_columns,
    principal_vertices,
    residual_coefficients,
    resultant,
)

# coefficients about +-2^600, far past one machine word
_huge = st.builds(lambda sign, e: sign * (2**600 + e), st.sampled_from([1, -1]), st.integers(-1000, 1000))

QUARTIC = IntPoly.binomial(4, 17)
PHI1 = IntPoly([-1, 1])


class TestIntPoly:
    def test_construction_trims(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly.binomial(4, 17).coeffs == (-17, 0, 0, 0, 1)

    def test_non_integer_coefficients_rejected(self):
        # 1.5 is named, never truncated to 1
        with pytest.raises(ValueError, match="1.5 is not an integer"):
            IntPoly([1.5, 1])

    def test_divmod_requires_monic(self):
        with pytest.raises(ValueError, match="monic"):
            divmod(IntPoly([1, 1]), IntPoly([1, 2]))

    @given(
        fc=st.lists(st.one_of(st.integers(-20, 20), _huge), min_size=1, max_size=9),
        gc=st.lists(st.one_of(st.integers(-9, 9), _huge), min_size=1, max_size=5),
    )
    @example(fc=[5], gc=[3, 0])  # a dividend below a quadratic divisor is its own remainder
    @example(fc=[-7, 2], gc=[2**600, -(2**600)])
    @example(fc=[1, 0, 0, 0, 0, 0, 0, 1], gc=[1, 1])  # x^7 + 1 by x^2 + x + 1
    def test_divmod_identity(self, fc, gc):
        f = IntPoly(fc)
        g = IntPoly(gc + [1])
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree

    def test_valuation(self):
        assert IntPoly([12, 8, 2]).padic_valuation(2) == 1
        assert IntPoly([0, 8]).padic_valuation(2) == 3
        with pytest.raises(ValueError):
            IntPoly.zero().padic_valuation(2)
        with pytest.raises(ValueError, match="not prime"):
            IntPoly([4, 8]).padic_valuation(4)


class TestResultant:
    def test_discriminants(self):
        assert discriminant(IntPoly([-5, 0, 1])) == 20
        assert discriminant(IntPoly.binomial(3, 2)) == -108
        assert discriminant(IntPoly([2, 2, 1])) == -4

    def test_resultant_of_coprime_vs_shared_root(self):
        f = IntPoly([-1, 1]) * IntPoly([-2, 1])
        assert resultant(f, IntPoly([-1, 1])) == 0
        assert resultant(f, IntPoly([-3, 1])) == 2  # f(3) = 2

    def test_multiplicativity(self):
        rng = random.Random(9)
        for _ in range(30):
            f = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1])
            g = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1])
            h = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1])
            assert resultant(f * g, h) == resultant(f, h) * resultant(g, h)


class TestPhiExpand:
    def test_quartic_parts(self):
        exp = phi_expand(QUARTIC, PHI1)
        assert [list(a.coeffs) for a in exp.parts] == [[-16], [4], [6], [4], [1]]

    def test_base_x_gives_coefficients(self):
        F = IntPoly([3, -1, 0, 2, 1])
        exp = phi_expand(F, IntPoly.x())
        assert tuple(a.coeffs[0] if a.coeffs else 0 for a in exp.parts) == F.coeffs

    def test_rejects_nonmonic(self):
        with pytest.raises(ValueError):
            phi_expand(QUARTIC, IntPoly([1, 2]))

    @given(
        fc=st.lists(st.integers(-30, 30), min_size=2, max_size=10),
        gc=st.lists(st.integers(-10, 10), min_size=1, max_size=4),
    )
    def test_reconstruction(self, fc, gc):
        F = IntPoly(fc + [1])
        phi = IntPoly(gc + [1])
        exp = phi_expand(F, phi)
        assert decode(exp) == F
        assert all(a.degree < phi.degree for a in exp.parts)


def _naive_phi_expand(F, phi):
    """The development by repeated schoolbook division, every phi coefficient multiplied in."""
    d = phi.degree
    parts, rest = [], list(F.coeffs)
    while rest:
        quot = [0] * max(len(rest) - d, 0)
        for k in reversed(range(len(quot))):
            c = quot[k] = rest[k + d]
            for j, a in enumerate(phi.coeffs):
                rest[k + j] -= c * a
        parts.append(IntPoly(rest[:d]))
        rest = quot
    return tuple(parts)


_binomial_phis = st.builds(
    lambda d, c: IntPoly([-c] + [0] * (d - 1) + [1]),
    st.integers(1, 4),
    st.one_of(st.just(0), st.integers(-30, 30)),
)
_general_phis = st.builds(lambda cs: IntPoly(cs + [1]), st.lists(st.integers(-10, 10), min_size=1, max_size=4))
# a nonzero x coefficient: x^2 + a0 is binomial and never divided
_small_a1 = st.integers(-9, 9).filter(bool)
_binomial_fs = st.builds(IntPoly.binomial, st.integers(1, 200), st.integers(-50, 50))
_trinomial_fs = st.integers(2, 120).flatmap(
    lambda n: st.builds(
        lambda k, a, b: IntPoly([b] + [0] * (k - 1) + [a] + [0] * (n - k - 1) + [1]),
        st.integers(1, n - 1),
        st.integers(-20, 20),
        st.integers(-20, 20),
    )
)
_dense_fs = st.builds(lambda cs: IntPoly(cs + [1]), st.lists(st.integers(-30, 30), max_size=25))


# x^n + f0 over phi of degree d >= 3 takes `_euler_parts` when the division would compute more than 400 quotient
# coefficients; a full development counts (n // d + 1) (n - d (n // d) / 2) of them, 392 and 408 at n = 47 and 48
# for d = 3, 392 and 406 at n = 54 and 55 for d = 4, 390 and 403 at n = 60 and 61 for d = 5, 396 and 408 at
# n = 66 and 67 for d = 6
_EULER_PHIS = {
    3: IntPoly([5, 3, 2, 1]),
    4: IntPoly([4, 6, 2, 3, 1]),
    5: IntPoly([1, -1, 0, 0, 0, 1]),
    6: IntPoly([2, 0, -3, 0, 0, 1, 1]),
}
_EULER_EDGES = {3: (47, 48), 4: (54, 55), 5: (60, 61), 6: (66, 67)}
_euler_fs = st.builds(IntPoly.binomial, st.integers(1, 250), st.integers(-50, 50))
_euler_phis = st.builds(
    lambda cs: IntPoly(cs + [1]), st.lists(st.integers(-9, 9), min_size=3, max_size=6).filter(lambda cs: any(cs[1:]))
)


class TestPhiExpandOracle:
    """phi_expand against repeated division: the binomial path for x^d - c, the recurrence for x^n + f0 over a
    quadratic phi, the Euler recurrence for a long development of x^n + f0 over phi of degree >= 3, in-place
    division otherwise."""

    @given(F=st.one_of(_binomial_fs, _trinomial_fs, _dense_fs), phi=st.one_of(_binomial_phis, _general_phis))
    @example(F=IntPoly.binomial(6, 5), phi=IntPoly.binomial(2, 0))  # parts -5, 0, 0, 1 in powers of x^2
    @example(F=IntPoly.binomial(41, 44), phi=IntPoly([0, 3, 1]))  # a0 = 0: divided
    @example(F=IntPoly.binomial(41, 44), phi=IntPoly([4, 4, 1]))  # a1^2 - 4 a0 = 0: divided
    @example(F=IntPoly.binomial(101, 7), phi=IntPoly([-5, -3, 1]))  # negative a0 and a1, f0 = -7
    @example(F=IntPoly.binomial(64, 0), phi=IntPoly([2, -1, 1]))  # f0 = 0
    @example(F=IntPoly.binomial(1, -3), phi=IntPoly([2, 1, 1]))  # below phi: one part, x + 3
    # each degree 3..6 just below the recurrence's constant (divided) and just above it (the Euler recurrence)
    @example(F=IntPoly.binomial(47, 5), phi=_EULER_PHIS[3])
    @example(F=IntPoly.binomial(48, 5), phi=_EULER_PHIS[3])
    @example(F=IntPoly.binomial(54, -11), phi=_EULER_PHIS[4])
    @example(F=IntPoly.binomial(55, -11), phi=_EULER_PHIS[4])
    @example(F=IntPoly.binomial(60, 3), phi=_EULER_PHIS[5])
    @example(F=IntPoly.binomial(61, 3), phi=_EULER_PHIS[5])
    @example(F=IntPoly.binomial(66, -2), phi=_EULER_PHIS[6])
    @example(F=IntPoly.binomial(67, -2), phi=_EULER_PHIS[6])
    @example(F=IntPoly.binomial(120, 26), phi=_EULER_PHIS[4])  # f0 = -26
    @example(F=IntPoly.binomial(120, 0), phi=_EULER_PHIS[4])  # f0 = 0
    @example(F=IntPoly.binomial(100, 5), phi=IntPoly([0, 3, 2, 1]))  # phi(0) = 0: divided
    @example(F=IntPoly.binomial(100, 5), phi=IntPoly([1, 0, 2, 0, 1]))  # (x^2 + 1)^2, Res(phi, x phi') = 0: divided
    @example(F=IntPoly([-5, 3] + [0] * 98 + [1]), phi=_EULER_PHIS[4])  # x^100 + 3x - 5 is no x^n + f0: divided
    def test_matches_repeated_division(self, F, phi):
        exp = phi_expand(F, phi)
        assert exp.parts == _naive_phi_expand(F, phi)
        assert all(is_canonical(a) for a in exp.parts)
        assert len(exp.parts) == F.degree // phi.degree + 1
        assert decode(exp) == F

    @given(
        F=st.one_of(_binomial_fs, _trinomial_fs, _dense_fs),
        phi=st.one_of(_binomial_phis, _general_phis),
        data=st.data(),
    )
    def test_prefix_is_leading_parts(self, F, phi, data):
        full = phi_expand(F, phi).parts
        count = data.draw(st.integers(1, len(full) + 2), label="count")
        exp = phi_expand(F, phi, count=count)
        assert exp.parts == full[:count]
        assert all(is_canonical(a) for a in exp.parts)
        # F = sum parts[j] phi^j mod phi^len(parts)
        power = IntPoly.const(1)
        for _ in exp.parts:
            power = power * phi
        assert (F - decode(exp)) % power == IntPoly.zero()

    @given(
        F=st.one_of(_binomial_fs, _euler_fs),
        phi=st.one_of(st.builds(lambda a0, a1: IntPoly([a0, a1, 1]), st.integers(-30, 30), _small_a1), _euler_phis),
        count=st.integers(1, 102),
    )
    @settings(deadline=None)  # the schoolbook oracle takes about 0.1 s on x^750 - 44
    @example(F=IntPoly.binomial(750, 44), phi=IntPoly([4, 2, 1]), count=750 // 2 + 1)  # all 376 parts
    @example(F=IntPoly.binomial(750, 44), phi=IntPoly([4, 3, 1]), count=1)
    @example(F=IntPoly.binomial(750, 44), phi=IntPoly([4, 3, 1]), count=2)
    @example(F=IntPoly.binomial(750, 44), phi=IntPoly([4, 3, 1]), count=750 // 2 + 2)
    @example(F=IntPoly.binomial(151, -2), phi=IntPoly([-6, -5, 1]), count=2)
    @example(F=IntPoly.binomial(151, -2), phi=IntPoly([-6, -5, 1]), count=151 // 2 + 2)
    # x^245 - 26 over x^4 + 3x^3 + 2x^2 + 6x + 4: one part is divided, two and more take the Euler recurrence
    @example(F=IntPoly.binomial(245, 26), phi=IntPoly([4, 6, 2, 3, 1]), count=1)
    @example(F=IntPoly.binomial(245, 26), phi=IntPoly([4, 6, 2, 3, 1]), count=2)
    @example(F=IntPoly.binomial(245, 26), phi=IntPoly([4, 6, 2, 3, 1]), count=3)
    @example(F=IntPoly.binomial(245, 26), phi=IntPoly([4, 6, 2, 3, 1]), count=245 // 4 + 1)
    @example(F=IntPoly.binomial(245, 26), phi=IntPoly([4, 6, 2, 3, 1]), count=245 // 4 + 2)
    def test_binomial_prefix_matches_division(self, F, phi, count):
        exp = phi_expand(F, phi, count=count)
        assert exp.parts == _naive_phi_expand(F, phi)[:count]
        assert all(is_canonical(a) for a in exp.parts)

    @pytest.mark.parametrize("d", sorted(_EULER_EDGES))
    def test_euler_recurrence_only_above_its_constant(self, monkeypatch, d):
        calls = []
        euler_parts = polygon._euler_parts
        monkeypatch.setattr(polygon, "_euler_parts", lambda *a: calls.append(a) or euler_parts(*a))
        below, above = _EULER_EDGES[d]
        phi_expand(IntPoly.binomial(below, 7), _EULER_PHIS[d])
        assert calls == []
        phi_expand(IntPoly.binomial(above, 7), _EULER_PHIS[d])
        assert calls == [(above, _EULER_PHIS[d].coeffs, above // d + 1)]

    @given(
        n=st.integers(1, 200),
        phi=st.builds(lambda a0, a1: IntPoly([a0, a1, 1]), st.integers(-30, 30).filter(bool), _small_a1),
        f0=st.integers(-50, 50),
        count=st.integers(1, 102),
    )
    @example(n=750, phi=IntPoly([4, 3, 1]), f0=-44, count=376)
    def test_euler_step_at_degree_2_matches_quadratic_block(self, n, phi, f0, count):
        a0, a1 = phi.coeffs[0], phi.coeffs[1]
        assume(a1 * a1 != 4 * a0)
        count = min(count, n // 2 + 1)
        parts = polygon._euler_parts(n, phi.coeffs, count)
        parts[0][0] += f0
        assert tuple(IntPoly(a) for a in parts) == phi_expand(IntPoly.binomial(n, -f0), phi, count=count).parts

    @given(
        case=st.one_of(
            st.tuples(st.one_of(_binomial_fs, _trinomial_fs, _dense_fs), st.tuples(st.integers(-9, 9), _small_a1)),
            # 600-bit coefficients of phi make phi^j huge, so the decode oracle gets short F only
            st.tuples(
                st.one_of(_dense_fs, st.builds(IntPoly.binomial, st.integers(1, 40), st.integers(-50, 50))),
                st.tuples(st.one_of(st.integers(-9, 9), _huge), st.one_of(_small_a1, _huge)),
            ),
        )
    )
    @example(case=(IntPoly.binomial(150, 6), (1, 1)))  # x^2 + x + 1 divides x^150 - 6 mod 5
    def test_quadratic_phi_reconstruction(self, case):
        F, (a0, a1) = case
        phi = IntPoly([a0, a1, 1])
        exp = phi_expand(F, phi)
        assert decode(exp) == F
        assert len(exp.parts) == F.degree // 2 + 1

    @pytest.mark.parametrize("phi", [PHI1, IntPoly.binomial(2, 3), IntPoly([1, 1, 1])])
    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, phi, count):
        with pytest.raises(ValueError, match="count"):
            phi_expand(QUARTIC, phi, count=count)


class TestTrustedConstructor:
    """Every IntPoly built without the public constructor's checks is one it would build."""

    @pytest.mark.parametrize(
        "F,phi,want",
        [
            # the binomial branch, with zero parts and with trailing zeros trimmed from its rows
            (IntPoly.binomial(6, 5), IntPoly.binomial(2, 0), [[-5], [], [], [1]]),
            (IntPoly([1, 0, 0, 0, 1]), IntPoly.binomial(2, 2), [[5], [4], [1]]),
            (QUARTIC, PHI1, [[-16], [4], [6], [4], [1]]),
            # the division branch, with a zero middle part and a zero part 0
            (IntPoly([1, 1, 1]) * IntPoly([1, 1, 1]) + IntPoly.const(1), IntPoly([1, 1, 1]), [[1], [], [1]]),
            (IntPoly([1, 1, 1]) * IntPoly([1, 1, 1]) * IntPoly([6, 1, 1]), IntPoly([1, 1, 1]), [[], [], [5], [1]]),
        ],
    )
    @pytest.mark.parametrize("count", [None, 1, 2, 3, 9])
    def test_phi_expand_parts(self, F, phi, want, count):
        parts = phi_expand(F, phi, count=count).parts
        assert [list(a.coeffs) for a in parts] == want[:count]
        assert all(is_canonical(a) for a in parts)

    @given(
        case=st.one_of(
            st.tuples(st.one_of(_binomial_fs, _trinomial_fs, _dense_fs), _binomial_phis),
            st.tuples(_binomial_fs, st.builds(lambda a0, a1: IntPoly([a0, a1, 1]), st.integers(-30, 30), _small_a1)),
            st.tuples(_euler_fs, _euler_phis),
            st.tuples(st.one_of(_trinomial_fs, _dense_fs), _general_phis),
        ),
        count=st.none() | st.integers(1, 130),
    )
    # one example per route: x^d - c, the quadratic recurrence, `_euler_parts` (full and prefix), division
    @example(case=(IntPoly.binomial(750, 44), IntPoly([3, 1])), count=None)
    @example(case=(IntPoly.binomial(6, 5), IntPoly.binomial(2, 0)), count=None)
    @example(case=(IntPoly.binomial(750, 44), IntPoly([4, 3, 1])), count=None)
    @example(case=(IntPoly.binomial(245, 26), _EULER_PHIS[4]), count=None)
    @example(case=(IntPoly.binomial(245, 26), _EULER_PHIS[4]), count=2)
    @example(case=(IntPoly.binomial(100, 5), IntPoly([0, 3, 2, 1])), count=None)
    @example(case=(IntPoly([-5, 3] + [0] * 98 + [1]), _EULER_PHIS[4]), count=None)
    def test_phi_expand_routes_match_public_constructor(self, case, count):
        # phi_expand returns through the unchecked PhiExpansion._wrap; the checked constructor takes the same parts
        F, phi = case
        exp = phi_expand(F, phi, count=count)
        assert exp == PhiExpansion(phi, exp.parts)
        assert all(is_canonical(a) for a in exp.parts)

    @pytest.mark.parametrize("n, m", [(5, 0), (3, -7), (4, 2**200 + 1), (1, 9), (1, -(2**200))])
    def test_binomial(self, n, m):
        F = IntPoly.binomial(n, m)
        assert is_canonical(F)
        assert F == IntPoly([-m] + [0] * (n - 1) + [1])

    def test_binomial_rejects_a_non_integer_m(self):
        # only -m is checked, and it raises what the public constructor raises on it
        with pytest.raises(ValueError, match="-1.5 is not an integer"):
            IntPoly.binomial(3, 1.5)
        with pytest.raises(TypeError):
            IntPoly.binomial(3, "1")

    @given(p=st.sampled_from([2, 3, 7, 2**31 - 1]), cs=st.lists(st.integers(-(2**40), 2**40), max_size=6))
    def test_lift(self, p, cs):
        f = fppoly.FpPoly(p, cs)
        assert is_canonical(IntPoly.lift(f))
        assert IntPoly.lift(f) == IntPoly(f.coeffs)

    @given(
        a=st.lists(st.integers(-50, 50), max_size=6).map(IntPoly),
        b=st.lists(st.integers(-50, 50), max_size=6).map(IntPoly),
        c=st.integers(-9, 9),
    )
    def test_products_and_scalars(self, a, b, c):
        assert is_canonical(a * b)
        assert is_canonical(a.scale(c))
        assert a.scale(c) == IntPoly([c * x for x in a.coeffs])
        if c:
            assert a.scale(c).exact_div_scalar(c) == a
            assert is_canonical(a.scale(c).exact_div_scalar(c))


class TestPrincipalPolygon:
    def test_quartic_vertices(self):
        poly = principal_polygon(phi_expand(QUARTIC, PHI1), 2)
        assert poly.vertices == ((0, 4), (1, 2), (2, 1), (4, 0))
        assert [s.slope for s in poly.sides] == [Fraction(-2), Fraction(-1), Fraction(-1, 2)]
        assert [(s.side_degree, s.ram_index) for s in poly.sides] == [(1, 1), (1, 1), (1, 2)]

    def test_eisenstein_single_side(self):
        poly = principal_polygon(phi_expand(IntPoly.binomial(3, 2), IntPoly.x()), 2)
        assert poly.vertices == ((0, 1), (3, 0))
        (side,) = poly.sides
        assert (side.ram_index, side.side_degree) == (3, 1)

    def test_empty_when_unit_constant(self):
        poly = principal_polygon(phi_expand(IntPoly.binomial(3, 2), IntPoly.x()), 5)
        assert poly.is_empty
        assert poly.vertices == ()

    def test_reducible_base_rejected(self):
        with pytest.raises(ValueError, match="irreducible"):
            principal_polygon(phi_expand(QUARTIC, IntPoly([1, 0, 1])), 2)

    def test_exact_divisor_rejected(self):
        F = IntPoly([-1, 1]) * IntPoly([2, 1]) + IntPoly.zero()
        with pytest.raises(ValueError, match="divides"):
            principal_polygon(phi_expand(F, IntPoly([-1, 1])), 3)

    def test_hull_dominance_random(self):
        rng = random.Random(77)
        for _ in range(200):
            pts = sorted({(rng.randint(0, 12), rng.randint(0, 9)) for _ in range(rng.randint(2, 10))})
            poly = principal_from_points(pts)
            for side in poly.sides:
                (xs, ys), (xe, ye) = side.start, side.end
                for (x, y) in pts:
                    if xs <= x <= xe:
                        # exact rational comparison against the side line
                        assert Fraction(y) >= Fraction(ys) + Fraction(ye - ys, xe - xs) * (x - xs)

    def test_length_law_random(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 500:
            p = rng.choice([2, 3, 5, 7])
            deg = rng.randint(2, 9)
            F = IntPoly([rng.randint(-40, 40) for _ in range(deg)] + [1])
            fm = fppoly.factor(F.reduce_mod(p))
            if not fm.factors:
                continue
            phi_bar, mult = rng.choice(list(fm.factors))
            try:
                poly = principal_polygon(phi_expand(F, IntPoly.lift(phi_bar)), p)
            except ValueError:
                continue  # the lift divides F over Z
            assert poly.total_length == mult, (F, p, phi_bar)
            checked += 1


class TestPolygonIndex:
    def test_quartic_index(self):
        poly = principal_polygon(phi_expand(QUARTIC, PHI1), 2)
        assert polygon_index(poly, 1) == 3

    def test_coprime_triangle(self):
        for n, u in [(5, 2), (6, 5), (7, 3), (9, 4)]:
            poly = principal_from_points([(0, u), (n, 0)])
            assert polygon_index(poly, 1) == (n - 1) * (u - 1) // 2

    def test_eisenstein_zero(self):
        poly = principal_from_points([(0, 1), (8, 0)])
        assert polygon_index(poly, 1) == 0

    def test_degphi_scales(self):
        poly = principal_from_points([(0, 4), (1, 2), (2, 1), (4, 0)])
        assert polygon_index(poly, 2) == 6

    def test_empty_polygon(self):
        assert polygon_index(principal_from_points([(0, 0), (3, 0)]), 1) == 0

    @given(
        y0=st.integers(0, 40),
        cloud=st.lists(st.tuples(st.integers(1, 60), st.integers(0, 40)), max_size=11),
        degphi=st.integers(1, 4),
    )
    @example(y0=4, cloud=[(1, 2), (2, 1), (4, 0)], degphi=2)  # two interior vertices
    @example(y0=7, cloud=[(2, 5), (6, 1), (9, 0)], degphi=1)  # a vertex at y = 1, the last side over no lattice point
    def test_matches_column_count(self, y0, cloud, degphi):
        # a phi-polygon starts on the y-axis (parts[0] is nonzero); the rest of the cloud is arbitrary
        poly = principal_from_points([(0, y0)] + cloud)
        assert polygon_index(poly, degphi) == polygon_index_by_columns(poly, degphi)

    def test_off_axis_polygon_rejected(self):
        with pytest.raises(ValueError, match="y-axis"):
            polygon_index(principal_from_points([(1, 3), (4, 0)]), 1)


class TestResidualPolynomial:
    def test_quartic_residuals(self):
        exp = phi_expand(QUARTIC, PHI1)
        poly = principal_polygon(exp, 2)
        for side in poly.sides:
            res = residual_polynomial(exp, side, 2)
            assert len(res) - 1 == 1
            assert res == ((1,), (1,))  # y + 1 each time
            assert fppoly.fq_is_separable(exp.base.reduce_mod(2), res)

    def test_interior_point_above_gives_zero(self):
        # x^2 - 12 at 2: side (0,2)-(2,0), the middle column is absent
        exp = phi_expand(IntPoly.binomial(2, 12), IntPoly.x())
        poly = principal_polygon(exp, 2)
        (side,) = poly.sides
        res = residual_polynomial(exp, side, 2)
        assert len(res) - 1 == 2
        assert res[1] == ()
        assert not fppoly.fq_is_separable(exp.base.reduce_mod(2), res)  # y^2 + 1 is a square mod 2

    def test_endpoints_nonzero(self):
        rng = random.Random(5)
        checked = 0
        while checked < 100:
            p = rng.choice([2, 3, 5])
            F = IntPoly([rng.randint(-40, 40) for _ in range(rng.randint(2, 8))] + [1])
            fm = fppoly.factor(F.reduce_mod(p))
            if not fm.factors:
                continue
            phi_bar, _ = rng.choice(list(fm.factors))
            try:
                exp = phi_expand(F, IntPoly.lift(phi_bar))
                poly = principal_polygon(exp, p)
            except ValueError:
                continue
            for side in poly.sides:
                res = residual_polynomial(exp, side, p)
                assert res[0] != ()
                assert res[-1] != ()
                assert len(res) - 1 == side.side_degree
                checked += 1

    def test_coeffs_over_extension(self):
        # x^6 - 5 at 2 over phi = x^2 + x + 1: x*y^2 + (x + 1)*y + 1 over F_4, two linear factors
        F = IntPoly.binomial(6, 5)
        exp = phi_expand(F, IntPoly([1, 1, 1]))
        (side,) = principal_polygon(exp, 2).sides
        res = residual_polynomial(exp, side, 2)
        assert res == ((1,), (1, 1), (0, 1))
        assert [(len(g) - 1, mult) for g, mult in fppoly.fq_factor(exp.base.reduce_mod(2), res)] == [(1, 1), (1, 1)]

    def test_unreduced_development_rejected(self):
        # a constant part 2x^3 reaches past deg phi = 2, so it belongs to no development in powers of x^2 + x + 1
        with pytest.raises(ValueError, match="below deg base = 2"):
            PhiExpansion(IntPoly([1, 1, 1]), (IntPoly([0, 0, 0, 2]), IntPoly([1])))

    def test_mismatched_side_rejected(self):
        exp = phi_expand(QUARTIC, PHI1)
        with pytest.raises(ValueError):
            residual_polynomial(exp, Side((0, 5), (1, 2)), 2)

    def test_side_past_prefix_rejected(self):
        # parts 0..2 of x^4 - 17 in powers of x - 1; a side to (4, 0) reads part 4, never developed
        full = phi_expand(QUARTIC, PHI1)
        prefix = phi_expand(QUARTIC, PHI1, count=3)
        side = Side((2, 1), (4, 0))
        assert residual_polynomial(full, side, 2) == ((1,), (1,))
        with pytest.raises(ValueError, match="past"):
            residual_polynomial(prefix, side, 2)
        with pytest.raises(ValueError, match="past"):
            residual_polynomial(prefix, Side((0, 4), (3, 0)), 2)
        # the sides that end within the prefix read the same parts
        for side in principal_polygon(full, 2).sides[:2]:
            assert residual_polynomial(prefix, side, 2) == residual_polynomial(full, side, 2)

    def test_campaign_schedules_match_intpoly_route(self):
        # the (n, m) windows of the benchmark's campaign schedules, seeds 0 and 1, at every prime of n*m
        checked = 0
        for seed in (0, 1):
            rng = random.Random(f"campaign:{seed}")
            for n in (12, 27, 30):
                start = rng.randrange(2, 10_000 - 80)
                for m in range(start, start + 80):
                    if not purefield.binomial_irreducible(n, m):
                        continue
                    F = IntPoly.binomial(n, m)
                    for p in sorted(set(arith.factorize(n).prime_divisors) | set(arith.factorize(m).prime_divisors)):
                        for phi_bar, mult in fppoly.factor(F.reduce_mod(p)).factors:
                            exp = phi_expand(F, IntPoly.lift(phi_bar), count=mult + 1)
                            for side in principal_polygon(exp, p).sides:
                                res = residual_polynomial(exp, side, p)
                                assert res == residual_coefficients(exp, side, p), (n, m, p, phi_bar, side)
                                checked += 1
        assert checked > 3000


class TestLowerHull:
    def test_collinear_points_removed(self):
        assert lower_convex_hull([(0, 4), (1, 3), (2, 2), (4, 0)]) == ((0, 4), (4, 0))

    def test_duplicate_x_takes_lowest(self):
        assert lower_convex_hull([(0, 5), (0, 2), (3, 0)]) == ((0, 2), (3, 0))


# (p, phi) with phi irreducible mod p, for hand-made developments
_HAND_BASES = [(2, IntPoly([1, 1, 1])), (2, IntPoly([1, 1, 0, 1])), (3, IntPoly([1, 0, 1])), (5, IntPoly([3, 1]))]
# valuation of each part of a hand-made development, None for a zero part; part 0 is nonzero.  Small valuations
# tie often; the second kind puts the points (run * i, top - i) on one line, with filler parts between them
_part_valuations = st.one_of(
    st.builds(lambda v0, rest: [v0] + rest, st.integers(0, 5), st.lists(st.none() | st.integers(0, 5), max_size=15)),
    st.builds(
        lambda top, run, filler: [top - j // run if j % run == 0 else filler for j in range(top * run + 1)],
        st.integers(1, 5),
        st.integers(1, 3),
        st.none() | st.integers(0, 6),
    ),
)


class TestKernelOracles:
    """The polygon kernel's fast routes against the routes they replaced."""

    @given(
        cs=st.lists(st.integers(-(2**900), 2**900), min_size=1, max_size=6).filter(any),
        k=st.integers(0, 6),
        p=st.sampled_from([2, 3, 5, 7, 13]),
    )
    @example(cs=[-(3**560), 0, 2 * 3**570], k=0, p=3)  # 888-bit coefficients, the negative one of least valuation
    @example(cs=[0, 0, -7], k=2, p=7)
    def test_content_valuation_is_min_of_coefficient_valuations(self, cs, k, p):
        a = IntPoly([c * p**k for c in cs])
        assert polygon._content_valuation(a, p) == min(arith.padic_valuation(p, c) for c in a.coeffs if c)

    @given(
        rest=st.lists(st.one_of(st.just(0), st.integers(-9, 9), _huge), max_size=60),
        # a quadratic dv (two coefficients below the top) is drawn about half the time
        low=st.one_of(
            st.lists(st.one_of(st.just(0), st.integers(-9, 9), _huge), min_size=2, max_size=2),
            st.lists(st.one_of(st.just(0), st.integers(-9, 9), _huge), max_size=6),
        ),
    )
    @example(rest=[], low=[3, 4])
    @example(rest=[5, -6], low=[3, 4])  # no longer than deg dv: left as it is
    @example(rest=[0, 0, 0, 0, 1], low=[0, 0])  # x^4 by x^2
    @example(rest=[1, 2, 3, 4, 5, 6, 7], low=[-(2**600), 2**600 + 1])
    def test_divide_in_place_matches_loop(self, rest, low):
        dv = tuple(low) + (1,)
        got, want = list(rest), list(rest)
        polygon._divide_in_place(got, dv)
        divide_in_place_by_loop(want, dv)
        assert got == want

    @given(
        low=st.lists(st.one_of(st.integers(-9, 9), _huge), min_size=1, max_size=4),
        base=st.lists(st.integers(-9, 9), max_size=4),
        e=st.integers(0, 40),
    )
    @example(low=[3], base=[-2], e=343)  # a linear modulus: one integer power
    @example(low=[3], base=[], e=0)
    @example(low=[5], base=[], e=3)  # a zero base
    @example(low=[2, 0, 1], base=[0, 1], e=12)
    def test_powmod_matches_repeated_products(self, low, base, e):
        dv = IntPoly(low + [1])
        b = IntPoly(base) % dv
        want = IntPoly.const(1)
        for _ in range(e):
            want = want * b % dv
        assert polygon._powmod(list(b.coeffs), e, dv.coeffs) == list(want.coeffs)

    @given(
        column=st.dictionaries(st.integers(0, 40), st.integers(0, 30), max_size=14),
        above=st.lists(st.tuples(st.integers(0, 13), st.integers(1, 3)), max_size=6),
        order=st.randoms(use_true_random=False),
    )
    # the running minimum's cases: ties with it, collinear points, gaps (zero parts), rising points after it,
    # y = 0 first or late, and one or no point
    @example(column={0: 3, 1: 3, 2: 1, 3: 1, 4: 0}, above=[(1, 1)], order=random.Random(0))
    @example(column={0: 6, 1: 4, 2: 2, 3: 0}, above=[(2, 1)], order=random.Random(1))
    @example(column={0: 4, 3: 2, 9: 0}, above=[], order=random.Random(2))
    @example(column={0: 5, 2: 1, 3: 2, 5: 4, 8: 3}, above=[(4, 2)], order=random.Random(3))
    @example(column={0: 0, 2: 1, 4: 0}, above=[], order=random.Random(4))
    @example(column={0: 5, 1: 7, 6: 2, 9: 0, 12: 0, 13: 3}, above=[(0, 1)], order=random.Random(5))
    @example(column={0: 2}, above=[(0, 1)], order=random.Random(6))
    @example(column={}, above=[], order=random.Random(7))
    def test_chain_matches_lower_hull(self, column, above, order):
        cloud = sorted(column.items())
        poly = polygon._principal_chain(cloud)
        assert poly.vertices == principal_vertices(cloud)
        # each unchecked side is one the checked constructor accepts
        assert poly.sides == tuple(Side(a, b) for a, b in zip(poly.vertices, poly.vertices[1:]))
        # an unsorted cloud with points above each column's lowest gives the same polygon, as lists too
        noisy = [(cloud[i % len(cloud)][0], cloud[i % len(cloud)][1] + dy) for i, dy in above] if cloud else []
        noisy += cloud
        order.shuffle(noisy)
        assert principal_from_points(noisy) == poly
        assert principal_from_points([list(pt) for pt in noisy]) == poly

    def test_polygon_matches_hull_of_full_cloud(self):
        # the cloud stops at the first part of valuation 0; the hull of every part gives the same polygon
        rng = random.Random(2718)
        checked = 0
        while checked < 300:
            p = rng.choice([2, 3, 5, 7])
            F = IntPoly([rng.randint(-60, 60) * p ** rng.randint(0, 3) for _ in range(rng.randint(2, 14))] + [1])
            phi_bar = rng.choice([f for f, _ in fppoly.factor(F.reduce_mod(p)).factors])
            exp = phi_expand(F, IntPoly.lift(phi_bar))
            if exp.parts[0].is_zero:
                continue
            cloud = [
                (j, min(arith.padic_valuation(p, c) for c in a.coeffs if c)) for j, a in enumerate(exp.parts) if a.coeffs
            ]
            assert principal_polygon(exp, p).vertices == principal_vertices(cloud), (F, p, phi_bar)
            checked += 1

    @given(
        base=st.sampled_from(_HAND_BASES), valuations=_part_valuations, units=st.lists(st.integers(-30, 30), min_size=1)
    )
    # ties with the running minimum, collinear points, zero parts, rising points after it, valuation 0 first or late
    @example(base=_HAND_BASES[3], valuations=[3, 3, 1, 1, 0], units=[0, 1])
    @example(base=_HAND_BASES[0], valuations=[6, 4, 2, None, None, 0], units=[2, -3])
    @example(base=_HAND_BASES[2], valuations=[4, None, None, 2, None, None, 0], units=[-1, 5])
    @example(base=_HAND_BASES[1], valuations=[5, 2, 3, 4, None, 1, 6, 1, 2], units=[7, 0, 1])
    @example(base=_HAND_BASES[3], valuations=[0, 2, 0, 1], units=[4])
    @example(base=_HAND_BASES[2], valuations=[5, 7, 2, 2, 3, 6, 1, None, 0, 0, 3], units=[-30, 30])
    @example(base=_HAND_BASES[0], valuations=[2], units=[1, 1])
    def test_polygon_matches_hull_of_hand_made_cloud(self, base, valuations, units):
        # part j has valuation valuations[j] (None: a zero part) at a coefficient drawn from units; the running
        # minimum skips parts unvalued, and the polygon is that of the full cloud
        p, phi = base
        d = phi.degree
        parts = []
        for j, v in enumerate(valuations):
            cs = [0] * d
            if v is not None:
                u = units[j % len(units)]
                cs = [p ** (v + 1) * units[(j + i) % len(units)] for i in range(d)]
                cs[abs(u) % d] = p**v * (p * u + 1 + abs(u) % (p - 1))
            parts.append(IntPoly(cs))
        poly = principal_polygon(PhiExpansion(phi, tuple(parts)), p)
        cloud = [(j, v) for j, v in enumerate(valuations) if v is not None]
        assert poly.vertices == principal_vertices(cloud)
        assert poly.sides == tuple(Side(a, b) for a, b in zip(poly.vertices, poly.vertices[1:]))

    @given(
        dev=st.sampled_from(_HAND_BASES).flatmap(
            lambda base: st.tuples(
                st.just(base),
                st.lists(
                    st.tuples(st.lists(st.integers(-40, 40), max_size=base[1].degree), st.integers(0, 4)),
                    min_size=2,
                    max_size=6,
                ),
            )
        )
    )
    @example(dev=(_HAND_BASES[0], [([0, 0, 0, 1], 1), ([1], 0)]))  # 2x^3 reaches past deg phi = 2
    def test_residuals_match_fppoly_route(self, dev):
        # hand-made parts below deg phi; a longer one is no part of a development and is rejected
        (p, phi), parts = dev
        parts = tuple(IntPoly([c * p**k for c in cs]) for cs, k in parts)
        if any(a.degree >= phi.degree for a in parts):
            with pytest.raises(ValueError, match="below deg base"):
                PhiExpansion(phi, parts)
            return
        exp = PhiExpansion(phi, parts)
        assume(not exp.parts[0].is_zero)
        for side in principal_polygon(exp, p).sides:
            want = residual_coefficients(exp, side, p)
            if want[0] and want[-1]:
                assert residual_polynomial(exp, side, p) == want
            else:
                with pytest.raises(ValueError, match="endpoints"):
                    residual_polynomial(exp, side, p)

    def test_residual_route_examples(self):
        # the one coefficient route (p^t divides the gcd, then c // p^t % p) against the IntPoly route
        big = 2**600
        cases = [
            (2, IntPoly([1, 1, 1]), [[4], [], [1]]),  # a zero interior part
            (2, IntPoly([1, 1, 1]), [[4, 4], [8], [1, 1]]),  # an interior part strictly above the side
            (3, IntPoly([1, 0, 1]), [[-81 * big, 27], [9 * (big + 1), -18], [-3 * big], [1]]),  # negative, +-2^600
            (5, IntPoly([3, 1]), [[-125 * (big + 1)], [25 * big], [-5], [-1 - big]]),
        ]
        for p, phi, parts in cases:
            exp = PhiExpansion(phi, tuple(IntPoly(cs) for cs in parts))
            sides = principal_polygon(exp, p).sides
            assert sides
            for side in sides:
                assert residual_polynomial(exp, side, p) == residual_coefficients(exp, side, p), (p, parts, side)
        assert residual_polynomial(exp, sides[0], p) == ((3,), (1,), (4,), (3,))  # 2^600 = 1 mod 5
        exp = PhiExpansion(IntPoly([1, 1, 1]), (IntPoly([16]), IntPoly([2]), IntPoly([1])))
        # a part below the side
        with pytest.raises(ValueError, match="does not bound"):
            residual_polynomial(exp, Side((0, 4), (2, 0)), 2)
        # a composite p, rejected by both routes
        for route in (residual_polynomial, residual_coefficients):
            with pytest.raises(ValueError, match="modulus 4 is not prime"):
                route(exp, Side((0, 4), (2, 0)), 4)
        # a side that ends below the x-axis, where no part's valuation lies
        below = PhiExpansion(IntPoly([1, 0, 1]), (IntPoly([3]), IntPoly([1]), IntPoly([1])))
        with pytest.raises(ValueError, match="endpoints"):
            residual_polynomial(below, Side((0, 1), (2, -1)), 3)
