import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocert import arith, cns
from monocert.cns import CnsBasis, decode, encode, kovacs_hypothesis, verify_box
from monocert.polygon import IntPoly
from oracles import cns_decode_by_horner, cns_encode_by_steps

TWIN = IntPoly([2, 2, 1])  # x^2 + 2x + 2, a classical base
SQRT2 = IntPoly([-2, 0, 1])  # x^2 - 2, not canonical


class TestCnsBasis:
    def test_digit_sets(self):
        b = CnsBasis(TWIN)
        assert b.digit_base == 2 and list(b.digit_set()) == [0, 1]
        s = CnsBasis(TWIN, "signed")
        assert list(s.digit_set()) == [-1, 0, 1]

    def test_balanced_selection(self):
        # residues above b // 2 become negative digits; a tie 2r = b stays positive
        s = CnsBasis(IntPoly([5, 1, 1, 1]), "signed")
        assert [encode(s, (z, 0, 0), 1).digits[0] for z in range(-3, 4)] == [2, -2, -1, 0, 1, 2, -2]

    def test_rejects_bad_polynomials(self):
        with pytest.raises(ValueError, match="monic"):
            CnsBasis(IntPoly([2, 2]))
        with pytest.raises(ValueError, match="digit base"):
            CnsBasis(IntPoly([1, 3, 1]))
        with pytest.raises(ValueError, match="root"):
            CnsBasis(IntPoly([-4, 0, 1]))  # x^2 - 4 = (x-2)(x+2)
        with pytest.raises(ValueError, match="reducible"):
            CnsBasis(IntPoly.binomial(4, 4))  # (x^2-2)(x^2+2), no rational root
        with pytest.raises(ValueError, match="digit_mode"):
            CnsBasis(TWIN, "balanced")

    def test_constant_rho_cannot_split_is_rejected(self, monkeypatch):
        c0 = 1000003 * 1000033
        monkeypatch.setattr(arith, "_RHO_BUDGET", 64)
        with pytest.raises(ValueError, match=f"divisors of {c0} unknown: rho did not split the cofactor {c0}"):
            CnsBasis(IntPoly([c0, 1, 1]))


class TestEncodeDecode:
    def test_zero(self):
        exp = encode(CnsBasis(TWIN), (0, 0))
        assert exp.digits == (0,) and exp.terminated

    def test_minus_one(self):
        exp = encode(CnsBasis(TWIN), (-1, 0))
        assert exp.digits == (1, 0, 1, 1, 1)
        assert exp.terminated
        assert decode(CnsBasis(TWIN), exp.digits) == (-1, 0)

    def test_decode_examples(self):
        basis = CnsBasis(TWIN)
        assert decode(basis, [0]) == (0, 0)
        assert decode(basis, [1, 0, 1, 1, 1]) == (-1, 0)

    def test_digit_validation(self):
        with pytest.raises(ValueError, match="digit"):
            decode(CnsBasis(TWIN), [2])
        with pytest.raises(ValueError, match="digit"):
            decode(CnsBasis(TWIN), [-1])
        assert decode(CnsBasis(TWIN, "signed"), [-1]) == (-1, 0)

    def test_cycle_detected(self):
        exp = encode(CnsBasis(SQRT2), (-1, 0), 100)
        assert not exp.terminated
        assert exp.cycle_witness == (-1, 0)  # the orbit returns to its start

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="step_cap"):
            encode(CnsBasis(TWIN), (1, 0), 0)

    def test_element_length_checked(self):
        with pytest.raises(ValueError, match="coordinates"):
            encode(CnsBasis(TWIN), (1, 0, 0))

    def test_non_integer_coordinates_rejected(self):
        # a float is named, never truncated: (1.5, 0.9) is not the element (1, 0)
        with pytest.raises(ValueError, match="1.5 is not an integer"):
            encode(CnsBasis(TWIN), (1.5, 0.9))
        with pytest.raises(ValueError, match="'1' is not an integer"):
            CnsBasis(TWIN).validate_element(("1", 0))

    def test_non_integer_digits_rejected(self):
        with pytest.raises(ValueError, match="1.7 is not an integer"):
            decode(CnsBasis(TWIN), [1.7, 0.2])
        assert decode(CnsBasis(TWIN), [True, 0]) == (1, 0)  # a bool is an int

    def test_terminated_expansions_end_nonzero(self):
        basis = CnsBasis(TWIN)
        for coords in itertools.product(range(-4, 5), repeat=2):
            exp = encode(basis, coords)
            if exp.terminated and coords != (0, 0):
                assert exp.digits[-1] != 0

    @given(a=st.integers(-50, 50), b=st.integers(-50, 50))
    @settings(max_examples=150)
    def test_round_trip(self, a, b):
        basis = CnsBasis(TWIN)
        exp = encode(basis, (a, b))
        assert exp.terminated
        assert decode(basis, exp.digits) == (a, b)

    def test_round_trip_cubic(self):
        basis = CnsBasis(IntPoly([3, 2, 2, 1]))
        rng = random.Random(0)
        for _ in range(60):
            z = tuple(rng.randint(-5, 5) for _ in range(3))
            exp = encode(basis, z)
            if exp.terminated:
                assert decode(basis, exp.digits) == z

    def test_signed_round_trip(self):
        basis = CnsBasis(TWIN, "signed")
        for coords in itertools.product(range(-3, 4), repeat=2):
            exp = encode(basis, coords)
            if exp.terminated:
                assert decode(basis, exp.digits) == coords

    def test_determinism(self):
        basis = CnsBasis(TWIN)
        assert encode(basis, (7, -3)) == encode(basis, (7, -3))


def _oracle_bases() -> list[tuple[int, ...]]:
    """The digits benchmark's bases (x^2+2x+2, chain cubics, generator binomials) and five others."""
    chains = [(a0, a1, a2, 1) for a0 in (2, 3, 4) for a1 in range(1, a0 + 1) for a2 in range(1, a1 + 1)]
    binomials = [
        (-a,) + (0,) * (n - 1) + (1,)
        for n, a in ((3, 6), (3, 15), (3, 30), (4, 6), (4, 10), (4, 14), (5, 10), (6, 6), (6, 30))
    ]
    # x^2 - 2 (cycles), x + 3 and x - 2 (degree 1), x^3 - 2x^2 + 3x - 5, x^4 - 2x + 2
    others = [(-2, 0, 1), (3, 1), (-2, 1), (-5, 3, -2, 1), (2, -2, 0, 0, 1)]
    out = []
    for coeffs in [(2, 2, 1)] + chains + binomials + others:
        try:
            CnsBasis(IntPoly(coeffs))
        except ValueError:  # a chain cubic with a rational root
            continue
        out.append(coeffs)
    return out


class TestAgainstOracle:
    @pytest.mark.parametrize("coeffs", _oracle_bases())
    @pytest.mark.parametrize("mode", ["standard", "signed"])
    def test_encode_decode_match_oracle(self, coeffs, mode):
        basis = CnsBasis(IntPoly(coeffs), mode)
        n = len(coeffs) - 1
        radius = 3 if n <= 3 else 1
        for cap in (None, 1, 5):
            for z in itertools.product(range(-radius, radius + 1), repeat=n):
                exp = encode(basis, z, cap)
                got = (exp.digits, exp.terminated, exp.cycle_witness, exp.steps)
                assert got == cns_encode_by_steps(coeffs, mode, z, cap), (z, cap)
                assert decode(basis, exp.digits) == cns_decode_by_horner(coeffs, mode, exp.digits)

    def test_grid_reaches_every_outcome(self):
        # termination, a cycle witness, and a cap reached with no witness, at the default cap and at 5
        seen = set()
        for coeffs in _oracle_bases():
            for mode in ("standard", "signed"):
                basis = CnsBasis(IntPoly(coeffs), mode)
                for z in itertools.product(range(-1, 2), repeat=len(coeffs) - 1):
                    for cap in (None, 5):
                        exp = encode(basis, z, cap)
                        seen.add((cap, exp.terminated, exp.cycle_witness is None))
        assert {(None, True, True), (None, False, False), (5, False, True), (5, False, False)} <= seen

    @pytest.mark.parametrize("mode, digits", [("standard", [1, 0, 7, 1, 9]), ("signed", [1, -1, 0, -5, 2, 6])])
    def test_bad_digit_error_matches_oracle(self, mode, digits):
        coeffs = (-5, 0, 0, 1)
        with pytest.raises(ValueError) as ours:
            decode(CnsBasis(IntPoly(coeffs), mode), digits)
        with pytest.raises(ValueError) as theirs:
            cns_decode_by_horner(coeffs, mode, digits)
        assert str(ours.value) == str(theirs.value)


class TestVerifyBox:
    def test_classical_base_radius_10(self):
        report = verify_box(CnsBasis(TWIN), 10)
        assert report.total == 441
        assert report.terminated == 441
        assert report.non_terminated == 0
        assert report.collisions == 0

    def test_non_cns_base(self):
        report = verify_box(CnsBasis(SQRT2), 2)
        assert report.non_terminated > 0
        assert report.witnesses

    def test_radius_zero(self):
        report = verify_box(CnsBasis(TWIN), 0)
        assert report.total == 1 and report.terminated == 1

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            verify_box(CnsBasis(TWIN), -1)

    def test_signed_mode_measures_redundancy(self):
        report = verify_box(CnsBasis(TWIN, "signed"), 2)
        # -1 already has two expansions; the counts are pinned as measured
        assert (report.signed_enum_length, report.signed_multiple_expansions) == (11, 11310)

    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            ((-6, 0, 0, 1), (5, 50600)),
            ((3, 2, 2, 1), (7, 17032)),
            ((-2, 0, 1), (11, 7858)),
            ((-10, 0, 0, 0, 0, 1), (4, 0)),
        ],
    )
    def test_signed_redundancy_counts(self, coeffs, expected):
        assert cns._signed_redundancy(CnsBasis(IntPoly(coeffs), "signed")) == expected


class TestKovacs:
    def test_norm_boundary(self):
        # the chain holds but the norm is exactly 2: not inside the criterion
        assert not kovacs_hypothesis(IntPoly([2, 2, 2, 1]))
        assert kovacs_hypothesis(IntPoly([3, 2, 2, 1]))

    def test_binomial_fails_chain(self):
        assert not kovacs_hypothesis(IntPoly.binomial(6, 30))

    def test_chain_violation(self):
        assert not kovacs_hypothesis(IntPoly([2, 3, 2, 1]))  # a_1 > a_0 is fine; 3 <= 2 fails

    def test_degree_guard(self):
        with pytest.raises(ValueError, match="degree"):
            kovacs_hypothesis(TWIN)


class TestBridge:
    def test_example_basis(self):
        rep = cns.cns_from_monogenic(6, 30, 5, radius=0)
        assert rep.basis.G == IntPoly.binomial(6, 30)
        assert rep.basis.digit_base == 30
        assert rep.kovacs is False
        assert rep.box_standard.total == 1
        assert any("chain" in note for note in rep.notes)

    def test_small_boxes_both_modes(self):
        rep = cns.cns_from_monogenic(4, 6, 3, radius=1)
        assert rep.box_standard.total == 81
        assert rep.box_signed.total == 81
        assert rep.box_standard.collisions == 0

    def test_invalid_hypotheses_propagate(self):
        with pytest.raises(ValueError, match="u >= 2"):
            cns.cns_from_monogenic(6, 30, 1)
