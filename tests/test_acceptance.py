"""Acceptance suite: every shipped guarantee, one pass/fail line each.

All numeric checks are exact; the only tolerances are the wall-clock budgets
stated alongside each criterion.
"""

import json
import random
import time

import monocert
from monocert import arith, cns, fppoly, ore, purefield
from monocert.cli import main as cli_main
from monocert.cns import CnsBasis
from monocert.polygon import IntPoly, phi_expand, polygon_index, principal_polygon, residual_polynomial
from oracles import binomial_discriminant, derivative, family_condition, resultant


def _finish(num, label, checks, elapsed, limit=None):
    failed = [name for name, ok in checks if not ok]
    ok = not failed and (limit is None or elapsed <= limit)
    budget = f"{elapsed:.2f}s" + (f" (limit {limit:g}s)" if limit else "")
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {label} [{budget}]")
    assert ok, f"criterion {num} failed: {failed if failed else f'over time budget: {elapsed:.2f}s > {limit}s'}"


def test_criterion_1_quartic_golden():
    t0 = time.perf_counter()
    checks = []
    F = IntPoly.binomial(4, 17)
    phi = IntPoly([-1, 1])
    exp = phi_expand(F, phi)
    checks.append(("phi-adic parts", [list(a.coeffs) for a in exp.parts] == [[-16], [4], [6], [4], [1]]))
    poly = principal_polygon(exp, 2)
    checks.append(("vertices", poly.vertices == ((0, 4), (1, 2), (2, 1), (4, 0))))
    checks.append(("index", polygon_index(poly, 1) == 3))
    phi_bar = exp.base.reduce_mod(2)
    residuals = [residual_polynomial(exp, s, 2) for s in poly.sides]
    checks.append(("residuals separable", all(fppoly.fq_is_separable(phi_bar, res) for res in residuals)))
    split = ore.ore_split(F, 2)
    checks.append(("exact split", split.exact and split.index_valuation == 3))
    checks.append(("e/f multiset", sorted((s.e, s.f) for s in split.slots) == [(1, 1), (1, 1), (2, 1)]))
    witness = ore.common_index_divisor(F, 2)
    checks.append(
        ("witness d=1 3>2", witness is not None and (witness.d, witness.ideal_count, witness.irreducible_count) == (1, 3, 2))
    )
    verdict = purefield.analyze(4, 17)
    checks.append(("verdict", verdict.status == "not_monogenic" and verdict.p == 2))
    _finish(1, "quartic golden pipeline (x^4 - 17 at p = 2)", checks, time.perf_counter() - t0, 1.0)


def test_criterion_2_generator_suite():
    t0 = time.perf_counter()
    checks = []
    for n, a, u in [(6, 30, 5), (4, 6, 3), (6, 6, 5), (10, 10, 3)]:
        v = purefield.construct_generator(n, a, u)
        G = IntPoly.binomial(n, a)
        for q in arith.factorize(a).prime_divisors:
            split = ore.ore_split(G, q)
            checks.append((f"({n},{a},{u}) q={q} index 0", split.exact and split.index_valuation == 0))
        checks.append((f"({n},{a},{u}) bezout", u * v.t - n * v.s == 1 and 1 <= v.t <= n))
        bound = (n - 1) * (u - 1) // 2
        F = IntPoly.binomial(n, a**u)
        checks.append(
            (
                f"({n},{a},{u}) defining-root bound",
                all(ore.ore_split(F, q).index_valuation >= bound for q in arith.factorize(a).prime_divisors),
            )
        )
        checks.append(
            (f"({n},{a},{u}) discriminant", abs(binomial_discriminant(n, a)) == n**n * abs(a) ** (n - 1))
        )
    _finish(2, "generator construction suite", checks, time.perf_counter() - t0, 5.0)


def test_criterion_3_closed_form_oracle():
    t0 = time.perf_counter()
    rng = random.Random(41)
    checks = []
    done = 0
    while done < 100:
        p = rng.choice([3, 5, 7])
        r = rng.randint(1, 3)
        u = rng.randint(1, 6)
        if u % p == 0:
            continue
        m = rng.randint(-50, 50)
        if abs(m) < 2 or m % p == 0:
            continue
        n = u * p**r
        if not purefield.binomial_irreducible(n, m):
            continue
        fm = fppoly.factor(IntPoly.binomial(u, m).reduce_mod(p))
        phi_bar, _ = rng.choice(list(fm.factors))
        phi = purefield.closed_form_lift(u, m, p, phi_bar)
        data = purefield.closed_form_polygon(n, m, p, phi)
        direct = principal_polygon(phi_expand(IntPoly.binomial(n, m), phi), p)
        if data.hull() != direct:
            checks.append((f"instance n={n} m={m} p={p} phi={phi}", False))
        done += 1
    checks.append(("100 instances compared", done == 100))
    _finish(3, "closed-form polygon equals developed polygon (100 seeded instances)", checks, time.perf_counter() - t0, 60.0)


def test_criterion_4_counting_identities():
    t0 = time.perf_counter()
    checks = []
    for p in (2, 3, 5):
        for d in range(1, 4):
            found = 0
            for idx in range(p**d):
                coeffs, v = [], idx
                for _ in range(d):
                    coeffs.append(v % p)
                    v //= p
                if fppoly.is_irreducible(fppoly.FpPoly(p, coeffs + [1])):
                    found += 1
            checks.append((f"enumeration p={p} d={d}", found == arith.count_irreducibles(p, d)))
    for p in (2, 3, 5, 7):
        for d in range(1, 7):
            total = sum(e * arith.count_irreducibles(p, e) for e in range(1, d + 1) if d % e == 0)
            checks.append((f"power identity p={p} d={d}", total == p**d))
    _finish(4, "irreducible-count identities", checks, time.perf_counter() - t0)


def test_criterion_5_split_consistency():
    t0 = time.perf_counter()
    rng = random.Random(7)
    checks = []
    exact_count = unramified = 0
    tried = 0
    while exact_count < 500:
        tried += 1
        deg = rng.randint(2, 10)
        F = IntPoly([rng.randint(-30, 30) for _ in range(deg)] + [1])
        p = rng.choice([2, 3, 5, 7, 11, 13])
        try:
            split = ore.ore_split(F, p)
        except ValueError:
            continue
        if not split.exact:
            continue
        exact_count += 1
        if sum(s.e * s.f for s in split.slots) != F.degree:
            checks.append((f"sum e*f for {F} at {p}", False))
        if resultant(F, derivative(F)) % p != 0:
            unramified += 1
            degs = sorted(f.degree for f, mult in fppoly.factor(F.reduce_mod(p)).factors for _ in range(mult))
            if sorted(s.f for s in split.slots) != degs or any(s.e != 1 for s in split.slots):
                checks.append((f"unramified pattern for {F} at {p}", False))
    checks.append(("500 exact splits", exact_count == 500))
    checks.append(("unramified cases seen", unramified >= 100))
    _finish(5, "splitting consistency on 500 seeded random polynomials", checks, time.perf_counter() - t0)


def test_criterion_6_criterion_cross_validation():
    t0 = time.perf_counter()
    checks = []
    v = purefield.theorem_general_test(27, 82)
    checks.append(("fires on (27, 82)", v is not None and (v.p, v.witness_d, v.ideal_count, v.irreducible_count) == (3, 1, 4, 3)))
    split = ore.ore_split(IntPoly.binomial(27, 82), 3)
    checks.append(("full split confirms >= 4 degree-1 primes", split.exact and sum(s.f == 1 for s in split.slots) >= 4))
    checks.append(("vs 3 monic irreducibles", arith.count_irreducibles(3, 1) == 3))

    t_big = time.perf_counter()
    big = purefield.theorem_general_test(5 * 7**7, 7**8 - 1)
    big_elapsed = time.perf_counter() - t_big
    checks.append(("huge-degree firing", big is not None and (big.p, big.witness_d, big.ideal_count) == (7, 1, 8)))
    checks.append(("huge-degree under 1s", big_elapsed < 1.0))

    t_fam = time.perf_counter()
    n, cond = family_condition("5-11", 1, 2, 1330)  # m = -1 mod 11, m^10 = 1 mod 1331
    fam = purefield.theorem_general_test(n, 1330)
    fam_elapsed = time.perf_counter() - t_fam
    checks.append(("5-11 family instance fires", cond == 1 and fam is not None))
    checks.append(("5-11 under 1s", fam_elapsed < 1.0))

    # the family's condition (2) holds, but the splitting-count inequality does not fire
    n, cond = family_condition("3-11", 2, 1, 26)
    checks.append(("shallow 3-11 discrepancy reported", cond == 2 and purefield.theorem_general_test(n, 26) is None))
    _finish(6, "splitting-count criterion cross-validation", checks, time.perf_counter() - t0)


def test_criterion_7_cns_suite():
    t0 = time.perf_counter()
    checks = []
    basis = CnsBasis(IntPoly([2, 2, 1]))
    report = cns.verify_box(basis, 10)
    checks.append(("441 elements all terminate", report.total == 441 and report.terminated == 441))
    checks.append(("zero collisions", report.collisions == 0))
    digits_ok = True
    for a in range(-10, 11):
        for b in range(-10, 11):
            exp = cns.encode(basis, (a, b))
            if not exp.terminated or any(d not in (0, 1) for d in exp.digits):
                digits_ok = False
    checks.append(("digits within {0, 1}", digits_ok))
    exp = cns.encode(basis, (-1, 0))
    checks.append(("-1 encodes to 10111", exp.digits == (1, 0, 1, 1, 1)))
    checks.append(("digits decode back", cns.decode(basis, exp.digits) == (-1, 0)))
    bad = cns.verify_box(CnsBasis(IntPoly([-2, 0, 1])), 2)
    checks.append(("x^2 - 2 produces cycles", bad.non_terminated > 0 and len(bad.witnesses) > 0))
    cyc = cns.encode(CnsBasis(IntPoly([-2, 0, 1])), (-1, 0), 100)
    checks.append(("cycle witness recorded", not cyc.terminated and cyc.cycle_witness is not None))
    _finish(7, "digit-system suite (x^2+2x+2 box, x^2-2 cycles)", checks, time.perf_counter() - t0, 10.0)


def _run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out, err = capsys.readouterr()
    assert code == 0, f"{argv}: {err}"
    return out


def _strip_timing(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"seconds"' not in line and '"timing"' not in line)


def test_criterion_8_determinism(capsys):
    t0 = time.perf_counter()
    commands = [
        ("analyze", "--n", "4", "--m", "17"),
        ("analyze", "--n", "27", "--m", "82"),
        ("polygon", "--n", "4", "--m", "17", "--p", "2", "--render", "svg"),
        ("factor", "--n", "3", "--m", "2", "--p", "5"),
        ("search", "--n-set", "27", "--m-range", "80:84"),
        ("search", "--n-set", "27", "--m-range", "80:84", "--jobs", "2"),
        ("cns", "verify", "--poly", "x^2+2x+2", "--radius", "5"),
        ("cns", "encode", "--poly", "x^2+2x+2", "--element=-1,0"),
    ]
    checks = []
    for argv in commands:
        first = _run_cli(capsys, *argv)
        second = _run_cli(capsys, *argv)
        checks.append((f"bytes stable: {' '.join(argv)}", _strip_timing(first) == _strip_timing(second)))
        json.loads(first)  # every report is valid JSON
    elapsed = time.perf_counter() - t0
    _finish(8, "byte-identical JSON reports across reruns (timing excluded)", checks, elapsed)


def test_public_surface():
    # every export is pinned, so one that only tests reach cannot come back unnoticed
    assert monocert.__all__ == [
        "BoxReport", "ClosedFormData", "CnsBasis", "DigitExpansion", "FactorMultiset", "FactorSlot", "FpPoly",
        "IndexDivisorWitness", "IntFactorization", "IntPoly", "MonogenityVerdict", "PhiExpansion", "PrimeSplit",
        "PrincipalPolygon", "Side", "analyze", "arith", "bezout_positive", "binomial_irreducible",
        "closed_form_lift", "closed_form_polygon", "cns", "cns_from_monogenic", "common_index_divisor",
        "construct_generator", "count_degree_d_factors", "count_irreducibles", "decode", "encode", "factor", "factorize",
        "fppoly", "kovacs_hypothesis", "ore", "ore_split", "padic_valuation", "phi_expand", "polygon", "polygon_index",
        "principal_polygon", "purefield", "residual_polynomial", "theorem_general_test", "verify_box",
    ]  # fmt: skip
    # both prime counts return the one witness type
    witness = arith.IndexDivisorWitness(2, 1, 3, 2)
    assert ore.common_index_divisor(IntPoly.binomial(4, 17), 2) == witness == purefield._count_witness(4, 17, 2)
    assert monocert.IndexDivisorWitness is arith.IndexDivisorWitness
