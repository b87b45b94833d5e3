"""Class-number oracle tests.

The imaginary counter is checked against the exact finite character-sum
class number formula h = w/(2|D|) * |sum chi(k) k| , an independent route
that shares no code with the form enumeration.  The real-side cycle
counter is checked against the analytic estimate and against structural
properties of the reduction step.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsieve.classnum import (
    class_number_imaginary,
    class_number_real_narrow,
    field_discriminant,
    is_fundamental_discriminant,
    three_divides_real_class_number,
)
from ccsieve.intmath import is_squarefree
from reference import (
    AnalyticEstimate,
    QuadraticForm,
    analytic_estimate_real,
    cf_regulator,
    fundamental_range,
    imaginary_count_widened,
    is_reduced_indefinite,
    kronecker,
    reduced_indefinite_forms,
    rho,
    squarefree_sieve,
)


def _h_imaginary_formula(D: int) -> int:
    """Oracle: exact class number of D < -4 (and -3, -4) from the finite
    character sum h = w/(2|D|) * |sum_{k<|D|} (D|k) * k|."""
    n = -D
    w = 6 if D == -3 else 4 if D == -4 else 2
    total = sum(kronecker(D, k) * k for k in range(1, n))
    assert (w * abs(total)) % (2 * n) == 0
    return w * abs(total) // (2 * n)


class TestKronecker:
    def test_legendre_agreement(self):
        # Euler's criterion as the oracle for odd primes
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for a in range(0, 3 * p):
                euler = pow(a, (p - 1) // 2, p)
                expected = 0 if a % p == 0 else (1 if euler == 1 else -1)
                assert kronecker(a, p) == expected

    def test_bottom_multiplicativity(self):
        for a in range(-30, 31):
            for n1 in range(1, 25):
                for n2 in range(1, 25):
                    assert kronecker(a, n1 * n2) == kronecker(a, n1) * kronecker(a, n2)

    @settings(deadline=None, max_examples=300)
    @given(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_multiplicative_in_each_argument(self, a, b, m, n):
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)

    def test_character_periodicity_and_conductor(self):
        for D in fundamental_range(-60, 60):
            period = abs(D)
            for n in range(1, 2 * period):
                assert kronecker(D, n) == kronecker(D, n + period)
                assert (kronecker(D, n) == 0) == (math.gcd(n, period) > 1)

    def test_two_extension(self):
        assert kronecker(17, 2) == 1  # 17 == 1 (mod 8)
        assert kronecker(21, 2) == -1  # 21 == 5 (mod 8)
        assert kronecker(12, 2) == 0

    def test_zero_lower_argument(self):
        # (a|0) is 1 for a = +-1 and 0 otherwise
        assert [kronecker(a, 0) for a in (-2, -1, 0, 1, 2)] == [0, 1, 0, 1, 0]

    def test_negative_lower_argument(self):
        # (a|-1) is -1 for a < 0 and 1 otherwise, and (a|-n) = (a|-1) * (a|n)
        assert kronecker(5, -7) == -1
        assert kronecker(-5, -7) == -1
        assert kronecker(0, -1) == 1
        assert kronecker(-3, -1) == -1
        for a in range(-20, 21):
            for n in range(1, 20):
                assert kronecker(a, -n) == (-1 if a < 0 else 1) * kronecker(a, n)


class TestFieldDiscriminant:
    def test_examples(self):
        assert field_discriminant(5) == 5
        assert field_discriminant(79) == 316
        assert field_discriminant(-23) == -23

    def test_negative_cases(self):
        assert field_discriminant(-1) == -4
        assert field_discriminant(-5) == -20

    def test_oracles_reject_bad_d(self):
        # the map checks nothing; the oracle of d's sign rejects what it makes
        for bad in (0, 1, 12, -12, 75):
            oracle = class_number_imaginary if bad < 0 else class_number_real_narrow
            with pytest.raises(ValueError):
                oracle(field_discriminant(bad))

    def test_fundamental_exactly_for_squarefree_d(self):
        n = 100_000
        flags = squarefree_sieve(n)
        fundamental = set()
        for d in range(-n, n + 1):
            expected = d not in (0, 1) and bool(flags[abs(d)])
            assert is_fundamental_discriminant(field_discriminant(d)) == expected, d
            if expected:
                fundamental.add(field_discriminant(d))
        # and no other D is: D == 2, 3 (mod 4) and 4q with q == 0, 1 (mod 4) fail
        for D in range(-n, n + 1):
            assert is_fundamental_discriminant(D) == (D in fundamental), D


class TestFundamentalPredicate:
    def test_known_values(self):
        assert is_fundamental_discriminant(5)
        assert is_fundamental_discriminant(8)
        assert is_fundamental_discriminant(-3)
        assert is_fundamental_discriminant(-4)
        assert not is_fundamental_discriminant(1)
        assert not is_fundamental_discriminant(0)
        assert not is_fundamental_discriminant(-12)  # 4*(-3), but -3 == 1 mod 4
        assert not is_fundamental_discriminant(9)
        assert not is_fundamental_discriminant(45)

    def test_counts_in_range(self):
        # density sanity: both signs give the same number of fundamental
        # discriminants in symmetric ranges of this size
        assert len(fundamental_range(-500, -1)) == 153
        assert len(fundamental_range(2, 500)) == 153


class TestImaginary:
    def test_examples(self):
        assert class_number_imaginary(-3) == 1  # only (1,1,1)
        assert class_number_imaginary(-23) == 3  # (1,1,6), (2,+-1,3)
        assert class_number_imaginary(-4) == 1  # only (1,0,1)

    def test_result_record(self):
        # the oracle returns h itself
        assert type(class_number_imaginary(-23)) is int

    def test_against_character_formula(self):
        for D in fundamental_range(-500, -1):
            assert class_number_imaginary(D) == _h_imaginary_formula(D)

    def test_widened_window_stability(self):
        for D in fundamental_range(-500, -1):
            assert imaginary_count_widened(D) == class_number_imaginary(D)

    def test_domain_errors(self):
        for bad, message in ((0, "must be negative"), (5, "must be negative"),
                             (-12, "not a fundamental"), (-9, "not a fundamental")):
            with pytest.raises(ValueError, match=message):
                class_number_imaginary(bad)


class TestRealNarrow:
    def test_examples(self):
        assert class_number_real_narrow(5) == 1
        assert class_number_real_narrow(229) == 3
        assert class_number_real_narrow(8) == 1

    def test_kind(self):
        # the oracle returns h+ itself
        assert type(class_number_real_narrow(5)) is int

    def test_narrow_vs_wide_units(self):
        # D=12: the fundamental unit 2+sqrt(3) has norm +1, so h+ = 2h = 2;
        # D=316 = disc of Q(sqrt(79)): norm +1 again, h+ = 2h = 6
        assert class_number_real_narrow(12) == 2
        assert class_number_real_narrow(316) == 6

    def test_domain_errors(self):
        for bad, message in ((-5, "must be positive"), (0, "must be positive"),
                             (4, "not a fundamental"), (9, "not a fundamental"),
                             (45, "not a fundamental")):
            with pytest.raises(ValueError, match=message):
                class_number_real_narrow(bad)


class TestReductionStep:
    def test_rho_closure_and_conservation(self):
        # rho maps reduced forms to reduced forms of the same discriminant,
        # and iterating returns to the start: for every fundamental D <= 2000
        for D in fundamental_range(2, 2000):
            forms = reduced_indefinite_forms(D)
            form_set = set(forms)
            assert len(forms) % 2 == 0  # (a,b,c) pairs with (-a,b,-c)
            for f in forms:
                g = rho(f, D)
                assert g.discriminant() == D
                assert is_reduced_indefinite(g, D)
                assert g in form_set
        # explicit orbit closure on a moderate subrange
        for D in fundamental_range(2, 300):
            forms = reduced_indefinite_forms(D)
            for f in forms:
                g = rho(f, D)
                steps = 1
                while g != f:
                    g = rho(g, D)
                    steps += 1
                    assert steps <= len(forms)

    def test_reduced_enumeration_matches_predicate(self):
        # brute-force oracle: scan all (a, b, c) with |a|, b in range and
        # keep those passing the reduced predicate
        for D in (5, 8, 12, 13, 229, 316, 401):
            s = math.isqrt(D)
            brute = set()
            for b in range(1, s + 1):
                if (D - b * b) % 4:
                    continue
                for a in range(-(s + b), s + b + 1):
                    if a == 0 or (D - b * b) % (4 * abs(a)):
                        continue
                    c = (b * b - D) // (4 * a)
                    form = QuadraticForm(a, b, c)
                    if is_reduced_indefinite(form, D):
                        brute.add(form)
            assert brute == set(reduced_indefinite_forms(D))

    def test_reduced_predicate_rejections(self):
        assert is_reduced_indefinite(QuadraticForm(1, 1, -1), 5)
        # a form of discriminant 5 tested against D = 13
        assert not is_reduced_indefinite(QuadraticForm(1, 1, -1), 13)
        # discriminant 5, but b lies outside (0, isqrt(5)]
        assert not is_reduced_indefinite(QuadraticForm(1, 3, 1), 5)
        assert not is_reduced_indefinite(QuadraticForm(1, -1, -1), 5)


class TestRegulator:
    def test_small_units(self):
        # (1+sqrt(5))/2 and 1+sqrt(2) are units: norms (1-5)/4 = -1 and
        # 1-2 = -1; minimality is forced since y=1, x=1 are the least
        # positive coordinates
        assert cf_regulator(5) == pytest.approx(math.log((1 + math.sqrt(5)) / 2), abs=1e-12)
        assert cf_regulator(8) == pytest.approx(math.log(1 + math.sqrt(2)), abs=1e-12)

    def test_pell_unit_exactness(self):
        # rebuild the unit as exact integers (x + y*sqrt(D))/2 from the same
        # period and require x^2 - D y^2 = +-4, which only units satisfy
        for D in fundamental_range(2, 300):
            s = math.isqrt(D)
            p0 = s if (s & 1) == (D & 1) else s - 1
            p, q = p0, 2
            x, y, den = p0, 1, 2
            while True:
                a = (p + s) // q
                p = a * q - p
                q = (D - p * p) // q
                if (p, q) == (p0, 2):
                    break
                x, y, den = x * p + y * D, x + y * p, den * q
                g = math.gcd(math.gcd(x, y), den)
                x, y, den = x // g, y // g, den // g
            assert den in (1, 2)
            if den == 1:
                x, y = 2 * x, 2 * y
            assert x * x - D * y * y in (4, -4)
            unit = (x + y * math.sqrt(D)) / 2
            assert cf_regulator(D) == pytest.approx(math.log(unit), rel=1e-9)


class TestAnalyticEstimate:
    def test_examples(self):
        est5 = analytic_estimate_real(5)
        est8 = analytic_estimate_real(8)
        assert isinstance(est5, AnalyticEstimate)
        assert abs(est5.value - 1.0) < 0.5 and round(est5.value) == 1
        assert abs(est8.value - 1.0) < 0.5 and round(est8.value) == 1
        est229 = analytic_estimate_real(229)
        assert abs(est229.value - class_number_real_narrow(229)) < 0.5
        assert round(est229.value) % 3 == 0

    def test_matches_cycle_count_up_to_unit_norm(self):
        # h-estimate must land within 0.5 of h+ or h+/2 for every
        # fundamental discriminant below 500
        for D in fundamental_range(2, 500):
            h_plus = class_number_real_narrow(D)
            est = analytic_estimate_real(D)
            assert not est.unstable
            assert (
                abs(est.value - h_plus) <= 0.5 or abs(est.value - h_plus / 2) <= 0.5
            ), (D, h_plus, est.value)

    def test_instability_flag_tracks_tail_bound(self):
        est = analytic_estimate_real(5)
        assert est.tail_bound < 0.25 and not est.unstable


class TestThreeDivides:
    def test_examples(self):
        assert three_divides_real_class_number(229) is True
        assert three_divides_real_class_number(79) is True
        assert three_divides_real_class_number(5) is False

    def test_rejects_bad_d(self):
        for bad in (1, 0, -7, 12):
            with pytest.raises(ValueError):
                three_divides_real_class_number(bad)


class TestScholzReflection:
    def test_real_three_divisibility_lifts_to_minus_three_d(self):
        # Scholz: r3(d) <= r3(-3d), so 3 | h+(d) forces 3 | h(Q(sqrt(-3d))).
        # The two oracles share no code, so every d cross-checks them.
        violations = []
        for d in range(2, 5_001):
            if not is_squarefree(d):
                continue
            if class_number_real_narrow(field_discriminant(d)) % 3:
                continue
            kernel = -(d // 3) if d % 3 == 0 else -3 * d  # squarefree part of -3d
            h_imag = class_number_imaginary(field_discriminant(kernel))
            if h_imag % 3:
                violations.append((d, h_imag))
        assert violations == []
