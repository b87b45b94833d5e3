"""Table-driven oracles against the trial-division enumerators they replaced.

The reference implementations below loop over b and trial-divide
(D - b^2)/4 or (b^2 + |D|)/4, which costs O(|D|) per discriminant.  They
share no code with the square-root table, so agreement on every
fundamental discriminant with |D| <= 10^4 checks the enumeration by
leading coefficient.  The property tests cover both oracles on random
discriminants up to the benchmark's range, the table itself, the
closure of rho-cycles and the cycle facts the real oracle's walk relies on.
The sweeps' sieved small-form counts are checked against the one-off count.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccsieve.classnum import (
    _root_table,
    _small_form_count,
    class_number_imaginary,
    class_number_real_narrow,
    field_discriminant,
    is_fundamental_discriminant,
    small_form_counts,
)
from ccsieve.counting import SCHOLZ_BOUND_CAP, TRUTH_X_CAP, _chunks, _imaginary_discriminant
from reference import (
    QuadraticForm,
    fundamental_range,
    is_reduced_indefinite,
    reduced_indefinite_forms,
    rho,
)

REFERENCE_RANGE = 10_000
# the largest |D| the benchmark's count and falsify-scholz stages reach
BENCH_RANGE = 240_000


def fundamental_discriminants(lo: int, hi: int) -> st.SearchStrategy[int]:
    """Fundamental discriminants in [lo, hi].  About 0.3 of the integers are
    fundamental.  Hypothesis fails a test that discards 50 inputs before
    its 10th valid one; at that rate, drawing uniformly, assume would do so
    in about 0.6 % of runs, while a filter tries three draws before it
    discards an input."""
    return st.integers(min_value=lo, max_value=hi).filter(is_fundamental_discriminant)


def reference_reduced_triples(D: int) -> list[tuple[int, int, int]]:
    """Reduced indefinite forms (a, b, c) of discriminant D > 0, both signs
    of a, by trial division of (D - b^2)/4 over b of the parity of D."""
    s = math.isqrt(D)
    out: list[tuple[int, int, int]] = []
    for b in range(2 - (D & 1), s + 1, 2):
        quarter = (D - b * b) // 4  # exact: b has the parity of D
        lo = s - b + 1  # window on 2|a|, inclusive
        hi = s + b
        for x in range(1, math.isqrt(quarter) + 1):
            if quarter % x:
                continue
            y = quarter // x
            if lo <= 2 * x <= hi:
                out.append((x, b, -y))
                out.append((-x, b, y))
            if y != x and lo <= 2 * y <= hi:
                out.append((y, b, -x))
                out.append((-y, b, x))
    return out


def reference_class_number_imaginary(D: int) -> int:
    """Reduced positive-definite forms of discriminant D < 0, counted over
    b >= 0 and the divisors a of (b^2 + |D|)/4, doubling 0 < b < a < c."""
    n = -D
    count = 0
    for b in range(n & 1, math.isqrt(n // 3) + 1, 2):
        ac = (b * b + n) // 4
        for a in range(max(b, 1), math.isqrt(ac) + 1):
            if ac % a:
                continue
            c = ac // a
            count += 1 if (b == 0 or b == a or a == c) else 2
    return count


def _rho_cycles(forms: list[QuadraticForm], D: int) -> list[list[QuadraticForm]]:
    """The rho-cycles on `forms`, asserting each one closes inside the set
    within len(forms) steps."""
    form_set = set(forms)
    seen: set[QuadraticForm] = set()
    cycles = []
    for start in forms:
        if start in seen:
            continue
        cycle = []
        g = start
        for _ in range(len(forms)):
            cycle.append(g)
            g = rho(g, D)
            assert g in form_set
            if g == start:
                break
        else:
            raise AssertionError(f"rho-cycle of {start} did not close for D={D}")
        seen.update(cycle)
        cycles.append(cycle)
    return cycles


def _negate(form: QuadraticForm) -> QuadraticForm:
    """N(a, b, c) = (-a, b, -c)."""
    return QuadraticForm(-form.a, form.b, -form.c)


def _mirror(form: QuadraticForm) -> QuadraticForm:
    """sigma(a, b, c) = (c, b, a)."""
    return QuadraticForm(form.c, form.b, form.a)


class TestAgainstTrialDivision:
    def test_real_forms_and_cycles(self):
        for D in fundamental_range(5, REFERENCE_RANGE):
            reference = sorted(QuadraticForm(*t) for t in reference_reduced_triples(D))
            assert reduced_indefinite_forms(D) == reference, D
            assert class_number_real_narrow(D) == len(_rho_cycles(reference, D)), D

    def test_imaginary_counts(self):
        for D in fundamental_range(-REFERENCE_RANGE, -3):
            assert class_number_imaginary(D) == reference_class_number_imaginary(D), D


class TestRandomDiscriminants:
    """Both oracles against the trial-division references on random
    fundamental D up to the benchmark's range, well past REFERENCE_RANGE:
    most D with h+ >= 8, whose walk needs several cycles before it has
    covered the counted forms, lie above 10^4.  The first examples are the
    five largest h+ in [2*10^5, 2.4*10^5]; the last six end their walks
    in each of the ways the oracle knows, h+ in brackets."""

    @settings(deadline=None)
    @given(fundamental_discriminants(5, BENCH_RANGE))
    @example(220_665)  # h+ = 152
    @example(224_161)  # h+ = 144
    @example(224_044)  # h+ = 140
    @example(234_745)  # h+ = 136
    @example(212_137)  # h+ = 134
    @example(85)  # (2) N fixes the cycles; a walk stops on a form with |a| = |c|
    @example(136)  # (4) N moves the cycles; a walk stops on two forms with a = -c
    @example(145)  # (4) N fixes the cycles; a walk closes and counts 2
    @example(316)  # (6) N moves the cycles; one closed walk counts 4
    @example(65)  # (2) N fixes the cycles; a walk from between two mirror points runs twice
    @example(105)  # (4) N moves the cycles; a walk from between two mirror points runs twice
    def test_real(self, D):
        forms = sorted(QuadraticForm(*t) for t in reference_reduced_triples(D))
        s = math.isqrt(D)
        assert _small_form_count(D) == sum(1 for f in forms if 0 < f.a and 2 * f.a <= s)
        assert class_number_real_narrow(D) == len(_rho_cycles(forms, D))

    @settings(deadline=None)
    @given(fundamental_discriminants(-BENCH_RANGE, -3))
    def test_imaginary(self, D):
        assert class_number_imaginary(D) == reference_class_number_imaginary(D)


# the (period, disc) of the truth sweep and of the falsifier's imaginary side
SWEEP_DISCRIMINANTS = ((4, field_discriminant), (12, _imaginary_discriminant))


def _sieved_count(disc, d: int) -> int:
    """What the sieve must give for d: the one-off count of disc(d), or 0
    for d = 0 (mod 4), never squarefree, which it does not sieve."""
    return _small_form_count(disc(d)) if d % 4 else 0


class TestSmallFormSieve:
    """The sieved small-form counts against the one-off count they replace
    in the sweeps.  A count that is too small makes the real oracle stop
    before its walk has covered every cycle, so these must agree exactly."""

    def test_every_sweep_progression_to_2e4(self):
        # the chunks of 1 to 4 workers start on several residues of d mod 12
        for period, disc in SWEEP_DISCRIMINANTS:
            expected = [0, 0] + [_sieved_count(disc, d) for d in range(2, 20_001)]
            for workers in range(1, 5):
                for lo, hi in _chunks(2, 20_000, workers):
                    assert small_form_counts(lo, hi, period, disc) == expected[lo : hi + 1]

    @settings(deadline=None)
    @given(
        st.sampled_from(SWEEP_DISCRIMINANTS),
        st.integers(min_value=2, max_value=BENCH_RANGE // 12),
        st.integers(min_value=0, max_value=299),
    )
    @example(SWEEP_DISCRIMINANTS[0], 2, 0)  # one d, shorter than a period
    @example(SWEEP_DISCRIMINANTS[1], 11, 5)  # starts and ends inside a period
    @example(SWEEP_DISCRIMINANTS[1], 4, 40)  # starts on d = 0 (mod 4)
    def test_random_ranges(self, sweep, lo, extra):
        period, disc = sweep
        hi = lo + extra
        expected = [_sieved_count(disc, d) for d in range(lo, hi + 1)]
        assert small_form_counts(lo, hi, period, disc) == expected

    # a chunk ending at each oracle cap reaches a = 1581, the longest rows and
    # the largest field sums the sweeps can ask for
    @pytest.mark.parametrize(
        "period, disc, hi",
        [(4, field_discriminant, TRUTH_X_CAP), (12, _imaginary_discriminant, SCHOLZ_BOUND_CAP)],
        ids=["truth", "scholz"],
    )
    def test_chunk_at_the_cap(self, period, disc, hi):
        lo = hi - 1_199
        expected = [_sieved_count(disc, d) for d in range(lo, hi + 1)]
        assert small_form_counts(lo, hi, period, disc) == expected


class TestSquareRootTable:
    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=500))
    def test_every_root_listed_once_under_its_residue(self, a):
        offsets, roots = _root_table(a)
        offs, rts = offsets[a], roots[a]
        assert len(offs) == 4 * a + 1 and offs[0] == 0 and offs[-1] == 2 * a
        listed = []
        for k in range(4 * a):
            for b in rts[offs[k]:offs[k + 1]]:
                assert 0 <= b < 2 * a
                assert b * b % (4 * a) == k
                listed.append(b)
        assert sorted(listed) == list(range(2 * a))


class TestRhoCycleClosure:
    @settings(deadline=None)
    @given(fundamental_discriminants(5, 200_000))
    def test_cycles_close_and_match_the_oracle(self, D):
        forms = reduced_indefinite_forms(D)
        assert len(forms) % 2 == 0
        assert class_number_real_narrow(D) == len(_rho_cycles(forms, D))


class TestCycleFacts:
    """The facts behind the real oracle's starts and stops, up to the
    benchmark's range: every rho-cycle holds a form with 2|a| <= isqrt(D);
    N(a, b, c) = (-a, b, -c) and the mirror sigma(a, b, c) = (c, b, a) map
    reduced forms to reduced forms, N commutes with rho and sigma reverses
    it; N fixes every cycle or none; and a cycle that sigma or N sigma fixes
    holds exactly two mirror points, half a cycle apart."""

    @settings(deadline=None)
    @given(fundamental_discriminants(5, BENCH_RANGE))
    def test_every_cycle_holds_a_small_form(self, D):
        s = math.isqrt(D)
        for cycle in _rho_cycles(reduced_indefinite_forms(D), D):
            assert any(2 * abs(f.a) <= s for f in cycle), (D, cycle)

    @settings(deadline=None)
    @given(fundamental_discriminants(5, BENCH_RANGE))
    def test_negation_commutes_with_rho(self, D):
        for f in reduced_indefinite_forms(D):
            assert is_reduced_indefinite(_negate(f), D)
            assert rho(_negate(f), D) == _negate(rho(f, D))

    @settings(deadline=None)
    @given(fundamental_discriminants(5, BENCH_RANGE))
    def test_mirror_reverses_rho(self, D):
        for f in reduced_indefinite_forms(D):
            assert is_reduced_indefinite(_mirror(f), D)
            assert rho(_mirror(rho(f, D)), D) == _mirror(f)

    @settings(deadline=None)
    @given(fundamental_discriminants(5, BENCH_RANGE))
    @example(5)  # the principal cycle is (1, 1, -1), (-1, 1, 1)
    @example(12)  # h+ = 2: N moves the principal cycle
    def test_negation_fixes_every_cycle_or_none(self, D):
        cycles = [set(cycle) for cycle in _rho_cycles(reduced_indefinite_forms(D), D)]
        fixed = {_negate(next(iter(cycle))) in cycle for cycle in cycles}
        principal = next(cycle for cycle in cycles if any(f.a == 1 for f in cycle))
        assert fixed == {any(f.a == -1 for f in principal)}

    @settings(deadline=None)
    @given(fundamental_discriminants(5, BENCH_RANGE))
    @example(85)  # N fixes the cycles: sigma and N sigma fix the same ones
    @example(136)  # N sigma fixes the cycle of (3, 8, -6)
    def test_mirror_points_lie_half_a_cycle_apart(self, D):
        for cycle in _rho_cycles(reduced_indefinite_forms(D), D):
            n = len(cycle)
            steps = [i for i in range(n) if cycle[(i + 1) % n].b == cycle[i].b]
            assert all(cycle[(i + 1) % n] == _mirror(cycle[i]) for i in steps)
            opposite = [i for i, f in enumerate(cycle) if f.a == -f.c]
            for points, mirror in ((steps, _mirror), (opposite, lambda f: _negate(_mirror(f)))):
                if mirror(cycle[0]) in cycle:
                    assert len(points) == 2 and points[1] - points[0] == n // 2, (D, cycle)
                else:
                    assert not points, (D, cycle)
