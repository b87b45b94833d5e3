"""Integer-kernel tests: frozen examples plus exhaustive property sweeps.

Expected values marked with an oracle were computed by the independent
routes coded in this file (incremental root scans, full-range root
scans) and in reference.py (the k^2-marking sieve, the divisor scan), not
by the functions under test.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsieve.intmath import (
    cubic_has_integer_root,
    icbrt,
    is_squarefree,
    squarefree_decompose,
)
from reference import (
    cubic_root_by_divisors,
    mod3_shortcut_no_root,
    squarefree_parts_by_trial_division,
    squarefree_sieve,
)


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % q for q in range(2, math.isqrt(p) + 1))


def _primes_from(lo: int, count: int) -> list[int]:
    """The first `count` primes at or above lo."""
    primes = []
    while len(primes) < count:
        if _is_prime(lo):
            primes.append(lo)
        lo += 1
    return primes


_PRIMES = [p for p in range(2, 3000) if _is_prime(p)]


class TestIcbrt:
    def test_exhaustive_to_2e4(self):
        r = 0
        for t in range(0, 20_001):
            if (r + 1) ** 3 <= t:
                r += 1
            assert icbrt(t) == r

    def test_large_cubes_exact(self):
        for r in (10**6, 10**12, 3 * 10**12 + 7):
            assert icbrt(r**3) == r
            assert icbrt(r**3 - 1) == r - 1
            assert icbrt(r**3 + 1) == r

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="icbrt requires a nonnegative integer"):
            icbrt(-1)

    @settings(deadline=None, max_examples=300)
    @given(
        st.integers(min_value=0, max_value=2**200)
        | st.integers(min_value=1, max_value=2**66).flatmap(
            lambda r: st.sampled_from([r**3 - 1, r**3, r**3 + 1])
        )
    )
    def test_floor_property(self, t):
        r = icbrt(t)
        assert r**3 <= t < (r + 1) ** 3


class TestSquarefreeDecompose:
    def test_examples(self):
        # 229 is prime: no divisor in 2..15 (checked below), so (1, 229)
        assert all(229 % p for p in range(2, 16))
        assert squarefree_decompose(229) == (1, 229)
        # 1264 = 2^4 * 79 by trial factorization, so u = 4, d = 79
        assert 1264 == 2**4 * 79 and all(79 % p for p in range(2, 9))
        assert squarefree_decompose(1264) == (4, 79)
        assert squarefree_decompose(1) == (1, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_decompose(0)

    def test_exhaustive_to_1e6(self):
        flags = squarefree_sieve(1_000_000)
        for t in range(1, 1_000_001):
            u, d = squarefree_decompose(t)
            assert u**2 * d == t
            assert flags[d]

    def test_large_values(self):
        # constructed inputs with known decomposition
        assert squarefree_decompose(10**12) == (10**6, 1)
        big_prime = 999_999_999_989
        assert squarefree_decompose(4 * big_prime) == (2, big_prime)

    @settings(deadline=None, max_examples=200)
    @given(
        st.dictionaries(
            st.sampled_from(_PRIMES), st.integers(min_value=1, max_value=5), max_size=6
        )
    )
    def test_recovers_constructed_parts(self, exponents):
        # t = u0^2 * d0 from distinct primes: u0 gets p^(e // 2), d0 gets p^(e % 2)
        u0 = math.prod(p ** (e // 2) for p, e in exponents.items())
        d0 = math.prod(p ** (e % 2) for p, e in exponents.items())
        assert squarefree_decompose(u0 * u0 * d0) == (u0, d0)

    def test_is_squarefree(self):
        flags = squarefree_sieve(1_000_000)
        for t in range(1, 1_000_001):
            assert is_squarefree(t) == bool(flags[t])

    def test_is_squarefree_zero_rejected(self):
        with pytest.raises(ValueError):
            is_squarefree(0)

    def test_primes_at_the_small_prime_bound(self):
        # 1021 is the last prime below 2^10 = 1024, 1031 and 1033 the first
        # two above it, so 1021 comes out by gcds (for a t of 28 bits or
        # more) and 1031, 1033 stay in the cofactor
        assert all(p % q for p in (1021, 1031, 1033) for q in range(2, 33))
        cases = {
            1021**2: (1021, 1),
            1031**2: (1031, 1),
            1031**2 * 1033: (1031, 1033),
            1021 * 1031: (1, 1021 * 1031),
            1021**3 * 1031**3: (1021 * 1031, 1021 * 1031),
        }
        for t, parts in cases.items():
            assert squarefree_decompose(t) == parts, t
            assert is_squarefree(t) == (parts[0] == 1), t

    def test_is_squarefree_at_the_isqrt_bound(self):
        # a cofactor free of the primes below 1024 is settled by one isqrt
        # below 1024^3 = 2^30 and by trial division above it; 32749 and
        # 32771 are the primes next to sqrt(2^30) = 32768
        assert all(p % q for p in (1031, 1033, 1039, 32749, 32771) for q in range(2, 182))
        below = [1031**2, 1031 * 1033, 32749**2]
        above = [1031**3, 1031 * 1033 * 1039, 32771**2]
        assert max(below) < 2**30 < min(above)
        for t in below + above + [2 * 3 * t for t in below + above]:
            assert is_squarefree(t) == (squarefree_decompose(t)[0] == 1), t
        assert [is_squarefree(t) for t in below] == [False, True, False]
        assert [is_squarefree(t) for t in above] == [False, True, False]

    def test_cofactor_above_the_trial_division_bound(self):
        # 1031^2 * (10^9 + 7) has no prime factor below 1024 and exceeds
        # 2^30, so only trial division from 1025 upward finds the square
        big_prime = 10**9 + 7
        assert all(big_prime % p for p in range(2, math.isqrt(big_prime) + 1))
        t = 1031**2 * big_prime
        assert squarefree_decompose(t) == (1031, big_prime)
        assert not is_squarefree(t)
        assert is_squarefree(1031 * big_prime)

    def test_every_table_entry_against_trial_division(self):
        # a t of b <= 30 bits takes its gcd against the primes below
        # 2^ceil(b/3), a longer one against those below 2^10; q < q2 are
        # the first primes at or above 2^ceil(b/3), so q^2, q*q2 and q^3
        # leave a cofactor that one isqrt must settle, or from b = 31 on
        # (q^3 above 2^30) the trial division past 2^10
        for b in [*range(1, 32), 40]:
            q, q2 = _primes_from(1 << -(-b // 3), 2)
            for t in (2**b - 1, 2**b, q * q, q * q2, q**3):
                parts = squarefree_parts_by_trial_division(t)
                assert squarefree_decompose(t) == parts, (b, t)
                assert is_squarefree(t) == (parts[0] == 1), (b, t)

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(2**20, 2**34)
        | st.sampled_from(_PRIMES).flatmap(
            lambda q: st.integers(-(-(2**20) // (q * q)), 2**34 // (q * q)).map(lambda s: q * q * s)
        )
    )
    def test_against_trial_division_past_the_table(self, t):
        # t from 21 to 35 bits: the table's upper entries and the fallback
        # to the primes below 2^10 just past it; the second strategy puts
        # a prime square, often one next to a table bound, into t
        parts = squarefree_parts_by_trial_division(t)
        assert squarefree_decompose(t) == parts, t
        assert is_squarefree(t) == (parts[0] == 1), t


class TestCubicRoot:
    def test_examples(self):
        assert cubic_has_integer_root(4, 1) is False  # r in {1,-1}: -2 and 4
        assert cubic_has_integer_root(7, 6) is True  # r = 1: 1 - 7 + 6 = 0
        assert cubic_has_integer_root(1, 1) is False  # r in {1,-1}: 1 and 1

    def test_one_real_root_with_a_negative_root(self):
        # 27n^2 >= 4m^3: one real root, here -2
        assert cubic_has_integer_root(1, 6) is True  # -8 + 2 + 6 = 0
        assert cubic_has_integer_root(2, 4) is True  # -8 + 4 + 4 = 0
        assert cubic_has_integer_root(1, 5) is False
        assert cubic_has_integer_root(2, 5) is False

    def test_large_n_small_m(self):
        # n = y*(y^2 - m) makes -y a root; n - 1 and n + 1 fall strictly
        # between the values at -(y - 1), -y and -(y + 1), and far above
        # any x*(m - x^2) with x^2 < m, so they leave no root
        for m in (1, 2, 3, 7, 100):
            for y in (10**3 + 1, 10**6 + 3, 10**20 + 7):
                n = y * (y * y - m)
                assert cubic_has_integer_root(m, n) is True, (m, y)
                assert cubic_has_integer_root(m, n + 1) is False, (m, y)
                assert cubic_has_integer_root(m, n - 1) is False, (m, y)

    def test_against_divisor_scan(self):
        for m in range(1, 401):
            for n in range(1, 3001):
                assert cubic_has_integer_root(m, n) == cubic_root_by_divisors(m, n), (m, n)

    def test_every_root_next_to_the_root_set_bound(self):
        # below m = 4096 n is looked up in a cached set of positive-root
        # values, from 4096 on compared with each; the n with a root are
        # the x*(m - x^2), x^2 < m, and the y*(y^2 - m), y^2 > m
        for m in (4094, 4095, 4096, 4097, 10**5):
            r = math.isqrt(m - 1)
            ns = {x * (m - x * x) for x in range(1, r + 1)}
            ns |= {y * (y * y - m) for y in range(r + 1, 2 * r)}
            for n in ns:
                assert cubic_has_integer_root(m, n) is True, (m, n)
                for k in (n - 1, n + 1):
                    if k >= 1 and k not in ns:
                        assert cubic_has_integer_root(m, k) == cubic_root_by_divisors(m, k)

    def test_both_root_signs_next_to_the_three_root_bound(self):
        # below m = 4096 an n up to hi = isqrt(4m^3/27) is looked up in a
        # cached set of root values of both signs, and a larger n is
        # scanned for a negative root -y, y*(y^2 - m) = n; 342 and 736
        # are derived_m_max of the sweeps to 10^7 and 10^8
        for m in (1, 2, 3, 4, 5, 7, 342, 736, 737, 4095, 4096):
            hi = math.isqrt(4 * m**3 // 27)
            y = math.isqrt(m) + 1
            while y * (y * y - m) <= hi:
                y += 1
            # y - 1 and y give the largest negative-root value up to hi
            # (or a value <= 0 when there is none) and the first above it
            ns = set(range(hi - 2, hi + 3))
            for v in ((y - 1) * ((y - 1) ** 2 - m), y * (y * y - m)):
                ns |= {v - 1, v, v + 1}
            for n in sorted(k for k in ns if k >= 1):
                assert cubic_has_integer_root(m, n) == cubic_root_by_divisors(m, n), (m, n)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.integers(2, 5000) | st.integers(2, 10**5), min_size=1, max_size=3), st.data())
    def test_against_divisor_scan_with_repeated_m(self, pool, data):
        # each m of the pool is drawn again and again, interleaved with the
        # others, so the per-m root sets are both built and looked up (an
        # m >= 4096 keeps no set); n lies inside the sweep's row bound
        # 27n^2 < 4m^3 or above it, and is often a root value or next to one
        for _ in range(8):
            m = data.draw(st.sampled_from(pool))
            n_hi = math.isqrt((4 * m**3 - 1) // 27)
            r = math.isqrt(m - 1)
            x = data.draw(st.sampled_from([1, r]) | st.integers(1, r))
            y = data.draw(st.sampled_from([r + 1]) | st.integers(r + 1, 2 * r + 10))
            n = data.draw(
                st.integers(1, n_hi)
                | st.integers(n_hi + 1, 4 * n_hi)
                | st.sampled_from([x * (m - x * x), y * (y * y - m)]).flatmap(
                    lambda v: st.sampled_from([v - 1, v, v + 1])
                )
            )
            if n >= 1:
                assert cubic_has_integer_root(m, n) == cubic_root_by_divisors(m, n), (m, n)

    def test_against_full_scan(self):
        # oracle: any root r of X^3 - mX + n with n >= 1 satisfies |r| <= n,
        # so scanning the whole interval is complete
        for m in range(1, 61):
            for n in range(1, 61):
                brute = any(
                    r * r * r - m * r + n == 0 for r in range(-n, n + 1)
                )
                assert cubic_has_integer_root(m, n) == brute


class TestMod3Shortcut:
    def test_examples(self):
        assert mod3_shortcut_no_root(4, 1) is True
        assert mod3_shortcut_no_root(5, 1) is False  # m - 1 = 4 not divisible by 3
        assert mod3_shortcut_no_root(7, 3) is False  # 3 | n

    def test_sound_never_complete(self):
        # soundness over the full stated box: shortcut true forces rootless
        for m in range(1, 501):
            for n in range(1, 501):
                if mod3_shortcut_no_root(m, n):
                    assert not cubic_has_integer_root(m, n)
        # incompleteness: a rootless pair the shortcut misses
        assert not cubic_has_integer_root(5, 3) and not mod3_shortcut_no_root(5, 3)
