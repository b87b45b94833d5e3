"""The row sieve of the Honda sweep against the per-pair loop it replaced.

The reference below splits 4m^3 - 27n^2 for every pair of the box with
`squarefree_decompose` and tests rootlessness with the divisor scan
`reference.cubic_root_by_divisors`.  It shares no code with the sieve's
residue classes, root tables or `intmath.cubic_root_values`, the row
bound and rooted-n set that the sweep shares with `cubic_has_integer_root`,
so equal row lists, sorted by d, check the whole sweep of
`enumerate_discriminants`, including the lex-least tie-break.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsieve.honda import EnumConfig, derived_m_max, enumerate_discriminants
from ccsieve.intmath import cubic_has_integer_root, cubic_root_values, squarefree_decompose
from reference import cubic_root_by_divisors


def reference_sweep_m_range(
    X: int, m_hi: int, shortcut_only: bool
) -> dict[int, tuple[int, int, int]]:
    """Sweep m in [2, m_hi], keeping the lex-least (m, n, u) per d <= X."""
    found: dict[int, tuple[int, int, int]] = {}
    for m in range(2, m_hi + 1):
        t4 = 4 * m * m * m
        n_hi = math.isqrt((t4 - 1) // 27)
        for n in range(1, n_hi + 1):
            if shortcut_only and not (m % 3 == 1 and n % 3):
                continue
            if math.gcd(m, 3 * n) != 1:
                continue
            t = t4 - 27 * n * n
            if t < 2:
                continue
            u, d = squarefree_decompose(t)
            if d < 2 or d > X:
                continue
            if not shortcut_only and cubic_root_by_divisors(m, n):
                continue
            key = (m, n, u)
            prev = found.get(d)
            if prev is None or key < prev:
                found[d] = key
    return found


def as_rows(found: dict[int, tuple[int, int, int]]) -> list[tuple[int, int, int, int]]:
    """The sweep's shape: the witness rows (d, m, n, u), sorted by d."""
    return sorted((d, *key) for d, key in found.items())


@pytest.mark.parametrize("shortcut_only", [False, True])
@pytest.mark.parametrize("X", [10**3, 10**5, 10**6])
def test_full_box_matches_reference(X, shortcut_only):
    got = enumerate_discriminants(X, EnumConfig(x_cap=X, shortcut_only=shortcut_only))
    m_hi = derived_m_max(X, EnumConfig())
    assert got == as_rows(reference_sweep_m_range(X, m_hi, shortcut_only))
    assert got  # both families are nonempty at these bounds


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=2, max_value=300))
def test_excluded_root_set_matches_divisor_scan(m):
    # for 3 | m, a row the sweep skips, hi may pass the row bound by one
    hi = math.isqrt(4 * m**3 // 27)
    if m % 3:
        assert hi == math.isqrt((4 * m**3 - 1) // 27)
    expected = {n for n in range(1, hi + 1) if cubic_root_by_divisors(m, n)}
    assert cubic_root_values(m) == (hi, expected)


def test_root_values_bound_every_swept_row():
    # the sweep's row m ends at the largest n with 27n^2 < 4m^3 and drops
    # only n of that row (4095, a multiple of 3, has the same bound); 4095,
    # 4096 and 4097 straddle the m from which cubic_has_integer_root no
    # longer reads the set, and it agrees with the set there
    for m in [*(m for m in range(2, 10**4 + 1) if m % 3), 4095]:
        hi, ns = cubic_root_values(m)
        assert hi == math.isqrt((4 * m**3 - 1) // 27), m
        assert all(1 <= n <= hi for n in ns), m
    for m in (4095, 4096, 4097):
        hi, ns = cubic_root_values(m)
        for n in ns:
            assert cubic_has_integer_root(m, n) is True, (m, n)
            for k in (n - 1, n + 1):
                if 1 <= k <= hi and k not in ns:
                    assert cubic_has_integer_root(m, k) is False, (m, k)
