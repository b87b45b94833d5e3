"""Exact integer kernels shared by the sieve and the class-number oracles.

Everything here is pure integer arithmetic on value inputs; no floats leak
into results, and every function is safe to call from concurrent workers.
The squarefree kernels take one gcd against a product of small primes
sized to t's bit length, from a constant table built at import.  The one
state is `cubic_has_integer_root`'s cache of `cubic_root_values` per m:
it lives in each process (a pool worker fills its own), and `lru_cache`
keeps calls from several threads safe.
"""

from __future__ import annotations

import bisect
import functools
import math


def icbrt(t: int) -> int:
    """Floor cube root of a nonnegative integer, exactly.

    Integer Newton r -> (2r + t // r^2) // 3 from 2^ceil(bits/3) stops on
    c = floor(cbrt(t)): by AM-GM every iterate is at least c; while r > c,
    r^3 > t makes the iterates fall strictly, and at r = c, t // c^2 >= c
    gives nr >= r.  No float enters, so arbitrarily large t is fine.
    """
    if t < 0:
        raise ValueError("icbrt requires a nonnegative integer")
    if t == 0:
        return 0
    r = 1 << -(-t.bit_length() // 3)  # 2^ceil(bits/3) >= cbrt(t)
    while True:
        nr = (2 * r + t // (r * r)) // 3
        if nr >= r:
            break
        r = nr
    return r


def primes_upto(n: int) -> list[int]:
    """The primes p <= n, by the sieve of Eratosthenes."""
    is_prime = bytearray([1]) * (n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(2, n + 1) if is_prime[p]]


# The primes below _SMALL = 2^10, and for each bit length b <= 30 the
# product of those below 2^ceil(b/3), so gcd(t, _PRIMORIALS[b]) is the
# product of those primes dividing a t of b bits.  The cofactor left is
# below 2^b and its prime factors are at least 2^ceil(b/3), so it has at
# most two.  A longer t takes the last entry, the primes below 2^10;
# its cofactor, if below _SMALL^3 = 2^30, has at most two as well.
_SMALL_BITS = 10
_SMALL = 1 << _SMALL_BITS
_CUBE_BITS = 3 * _SMALL_BITS
_SMALL_CUBE = 1 << _CUBE_BITS
_SMALL_PRIMES = primes_upto(_SMALL)
_PRIMORIALS = [
    math.prod(_SMALL_PRIMES[: bisect.bisect_left(_SMALL_PRIMES, 1 << -(-b // 3))])
    for b in range(_CUBE_BITS + 1)
]


def _split_large(c: int) -> tuple[int, int]:
    """(u, d) with c = u^2 * d and d squarefree, for c whose prime factors
    p below _SMALL all have p^3 > c.

    Trial-divides from _SMALL + 1 while p^3 <= c, which never happens below
    _SMALL^3; the cofactor left has no prime factor p with p^3 <= c, so at
    most two, and it is squarefree unless it is a perfect square (detected
    exactly by isqrt).
    """
    u = d = 1
    p = _SMALL + 1
    while p * p * p <= c:
        if c % p == 0:
            e = 0
            while c % p == 0:
                c //= p
                e += 1
            if e & 1:
                d *= p
            u *= p ** (e >> 1)
        p += 2
    r = math.isqrt(c)
    if r * r == c:
        return u * r, d
    return u, d * c


def squarefree_decompose(t: int) -> tuple[int, int]:
    """Split t >= 1 as t = u^2 * d with d squarefree; returns (u, d).

    The small primes come out by gcds, not trial division: with g_1 the
    product of the primes of t's table entry that divide t and g_{k+1} =
    gcd(t / (g_1 ... g_k), g_k), g_k is the product of those whose
    exponent is at least k, so u takes g_2 * g_4 * ... and d takes
    g_1/g_2 * g_3/g_4 * ...  The cofactor left goes to _split_large,
    which settles one below 2^30 with one isqrt.
    """
    if t < 1:
        raise ValueError("squarefree_decompose requires t >= 1")
    b = t.bit_length()
    g = math.gcd(t, _PRIMORIALS[b] if b <= _CUBE_BITS else _PRIMORIALS[-1])
    c = t // g
    u = d = 1
    while g > 1:
        h = math.gcd(c, g)
        c //= h
        d *= g // h
        g = math.gcd(c, h)
        c //= g
        u *= h
    cu, cd = _split_large(c)
    return u * cu, d * cd


def is_squarefree(t: int) -> bool:
    """True iff no prime square divides t (t >= 1).

    With g the product of the primes of t's table entry that divide t, no
    such prime divides t twice iff gcd(t / g, g) = 1, and then the
    cofactor t / g is free of them.  Below _SMALL^3 it has at most two
    prime factors, so it is squarefree unless it is a prime squared,
    which one isqrt detects; a larger cofactor (only from a t above 30
    bits) goes to _split_large.
    """
    if t < 1:
        raise ValueError("is_squarefree requires t >= 1")
    b = t.bit_length()
    g = math.gcd(t, _PRIMORIALS[b] if b <= _CUBE_BITS else _PRIMORIALS[-1])
    c = t // g
    if math.gcd(c, g) != 1:
        return False
    if c < _SMALL_CUBE:
        return c == 1 or math.isqrt(c) ** 2 != c
    return _split_large(c)[0] == 1


def cubic_root_values(m: int) -> tuple[int, frozenset[int]]:
    """(hi, the n in [1, hi] for which X^3 - m*X + n has an integer root)
    for m >= 1, with hi = isqrt(4m^3/27).

    A root x gives n = x*(m - x^2).  A positive root has x^2 < m, so
    x <= isqrt(m - 1), and n <= hi, since sqrt(4m^3/27) is the largest
    x*(m - x^2) over the reals.  A negative root -y has y^2 > m and
    n = y*(y^2 - m), which grows with y there; the set takes those up to
    hi.  When 3 does not divide m, 27 does not divide 4m^3, so hi is the
    largest n with 27n^2 < 4m^3: the last n of the Honda sweep's row m.
    """
    hi = math.isqrt(4 * m * m * m // 27)
    ns = [x * (m - x * x) for x in range(1, math.isqrt(m - 1) + 1)]
    y = math.isqrt(m) + 1
    while y * (y * y - m) <= hi:
        ns.append(y * (y * y - m))
        y += 1
    return hi, frozenset(ns)


# cubic_has_integer_root caches cubic_root_values(m) for m below this, at
# most 73 elements a set, which covers the m <= 3,420 of a sweep to 10^10.
# The sweep reads each m once and calls it uncached: sets cached amid its
# rows held 4 MB of the rows' freed memory at X = 10^7.
_ROOT_SET_M = 4096
_cached_root_values = functools.lru_cache(maxsize=_ROOT_SET_M)(cubic_root_values)


def cubic_has_integer_root(m: int, n: int) -> bool:
    """True iff X^3 - m*X + n has an integer root, for m, n >= 1.

    Below _ROOT_SET_M an n <= hi is looked up in cached `cubic_root_values`.
    Above hi only a negative root -y is possible; from _ROOT_SET_M on the
    positive roots x are compared with n one by one, so a large m holds
    no memory.  As n = y*(y^2 - m) < y^3, the scan for -y steps up from
    max(isqrt(m - 1) + 1, icbrt(n)) while y*(y^2 - m) is below n, with
    no divisor list.
    """
    if m < _ROOT_SET_M:
        hi, ns = _cached_root_values(m)
        if n <= hi:
            return n in ns
    elif any(x * (m - x * x) == n for x in range(1, math.isqrt(m - 1) + 1)):
        return True
    y = math.isqrt(m - 1) + 1
    if y * y * y < n:
        y = icbrt(n)
    while y * (y * y - m) < n:
        y += 1
    return y * (y * y - m) == n
