"""Exact integer kernels shared by the sieve and the class-number oracles.

Everything here is pure integer arithmetic on value inputs; no floats leak
into results, and every function is safe to call from concurrent workers.
The one state is `cubic_has_integer_root`'s cache of a root set per m: it
lives in each process (a pool worker fills its own), and `lru_cache` keeps
calls from several threads safe.
"""

from __future__ import annotations

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


# The product of the primes below _SMALL, so gcd(t, _SMALL_PRIMORIAL) is the
# product of the small primes dividing t; a cofactor free of them and below
# _SMALL^3 has at most two prime factors.
_SMALL = 1000
_SMALL_CUBE = _SMALL**3
_SMALL_PRIMORIAL = math.prod(primes_upto(_SMALL - 1))


def _split_large(c: int) -> tuple[int, int]:
    """(u, d) with c = u^2 * d and d squarefree, for c with no prime factor
    below _SMALL.

    Trial-divides from _SMALL + 1 while p^3 <= c, which never happens below
    _SMALL^3; the cofactor left has at most two prime factors, so it is
    squarefree unless it is a perfect square (detected exactly by isqrt).
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
    product of the small primes dividing t and g_{k+1} = gcd(t / (g_1 ...
    g_k), g_k), g_k is the product of those whose exponent is at least k,
    so u takes g_2 * g_4 * ... and d takes g_1/g_2 * g_3/g_4 * ...  The
    cofactor left goes to _split_large.
    """
    if t < 1:
        raise ValueError("squarefree_decompose requires t >= 1")
    g = math.gcd(t, _SMALL_PRIMORIAL)
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

    With g the product of the small primes dividing t, no small prime
    divides t twice iff gcd(t / g, g) = 1, and then the cofactor t / g is
    free of small primes.  Below _SMALL^3 it has at most two prime
    factors, so it is squarefree unless it is a prime squared, which one
    isqrt detects; a larger cofactor goes to _split_large.
    """
    if t < 1:
        raise ValueError("is_squarefree requires t >= 1")
    g = math.gcd(t, _SMALL_PRIMORIAL)
    c = t // g
    if math.gcd(c, g) != 1:
        return False
    if c < _SMALL_CUBE:
        return c == 1 or math.isqrt(c) ** 2 != c
    return _split_large(c)[0] == 1


# The m below which cubic_has_integer_root keeps a set of positive-root
# values per m, one set each: the m <= 3,420 of a sweep to X = 10^10 are
# all in, and no set has more than 63 elements.
_ROOT_SET_M = 4096


@functools.lru_cache(maxsize=_ROOT_SET_M)
def _positive_root_ns(m: int) -> frozenset[int]:
    """The x*(m - x^2) for 1 <= x <= isqrt(m - 1), the n >= 1 for which
    X^3 - m*X + n has a positive root."""
    return frozenset([x * (m - x * x) for x in range(1, math.isqrt(m - 1) + 1)])


def cubic_has_integer_root(m: int, n: int) -> bool:
    """True iff X^3 - m*X + n has an integer root, for m, n >= 1.

    A root x gives n = x*(m - x^2).  A positive root has x^2 < m, so
    x <= isqrt(m - 1) covers them: below _ROOT_SET_M n is looked up in
    their set for m, and above it compared with each, so a large m holds
    no memory.  A negative root -y has y^2 > m and
    n = y*(y^2 - m) < y^3, and y*(y^2 - m) grows with y there, so the
    scan steps up from max(isqrt(m - 1) + 1, icbrt(n)) while the value
    is below n, with no divisor list.
    (icbrt is only taken when n > (isqrt(m - 1) + 1)^3, which no row of
    the sweep reaches, since 27n^2 < 4m^3 there.)
    """
    r = math.isqrt(m - 1)
    if m < _ROOT_SET_M:
        if n in _positive_root_ns(m):
            return True
    elif any(x * (m - x * x) == n for x in range(1, r + 1)):
        return True
    y = r + 1
    if y * y * y < n:
        y = icbrt(n)
    while y * (y * y - m) < n:
        y += 1
    return y * (y * y - m) == n
