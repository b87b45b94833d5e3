"""Exact integer kernels shared by the sieve and the class-number oracles.

Everything here is pure integer arithmetic on value inputs; no floats leak
into results, and every function is safe to call from concurrent workers.
"""

from __future__ import annotations

import math
from typing import NamedTuple


def icbrt(t: int) -> int:
    """Floor cube root of a nonnegative integer, exactly.

    Integer Newton iteration from an over-estimate, then an exact fix-up;
    no float precision enters, so arbitrarily large t is fine.
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
    while r * r * r > t:
        r -= 1
    while (r + 1) ** 3 <= t:
        r += 1
    return r


class SquarefreeDecomposition(NamedTuple):
    """t written as square_part**2 * squarefree_part, uniquely."""

    square_part: int
    squarefree_part: int


def squarefree_decompose(t: int) -> SquarefreeDecomposition:
    """Split t >= 1 as t = u^2 * d with d squarefree.

    Trial-divides while p^3 <= cofactor; the surviving cofactor then has at
    most two prime factors, so it is squarefree unless it is a perfect
    square (detected exactly by isqrt).
    """
    if t < 1:
        raise ValueError("squarefree_decompose requires t >= 1")
    u = 1
    d = 1
    c = t
    p = 2
    while p * p * p <= c:
        if c % p == 0:
            e = 0
            while c % p == 0:
                c //= p
                e += 1
            if e & 1:
                d *= p
            u *= p ** (e >> 1)
        p += 1 if p == 2 else 2
    r = math.isqrt(c)
    if r * r == c:
        u *= r
    else:
        d *= c
    return SquarefreeDecomposition(u, d)


def is_squarefree(t: int) -> bool:
    """True iff no prime square divides t (t >= 1)."""
    return squarefree_decompose(t).square_part == 1


def _positive_divisors(n: int) -> list[int]:
    divs = []
    r = math.isqrt(n)
    for x in range(1, r + 1):
        if n % x == 0:
            divs.append(x)
            y = n // x
            if y != x:
                divs.append(y)
    return divs


def cubic_has_integer_root(m: int, n: int) -> bool:
    """True iff X^3 - m*X + n has an integer root, for m, n >= 1.

    Any integer root of a monic integer polynomial divides the constant
    term, so only divisors of n (both signs) need testing.
    """
    for r in _positive_divisors(n):
        if r * r * r - m * r + n == 0:
            return True
        if -(r * r * r) + m * r + n == 0:
            return True
    return False


def fundamental_discriminant(d: int) -> int:
    """Discriminant of Q(sqrt(d)) for squarefree d, positive or negative.

    Returns d when d == 1 (mod 4), else 4*d; the result is always
    0 or 1 mod 4.
    """
    if d in (0, 1):
        raise ValueError("d must be a squarefree integer other than 0 and 1")
    if not is_squarefree(abs(d)):
        raise ValueError(f"d={d} is not squarefree")
    return d if d % 4 == 1 else 4 * d
