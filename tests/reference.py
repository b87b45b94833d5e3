"""Reference code the tests check the package against.

Nothing here runs on a CLI path.  The form API (QuadraticForm,
is_reduced_indefinite, rho, reduced_indefinite_forms) spells out the
reduction step on signed forms that class_number_real_narrow takes on
the unsigned forms (|a|, b, |c|), and lists the reduced forms that the
oracle only counts.
The analytic estimate (a truncated Kronecker-character L-sum combined
with a continued-fraction regulator) and the widened-window recount are
independent routes to the class numbers, and mod3_shortcut_no_root is
the sufficient condition for rootlessness behind --shortcut-only;
cubic_root_by_divisors is the divisor scan that cubic_has_integer_root
replaced, squarefree_sieve marks the squarefree integers by sieving,
squarefree_parts_by_trial_division splits one integer by trial
division, and chunks_by_prefix is the prefix-sum split that the pool's
closed-form chunking must reproduce.
Import with `from reference import ...`: pytest puts tests/ on sys.path.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple

from ccsieve.classnum import (
    _require_fundamental,
    _root_table,
    is_fundamental_discriminant,
)


def squarefree_sieve(n: int) -> bytearray:
    """Oracle: squarefree flags for 0..n by marking multiples of k^2."""
    flags = bytearray([1]) * (n + 1)
    k = 2
    while k * k <= n:
        step = k * k
        flags[step::step] = bytearray(len(range(step, n + 1, step)))
        k += 1
    return flags


def squarefree_parts_by_trial_division(t: int) -> tuple[int, int]:
    """Oracle: (u, d) with t = u^2 * d and d squarefree, t >= 1, by trial
    division with every k >= 2 while k^2 is at most what is left."""
    u = d = 1
    k = 2
    while k * k <= t:
        e = 0
        while t % k == 0:
            t //= k
            e += 1
        u *= k ** (e // 2)
        d *= k ** (e % 2)
        k += 1
    return u, d * t


def fundamental_range(lo: int, hi: int) -> list[int]:
    """Every fundamental discriminant D with lo <= D <= hi, ascending.

    No fundamental discriminant is a perfect square, so every positive one
    is a valid input of the real oracle.
    """
    return [D for D in range(lo, hi + 1) if is_fundamental_discriminant(D)]


class QuadraticForm(NamedTuple):
    """Integral binary quadratic form a*x^2 + b*x*y + c*y^2."""

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def imaginary_count_widened(D: int) -> int:
    """Recount reduced forms from a deliberately over-wide (b, a) window.

    Enumerates signed b and divisors a, each range 3 past its bound, then
    filters with the literal reduced-form predicate.  Must agree with
    class_number_imaginary; exercises completeness and non-overlap of the
    counting windows.
    """
    _require_fundamental(D, -1)
    n = -D
    bmax = math.isqrt(n // 3) + 3
    count = 0
    for b in range(-bmax, bmax + 1):
        if (b * b + n) % 4:
            continue
        ac = (b * b + n) // 4
        for a in range(1, math.isqrt(ac) + 4):
            if ac % a:
                continue
            c = ac // a
            if not abs(b) <= a <= c:
                continue
            if b < 0 and (abs(b) == a or a == c):
                continue
            count += 1
    return count


def is_reduced_indefinite(form: QuadraticForm, D: int) -> bool:
    """Reduced test for indefinite forms: 0 < b < sqrt(D) and
    sqrt(D) - b < 2|a| < sqrt(D) + b, evaluated in exact arithmetic."""
    a, b, c = form
    if form.discriminant() != D:
        return False
    s = math.isqrt(D)
    if not 0 < b <= s:
        return False
    two_a = 2 * abs(a)
    # sqrt(D) is irrational here, so strict float comparisons become
    # s - b + 1 <= 2|a| <= s + b on integers.
    return s - b + 1 <= two_a <= s + b


def rho(form: QuadraticForm, D: int) -> QuadraticForm:
    """Reduction step on reduced indefinite forms of discriminant D.

    Maps (a, b, c) to (c, r, (r^2 - D)/(4c)) where r == -b (mod 2|c|) is
    the unique representative with sqrt(D) - 2|c| < r < sqrt(D).
    """
    _a, b, c = form
    s = math.isqrt(D)
    two_c = 2 * abs(c)
    r = s - (s + b) % two_c
    return QuadraticForm(c, r, (r * r - D) // (4 * c))


def _positive_reduced_forms(D: int) -> list[tuple[int, int]]:
    """(a, b) of every reduced indefinite form (a, b, c) of discriminant D
    with a > 0.

    For each a <= s = isqrt(D), each root class r of b^2 == D (mod 4a)
    has exactly one representative b = s - (s - r) % 2a in the window
    (s - 2a, s]; the form is reduced when b > 0 and 2a <= s + b.  That is
    about sqrt(D) table lookups per call.
    """
    s = math.isqrt(D)
    offsets, roots = _root_table(s)
    out: list[tuple[int, int]] = []
    for a in range(1, s + 1):
        offs = offsets[a]
        k = D % (4 * a)
        lo, hi = offs[k], offs[k + 1]
        if lo == hi:
            continue
        two_a = 2 * a
        b_min = max(1, two_a - s)
        for r in roots[a][lo:hi]:
            b = s - (s - r) % two_a
            if b >= b_min:
                out.append((a, b))
    return out


def reduced_indefinite_forms(D: int) -> list[QuadraticForm]:
    """All reduced indefinite forms of fundamental discriminant D, sorted."""
    _require_fundamental(D, 1)
    forms = []
    for a, b in _positive_reduced_forms(D):
        c = (b * b - D) // (4 * a)
        forms.append(QuadraticForm(a, b, c))
        forms.append(QuadraticForm(-a, b, -c))
    forms.sort()
    return forms


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n): the Jacobi symbol extended to even and
    nonpositive lower arguments by the standard rules at 2, -1 and 0."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker(a, -n)
    t = 1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        # (2|a) for odd a, by a mod 8
        two_sym = 1 if a % 8 in (1, 7) else -1
        while n % 2 == 0:
            n //= 2
            t *= two_sym
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def cf_regulator(D: int) -> float:
    """Regulator log(eps) of the quadratic order of discriminant D > 0.

    Runs the exact integer (P, Q) recurrence for the purely periodic
    continued fraction of (P0 + sqrt(D))/2, with P0 the largest integer
    below sqrt(D) of the parity of D.  The fundamental unit is the product
    of the complete quotients over one period, detected by first
    repetition of the (P, Q) state; the product is accumulated as a sum of
    logs so the unit never has to be held as an integer.
    """
    _require_fundamental(D, 1)
    s = math.isqrt(D)
    p0 = s if (s & 1) == (D & 1) else s - 1
    q0 = 2
    sqrt_d = math.sqrt(D)
    p, q = p0, q0
    reg = 0.0
    while True:
        reg += math.log((p + sqrt_d) / q)
        a = (p + s) // q
        p = a * q - p
        q = (D - p * p) // q
        if (p, q) == (p0, q0):
            return reg


@dataclass(frozen=True)
class AnalyticEstimate:
    """sqrt(D) * L(1, chi_D) / (2 * regulator), which targets the wide
    class number h; the cycle count h+ is h or 2h."""

    value: float
    tail_bound: float
    unstable: bool


def analytic_estimate_real(D: int) -> AnalyticEstimate:
    """Analytic class-number estimate for fundamental D > 0.

    L(1, chi_D) is approximated by the character sum over k <= 10^4;
    the regulator comes from cf_regulator.  tail_bound is the
    Polya-Vinogradov bound on the class-number error induced by the
    truncation; when it exceeds 0.25 the estimate cannot separate adjacent
    integers and the result is flagged unstable rather than rejected.
    """
    _require_fundamental(D, 1)
    cutoff = 10_000
    l_sum = 0.0
    for k in range(1, cutoff + 1):
        chi = kronecker(D, k)
        if chi:
            l_sum += chi / k
    reg = cf_regulator(D)
    sqrt_d = math.sqrt(D)
    l_tail = sqrt_d * math.log(D) / cutoff
    h_err = sqrt_d * l_tail / (2.0 * reg)
    return AnalyticEstimate(
        value=sqrt_d * l_sum / (2.0 * reg),
        tail_bound=h_err,
        unstable=h_err > 0.25,
    )


def mod3_shortcut_no_root(m: int, n: int) -> bool:
    """Sound fast path for the rootlessness of X^3 - m*X + n.

    When m == 1 (mod 3) and 3 does not divide n, the cubic has no root
    mod 3 (X^3 == X there, so it reduces to n != 0), hence no integer
    root.  A False result decides nothing.
    """
    return m % 3 == 1 and n % 3 != 0


@functools.cache
def _cubic_root_ms(n: int) -> frozenset[int]:
    """The m >= 1 for which X^3 - m*X + n has an integer root, n >= 1.

    Any integer root of a monic integer polynomial divides the constant
    term, so the roots are r or -r for the divisors r of n, and
    r^3 - m*r + n = 0 or -r^3 + m*r + n = 0 gives m = r^2 + n/r or
    m = r^2 - n/r.
    """
    ms = set()
    for x in range(1, math.isqrt(n) + 1):
        if n % x == 0:
            for r in (x, n // x):
                ms.add(r * r + n // r)
                ms.add(r * r - n // r)
    return frozenset(m for m in ms if m >= 1)


def cubic_root_by_divisors(m: int, n: int) -> bool:
    """True iff X^3 - m*X + n has an integer root, for m, n >= 1, by the
    divisor scan over n (cached per n)."""
    return m in _cubic_root_ms(n)


def chunks_by_prefix(
    lo: int, hi: int, parts: int, cost: Callable[[int], int]
) -> list[tuple[int, int]]:
    """Split [lo, hi] into at most `parts` consecutive ranges of about equal
    total cost from the list of prefix sums of cost(lo), ..., cost(hi):
    the j-th split point is the first index whose prefix reaches j/parts
    of the total, rounded up."""
    if hi < lo:
        return []
    total = list(accumulate(map(cost, range(lo, hi + 1))))
    chunks = []
    a = lo
    for j in range(1, parts):
        b = lo + bisect_left(total, -(-total[-1] * j // parts))
        if a <= b < hi:
            chunks.append((a, b))
            a = b + 1
    chunks.append((a, hi))
    return chunks
