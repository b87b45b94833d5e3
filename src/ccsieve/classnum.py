"""Class-number oracles for quadratic fields via binary quadratic forms.

Negative discriminants get the exact class number by counting reduced
positive-definite forms.  Positive discriminants get the narrow class
number h+ by counting cycles of reduced indefinite forms under the
reduction step.  Since h+ = h or 2h, the odd parts of h and h+ agree,
so every 3-divisibility question is answered through h+.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Iterator

from .intmath import is_squarefree

# Per discriminant both oracles make about sqrt(|D|) lookups in the
# square-root table (sqrt(|D|/3) on the imaginary side) and count most root
# classes by their size alone: the imaginary one reads the roots only for
# sqrt(|D|)/2 < a <= sqrt(|D|/3), the real one takes one bisection per
# a > sqrt(D)/2.  The real one then takes one double reduction step per
# reduced form with a > 0, of which there are O(sqrt(D) log D) on average,
# and stops once its cycles hold them all.  The shared table is grown
# once to the largest |D| seen: about 6*D bytes for real D and 2*|D| bytes
# for imaginary D, so 60 MB at this cap.  Past it the oracle stops being a
# desk-scale tool; the callers in counting stay below it, and the table's
# 16-bit entries could not go past a = 32767 (D about 10^9) at all.
PRACTICAL_DISCRIMINANT_CAP = 10_000_000


def is_fundamental_discriminant(D: int) -> bool:
    """True iff D is the discriminant of a quadratic field.

    Either D == 1 (mod 4) and squarefree, or D == 0 (mod 4) with D/4
    squarefree and congruent to 2 or 3 mod 4.  D in {0, 1} is excluded.
    """
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return is_squarefree(abs(D))
    if D % 4 == 0:
        q = D // 4
        return q % 4 in (2, 3) and is_squarefree(abs(q))
    return False


def field_discriminant(d: int) -> int:
    """Discriminant of Q(sqrt(d)), of either sign: d if d == 1 (mod 4), else
    4d.  It checks nothing; for d of 0, 1 or not squarefree the result is
    not a fundamental discriminant, so the oracles reject it."""
    return d if d % 4 == 1 else 4 * d


def _require_fundamental(D: int, sign: int) -> None:
    """Reject D unless it is a fundamental discriminant of the given sign."""
    if D * sign <= 0:
        raise ValueError(f"D={D} must be {'positive' if sign > 0 else 'negative'}")
    if not is_fundamental_discriminant(D):
        raise ValueError(f"D={D} is not a fundamental discriminant")


# ---------------------------------------------------------------------------
# Square-root table: every b in [0, 2a) grouped by b^2 mod 4a.
# ---------------------------------------------------------------------------

# CSR layout, indexed by a (entry 0 is unused): the roots b of
# b^2 == k (mod 4a) are _ROOTS[a][_ROOT_OFFSETS[a][k]:_ROOT_OFFSETS[a][k + 1]],
# ascending.  Since (b + 2a)^2 == b^2 (mod 4a), one root per class mod 2a
# covers every b.  Grown on demand to the largest a asked for; up to a_max it
# holds about 6*a_max^2 bytes and costs O(a_max^2) to build.
_ROOT_OFFSETS: list[array] = [array("H")]
_ROOTS: list[array] = [array("H")]


def _root_table(a_max: int) -> tuple[list[array], list[array]]:
    """The (offsets, roots) table, grown to cover every a <= a_max."""
    for a in range(len(_ROOTS), a_max + 1):
        modulus = 4 * a
        squares = [b * b % modulus for b in range(2 * a)]
        counts = [0] * (modulus + 1)
        for k in squares:
            counts[k + 1] += 1
        _ROOT_OFFSETS.append(array("H", accumulate(counts)))
        _ROOTS.append(array("H", sorted(range(2 * a), key=squares.__getitem__)))
    return _ROOT_OFFSETS, _ROOTS


# ---------------------------------------------------------------------------
# Imaginary side: exact count of reduced positive-definite forms.
# ---------------------------------------------------------------------------


def class_number_imaginary(D: int) -> int:
    """Class number of the imaginary quadratic field of discriminant D < 0.

    Counts reduced positive-definite forms (a, b, c): |b| <= a <= c with
    b >= 0 whenever |b| = a or a = c.  Loops over a <= sqrt(|D|/3) and
    takes the b in (-a, a] with b^2 == D (mod 4a) from the square-root
    table, keeping those with c = (b^2 - D)/(4a) >= a.  While 4a^2 <= |D|
    every root gives c >= a, so the count adds the size of its root class
    without reading it; only the a in (sqrt(|D|)/2, sqrt(|D|/3)] walk their
    roots.  That is about sqrt(|D|/3) table lookups per call; the table
    itself costs O(|D|/3) to build once, shared by every later call with a
    smaller |D|.
    """
    _require_fundamental(D, -1)
    n = -D
    a_max = math.isqrt(n // 3)
    a_all = math.isqrt(n) // 2  # the largest a with 4a^2 <= n
    offsets, roots = _root_table(a_max)
    count = 0
    for a in range(1, a_all + 1):
        offs = offsets[a]
        k = D % (4 * a)
        count += offs[k + 1] - offs[k]
    for a in range(a_all + 1, a_max + 1):
        offs = offsets[a]
        k = D % (4 * a)
        lo, hi = offs[k], offs[k + 1]
        if lo == hi:
            continue
        four_a_sq = 4 * a * a
        for r in roots[a][lo:hi]:
            b = r if r <= a else r - 2 * a
            # c >= a, i.e. b^2 + n >= 4a^2; when c == a only b >= 0 is reduced
            t = b * b + n - four_a_sq
            if t > 0 or (t == 0 and b >= 0):
                count += 1
    return count


# ---------------------------------------------------------------------------
# Real side: narrow class number as the cycle count of reduced forms.
# ---------------------------------------------------------------------------

# The reduced indefinite forms (a, b, c) of discriminant D with a > 0 are,
# for each a <= s = isqrt(D), the root classes r of b^2 == D (mod 4a), each
# with its one representative b = s - (s - r) % 2a in the window
# (s - 2a, s], kept when b > 0 and 2a <= s + b.  For 2a <= s every class
# qualifies; for 2a > s the window's nonnegative part is [0, s], so b = r
# and the forms are the roots in [2a - s, s].


def _reduced_form_count(D: int, s: int) -> int:
    """Number of reduced indefinite forms of discriminant D with a > 0,
    s = isqrt(D): one table lookup and at most one bisection per a."""
    offsets, roots = _root_table(s)
    count = 0
    for a in range(1, s // 2 + 1):
        offs = offsets[a]
        k = D % (4 * a)
        count += offs[k + 1] - offs[k]
    for a in range(s // 2 + 1, s + 1):
        offs = offsets[a]
        k = D % (4 * a)
        lo, hi = offs[k], offs[k + 1]
        if lo < hi:
            rts = roots[a]
            count += bisect_right(rts, s, lo, hi) - bisect_left(rts, 2 * a - s, lo, hi)
    return count


def _reduced_forms(D: int, s: int) -> Iterator[tuple[int, int]]:
    """(a, b) of the reduced indefinite forms of discriminant D with a > 0,
    in ascending a, generated lazily."""
    offsets, roots = _root_table(s)
    for a in range(1, s + 1):
        offs = offsets[a]
        k = D % (4 * a)
        two_a = 2 * a
        b_min = two_a - s
        for r in roots[a][offs[k] : offs[k + 1]]:
            b = s - (s - r) % two_a
            if b >= b_min:
                yield a, b


def class_number_real_narrow(D: int) -> int:
    """Narrow class number h+ of the real quadratic field of discriminant D.

    Equals the number of reduction cycles partitioning the reduced
    indefinite forms of discriminant D.  The reduction step flips the sign
    of the leading coefficient, so a cycle of length 2L holds exactly L
    forms with a > 0 and they make up one orbit of the double step; the
    count is taken over those orbits.  The forms are counted first, in
    about sqrt(D) table lookups, then the walk takes its starts from them
    in ascending a and stops as soon as its cycles hold every counted
    form, so it visits each form once and never holds a list of them.
    A cycle that does not close within the count, or cycles that
    do not cover it, raise ArithmeticError.
    """
    _require_fundamental(D, 1)
    s = math.isqrt(D)
    total = _reduced_form_count(D, s)
    width = s + 1  # a form (a, b) has the key a * width + b, 0 < b <= s
    seen: set[int] = set()
    cycles = 0
    for a, b in _reduced_forms(D, s):
        start = a * width + b
        if start in seen:
            continue
        cycles += 1
        key = start
        for _ in range(total - len(seen)):
            seen.add(key)
            # two steps: (a, b, c) -> (c, r, a1) -> (a1, b1, c1), with c < 0 < a1
            c = (b * b - D) // (4 * a)
            r = s - (s + b) % (-2 * c)
            a = (r * r - D) // (4 * c)
            b = s - (s + r) % (2 * a)
            key = a * width + b
            if key == start:
                break
        else:
            raise ArithmeticError(f"reduction cycle failed to close for D={D}")
        if len(seen) == total:
            return cycles
    raise ArithmeticError(f"reduction cycles do not cover the {total} reduced forms of D={D}")


def three_divides_real_class_number(d: int) -> bool:
    """Whether 3 divides the class number of Q(sqrt(d)), d squarefree >= 2.

    Goes through the narrow class number of the field's discriminant; h+ is
    h or 2h, so the odd parts coincide and 3|h iff 3|h+.  Any other d
    raises ValueError.
    """
    return class_number_real_narrow(field_discriminant(d)) % 3 == 0
