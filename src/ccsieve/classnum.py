"""Class-number oracles for quadratic fields via binary quadratic forms.

Negative discriminants get the exact class number by counting reduced
positive-definite forms.  Positive discriminants get the narrow class
number h+ by counting cycles of reduced indefinite forms under the
reduction step.  Since h+ = h or 2h, the odd parts of h and h+ agree,
so every 3-divisibility question is answered through h+.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import accumulate
from typing import Callable

from .intmath import is_squarefree

# Both oracles start from the number of reduced forms with 4a^2 <= |D|,
# counting each root class of b^2 == D (mod 4a) by its size.  A one-off call
# makes one table lookup per a <= sqrt(|D|)/2; small_form_counts sieves these
# counts for a range of d, one period row per a and class of d, and the sweeps
# in counting pass each count to its oracle call.  The imaginary oracle then
# reads the roots of sqrt(|D|)/2 < a <= sqrt(|D|/3); the real one walks one
# rho-cycle for each cycle and its images, between its two mirror points if it
# has them, in O(sqrt(D) log D) reduction steps on average.  The shared table
# is grown once to the largest |D| seen: to a = sqrt(D)/2, about 1.5*D bytes,
# for real D and to a = sqrt(|D|/3), about 2*|D| bytes, for imaginary D, so
# 20 MB at this cap; the sieve keeps no table of its own.  Past the cap the
# oracle stops being a desk-scale tool; the callers in counting stay below it,
# and the table's 16-bit entries could not go past a = 32767 (D about 10^9)
# at all.
PRACTICAL_DISCRIMINANT_CAP = 10_000_000


def field_discriminant(d: int) -> int:
    """Discriminant of Q(sqrt(d)), of either sign: d if d == 1 (mod 4), else
    4d.  It checks nothing; for d of 0, 1 or not squarefree the result is
    not a fundamental discriminant, so the oracles reject it."""
    return d if d % 4 == 1 else 4 * d


def is_fundamental_discriminant(D: int) -> bool:
    """True iff D is the discriminant of a quadratic field: field_discriminant
    read backwards.  With k = D/4 if 4 | D, else D, that is k squarefree, not
    0 or 1, and field_discriminant(k) == D."""
    k = D // 4 if D % 4 == 0 else D
    return k not in (0, 1) and field_discriminant(k) == D and is_squarefree(abs(k))


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


def _small_form_count(D: int) -> int:
    """Number of roots b in [0, 2a) of b^2 == D (mod 4a), summed over
    1 <= a <= isqrt(|D|)/2: the reduced forms of D with 4a^2 <= |D| and,
    for D > 0, a > 0.  One table lookup per a; no root is read."""
    a_max = math.isqrt(abs(D)) // 2
    offsets, _ = _root_table(a_max)
    count = 0
    for a in range(1, a_max + 1):
        offs = offsets[a]
        k = D % (4 * a)
        count += offs[k + 1] - offs[k]
    return count


def small_form_counts(lo: int, hi: int, period: int, disc: Callable[[int], int]) -> list[int]:
    """_small_form_count(disc(d)) for d in [lo, hi], indexed by d - lo, and 0
    for d = 0 (mod 4), which is never squarefree.  `period` is a multiple of 4
    such that on each class of d mod period, disc is linear and of one sign.

    Along a class, D runs over a progression D0 + j*step with |D| growing.
    Each a adds size_a(D mod 4a), the size of a root class, to each D with
    4a^2 <= |D|: one period of size_a, 4a/gcd(step, 4a) long, repeated from
    the first such D and zero before it.  The rows add up as native-order
    32-bit fields of one int.  No carry crosses a field, which sums at most
    2a over a <= A: A(A + 1) < 2^32 for the table's A <= 32767.
    """
    counts = [0] * (hi - lo + 1)
    for i in range(min(period, len(counts))):
        if (lo + i) % 4 == 0:
            continue
        D0 = disc(lo + i)
        step = disc(lo + i + period) - D0
        n = len(range(i, len(counts), period))
        a_max = math.isqrt(abs(D0 + (n - 1) * step)) // 2
        offsets, _ = _root_table(a_max)
        total = 0
        for a in range(1, a_max + 1):
            modulus = 4 * a
            first = max(0, -((abs(D0) - a * modulus) // abs(step)))
            size = min(modulus // math.gcd(step, modulus), n - first)
            D = D0 + first * step
            offs = offsets[a]
            keys = (x % modulus for x in range(D, D + size * step, step))
            row = array("I", [offs[k + 1] - offs[k] for k in keys]).tobytes()
            row *= (n - first) // size + 1
            total += int.from_bytes(bytes(4 * first) + row[: 4 * (n - first)], sys.byteorder)
        counts[i::period] = array("I", total.to_bytes(4 * n, sys.byteorder))
    return counts


# ---------------------------------------------------------------------------
# Imaginary side: exact count of reduced positive-definite forms.
# ---------------------------------------------------------------------------


def class_number_imaginary(D: int, small: int | None = None) -> int:
    """Class number of the imaginary quadratic field of discriminant D < 0.

    Counts reduced positive-definite forms (a, b, c): |b| <= a <= c with
    b >= 0 whenever |b| = a or a = c.  Loops over a <= sqrt(|D|/3) and
    takes the b in (-a, a] with b^2 == D (mod 4a) from the square-root
    table, keeping those with c = (b^2 - D)/(4a) >= a.  While 4a^2 <= |D|
    every root gives c >= a, so the count adds the size of its root class
    without reading it; only the a in (sqrt(|D|)/2, sqrt(|D|/3)] walk their
    roots.  That is about sqrt(|D|/3) table lookups per call; the table
    itself costs O(|D|/3) to build once, shared by every later call with a
    smaller |D|.  A sweep passes the count of the forms with 4a^2 <= |D|
    as `small`, from small_form_counts.
    """
    _require_fundamental(D, -1)
    n = -D
    a_max = math.isqrt(n // 3)
    offsets, roots = _root_table(a_max)
    count = _small_form_count(D) if small is None else small
    for a in range(math.isqrt(n) // 2 + 1, a_max + 1):
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

# Reduced indefinite forms (a, b, c) of discriminant D, s = isqrt(D), have
# 0 < b <= s, s - b < 2|a| <= s + b and ac < 0.  N(a, b, c) = (-a, b, -c)
# and the mirror sigma(a, b, c) = (c, b, a) keep them reduced; N commutes
# with rho, and sigma rho sigma = rho^-1.  The walk runs rho on the doubled
# unsigned forms (2|a|, b, 2|c|), where it is one formula and N is trivial:
# 1. Every rho-cycle holds a form with 2|a| <= s, since consecutive forms
#    (a_i, b_i, a_{i+1}) have |a_i * a_{i+1}| = (D - b_i^2)/4 < D/4.  So
#    each cycle Z, or N(Z), holds a form with 0 < 2a <= s, and for 2a <= s
#    each root class of b^2 == D (mod 4a) has one representative in
#    (s - 2a, s], and it is reduced.
# 2. The keys (|a|, b) and (|c|, b) of the forms of Z are the positive
#    forms of Z, N(Z), sigma(Z) and N sigma(Z); a form and its mirror image
#    have the same two keys.
# 3. sigma reverses the unsigned cycle of Z or maps it to another.  If it
#    reverses it, the cycle holds two mirror points, half a cycle apart:
#    steps that keep b (onto an ambiguous form, a | b) and forms with
#    |a| = |c|.  The mirror images of the forms between them are the rest,
#    and rho walks from the mirror image of a form to those before it.
# 4. N multiplies the classes by one narrow class, so it fixes every cycle
#    or none.  The walk over the principal cycle starts on a mirror point,
#    (1, b, c); N fixes that cycle iff its unsigned cycle has odd length,
#    that is iff its second mirror point has |a| = |c|.
# A walk marks the half-cycle between the two points, from a start between
# them in two runs: to one point, then from the start's mirror image to the
# other.  It covers 1 cycle if N fixes Z and it met a point, 2 if one of
# these holds, and 4 if neither does.


def class_number_real_narrow(D: int, small: int | None = None) -> int:
    """Narrow class number h+ of the real quadratic field of discriminant D.

    Equals the number of rho-cycles of the reduced indefinite forms of
    discriminant D.  The forms with a > 0 and 2a <= s = isqrt(D) are
    counted first, in about s/2 table lookups.  Walks start from the ones
    not yet seen, in ascending a, the first on the principal cycle.  Each
    runs rho on the forms (2|a|, b, 2|c|), marks the small keys (|a|, b)
    and (|c|, b) of each form as seen, and ends at the next mirror point,
    after a second run from the start's mirror image if the start is none,
    or where it closes: it counts 1 or 2 cycles if it met a mirror point
    and 2 or 4 if it closed, the smaller if N fixes the principal cycle.
    The count stops once every counted form is seen.  A walk that does not
    close within s*s steps, or walks that leave a counted form unseen,
    raise ArithmeticError.  A sweep passes that count as `small`, from
    small_form_counts; one too large raises, one too small may end the
    count early with a wrong h+.
    """
    _require_fundamental(D, 1)
    s = math.isqrt(D)
    half = s // 2
    small = _small_form_count(D) if small is None else small
    offsets, roots = _root_table(half)
    bound = 2 * half  # a doubled form (A, b, C) is small iff A <= bound
    width = s + 1  # it has the key A * width + b, 0 < b <= s
    seen: set[int] = set()  # the keys with A <= bound
    add = seen.add
    cycles = unit = 0
    for a0 in range(1, half + 1):
        A0 = 2 * a0
        offs = offsets[a0]
        k = D % (2 * A0)
        for r0 in roots[a0][offs[k] : offs[k + 1]]:
            b0 = b = s - (s - r0) % A0
            if A0 * width + b in seen:
                continue
            A, C = A0, (D - b * b) // A0
            add(A0 * width + b)
            if C <= bound:
                add(C * width + b)
            mirrored = b % a0 == 0 or A == C  # met a mirror point: the start is one
            for _ in range(s * s):  # doubled forms have 2 <= A <= 2s, 1 <= b <= s
                # (A, b, C) -> (C, r, (D - r^2)/C), unsigned
                r = s - (s + b) % C
                A, C = C, (D - r * r) // C
                if A <= bound:
                    add(A * width + r)
                if C <= bound:
                    add(C * width + r)
                if r == b or A == C:
                    if mirrored:
                        break
                    mirrored = True  # symmetric: walk back from the start's mirror image
                    A, r, C = (D - b0 * b0) // A0, b0, A0
                b = r
                if b == b0 and A == A0:
                    break
            else:
                raise ArithmeticError(f"reduction cycle failed to close for D={D}")
            if not cycles:
                unit = 1 if A == C else 2  # the cycles in {Z, N(Z)}: 1 iff N fixes Z
            cycles += unit if mirrored else 2 * unit
            if len(seen) == small:
                return cycles
    raise ArithmeticError(f"reduction cycles do not cover the {small} small forms of D={D}")


def three_divides_real_class_number(d: int, small: int | None = None) -> bool:
    """Whether 3 divides the class number of Q(sqrt(d)), d squarefree >= 2.

    Goes through the narrow class number of the field's discriminant; h+ is
    h or 2h, so the odd parts coincide and 3|h iff 3|h+.  Any other d
    raises ValueError.  `small` goes to the oracle.
    """
    return class_number_real_narrow(field_discriminant(d), small) % 3 == 0
