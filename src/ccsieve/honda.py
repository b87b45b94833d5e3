"""Witnesses of Honda's class-number criterion and their enumeration.

A witness (d, m, n, u), the same tuple as its row in witnesses.csv,
certifies that 3 divides the class number of the real quadratic field
Q(sqrt(d)): it satisfies 27*n^2 + d*u^2 = 4*m^3 exactly, with
gcd(m, 3n) = 1, X^3 - m*X + n free of integer roots, and d squarefree
with d >= 2.  Enumeration sweeps an (m, n) box and lets the squarefree
decomposition t = 4*m^3 - 27*n^2 = d*u^2 discover u and d.

The sweep sieves one row (fixed m, every n with 27*n^2 < 4*m^3) at a time.
Rows with 3 | m are skipped, since gcd(m, 3n) = 3 there.  For each prime
5 <= p with p^3 <= 4*m^3, p divides t(n) exactly on the one or two
residue classes 27*n^2 = 4*m^3 (mod p), found in a table of r indexed by
27*r^2 mod p and Hensel-lifted to every p^k; walking those progressions
records the parity of each n's exponent of p.  The prime 2 is read off
t(n) directly (only even n, odd m), and 3 never divides t(n) on a kept
row.  A prime p | m divides t(n) only when p | n, which the gcd condition
excludes, so the same pass over the row's primes drops the n that share
a prime with m.  The cofactor left has no prime factor p with p^3 <=
4*m^3, while t(n) < 4*m^3, so it is 1, squarefree or a prime squared,
and one isqrt settles (u, d).  `intmath.cubic_root_values` gives each
row its last n and the n it drops for a rooted cubic, so no pair is
trial-divided.  The root tables cover the primes with p^3 <= 4*m_max^3;
they are built once per sweep, never at import.
`enumerate_discriminants` runs the rows in this process and selects the
family; `_sieve_row` does one row's arithmetic.

The package's one CSV writer, `write_csv`, and the witness reader, which
accepts exactly the lines `write_csv` writes, live here.
"""

from __future__ import annotations

import math
import os
from itertools import compress
from pathlib import Path
from typing import Iterable, NamedTuple

from .intmath import cubic_has_integer_root, cubic_root_values, icbrt, is_squarefree, primes_upto

_WITNESS_HEADER = "d,m,n,u"


class ConfigurationError(ValueError):
    """A run configuration that must be rejected before any sweep starts."""


class EnumConfig(NamedTuple):
    """Knobs of the (m, n) sweep: the cap on X and the shortcut filter.

    The box is fixed, by the class constants u_cap and n_max (class
    attributes, not fields, so no caller can set them): every
    witness with u <= u_cap, n <= n_max and d <= X satisfies 4*m^3 <=
    X*u_cap^2 + 27*n_max^2, which caps m.  The n sweep itself is not
    capped (all n with 27*n^2 < 4*m^3 are visited), so the box may well
    discover witnesses beyond that guaranteed sub-family.
    """

    u_cap = 4
    n_max = 32
    x_cap: int = 1_000_000
    shortcut_only: bool = False


def validate_witness(d: int, m: int, n: int, u: int) -> None:
    """Check the witness conditions; raise ValueError naming the first
    that fails.

    Order: all fields positive, exact identity, gcd(m, 3n) = 1, no
    integer cubic root, then d squarefree and >= 2.
    """
    if d < 1 or m < 1 or n < 1 or u < 1:
        raise ValueError("witness components must be positive")
    lhs = 27 * n * n + d * u * u
    rhs = 4 * m * m * m
    if lhs != rhs:
        raise ValueError(f"identity: 27*{n}^2 + {d}*{u}^2 = {lhs} != {rhs} = 4*{m}^3")
    g = math.gcd(m, 3 * n)
    if g != 1:
        raise ValueError(f"gcd: gcd({m}, 3*{n}) = {g}")
    if cubic_has_integer_root(m, n):
        raise ValueError(f"cubic-root: X^3 - {m}*X + {n} has an integer root")
    if d < 2 or not is_squarefree(d):
        raise ValueError(f"squarefree: d = {d} is not a squarefree integer >= 2")


def derived_m_max(X: int, config: EnumConfig) -> int:
    """Largest m swept for bound X: 4*m^3 <= X*u_cap^2 + 27*n_max^2."""
    total = X * config.u_cap * config.u_cap + 27 * config.n_max * config.n_max
    return icbrt(total // 4)


def _root_tables(p_max: int) -> list[tuple[int, list[int]]]:
    """(p, roots) for the primes 5 <= p <= p_max, where roots[v] is the r
    in [1, p/2) with 27*r^2 = v (mod p), or 0 if there is none."""
    tables = []
    for p in primes_upto(p_max)[2:]:
        roots = [0] * p
        for r in range(1, (p + 1) // 2):
            roots[27 * r * r % p] = r
        tables.append((p, roots))
    return tables


def _sieve_row(
    m: int, n_hi: int, rooted: frozenset[int], tables: list[tuple[int, list[int]]]
) -> tuple[bytearray, list[int], list[int]]:
    """One row of the sweep, 3 not dividing m: the mask keep over n in
    [0, n_hi], 1 where gcd(m, 3n) = 1 and n is not in rooted; and
    lists d_part, u_part with d_part[n] * u_part[n]^2 the part of
    t(n) = 4*m^3 - 27*n^2 over the primes p with p^3 <= 4*m^3,
    d_part[n] squarefree, where kept.

    The one pass over those primes also drops the n sharing a prime with
    m; every m has such a prime (2, or some p >= 5), so n = 0 goes too.
    """
    t4 = 4 * m * m * m
    size = n_hi + 1
    keep = bytearray([1]) * size
    d_part = [1] * size
    u_part = [1] * size
    if m & 1:
        # t(2k) = 4*(m^3 - 27k^2): exactly 2^2 for even k, 2^3 or more for odd k
        for n in range(4, size, 4):
            u_part[n] = 2
        for n in range(2, size, 4):
            t = t4 - 27 * n * n
            e = (t & -t).bit_length() - 1
            d_part[n] = 1 << (e & 1)
            u_part[n] = 1 << (e >> 1)
    else:
        keep[::2] = bytes(n_hi // 2 + 1)
    p_hi = icbrt(t4)
    for p, roots in tables:
        if p > p_hi:
            break
        v = t4 % p
        r = roots[v]
        if not r:
            if not v:  # p | m, so gcd(m, 3n) = 1 drops n = 0 (mod p)
                keep[::p] = bytes(n_hi // p + 1)
            continue  # else 27n^2 = 4m^3 (mod p) is unsolvable
        inv = pow(54 * r, -1, p)
        # n and pk - n are the roots of 27n^2 = 4m^3 (mod pk), pk = p^k;
        # the classes only shrink with k, so stop once both pass n_hi
        n, pk, odd = r, p, True
        while n <= n_hi or pk - n <= n_hi:
            for start in (n, pk - n):
                if odd:
                    for i in range(start, size, pk):
                        d_part[i] *= p
                else:
                    for i in range(start, size, pk):
                        d_part[i] //= p
                        u_part[i] *= p
            n += (t4 - 27 * n * n) // pk * inv % p * pk  # Hensel step to p^(k+1)
            pk *= p
            odd = not odd
    for n in rooted:
        keep[n] = 0
    return keep, d_part, u_part


def enumerate_discriminants(
    X: int, config: EnumConfig = EnumConfig()
) -> list[tuple[int, int, int, int]]:
    """The canonical witness (d, m, n, u) of every qualifying squarefree d
    in [2, X] discoverable in the (m, n) box, sorted by d.

    The canonical witness is the lexicographically least (m, n, u) found
    for d.  Rows are visited in ascending m and each row in ascending n,
    so the first pair to yield a d carries it.
    """
    if X < 2:
        raise ConfigurationError("X must be at least 2")
    if X > config.x_cap:
        raise ConfigurationError(f"X={X} exceeds the enumeration cap {config.x_cap}")
    m_hi = derived_m_max(X, config)
    tables = _root_tables(icbrt(4 * m_hi * m_hi * m_hi))
    isqrt = math.isqrt
    found: dict[int, tuple[int, int, int, int]] = {}
    for m in range(2, m_hi + 1):
        if m % 3 == 0 or (config.shortcut_only and m % 3 != 1):
            continue
        t4 = 4 * m * m * m
        n_hi, rooted = cubic_root_values(m)  # n_hi: the largest n with 27*n^2 < 4*m^3
        keep, d_part, u_part = _sieve_row(m, n_hi, rooted, tables)
        if config.shortcut_only:
            keep[::3] = bytes(n_hi // 3 + 1)
        for n in compress(range(n_hi + 1), keep):
            d = d_part[n]
            u = u_part[n]
            c = (t4 - 27 * n * n) // (d * u * u)
            # c has no prime factor p with p^3 <= 4m^3, hence at most two
            r = isqrt(c)
            if r * r == c:
                u *= r
            else:
                d *= c
            if 2 <= d <= X and d not in found:
                found[d] = (d, m, n, u)
    return sorted(found.values())  # d is unique, so this is d order


def _row_template(header: str) -> str:
    """The line template of a row under `header`: comma-joined `%s`, LF."""
    return ",".join(["%s"] * (header.count(",") + 1)) + "\n"


def write_csv(path, header: str, rows: Iterable[tuple], comment: str | None = None) -> None:
    """Write an optional `# comment` line, the header and one comma-joined
    line per row tuple, UTF-8 and LF-terminated, creating the directory.

    The lines go to a temporary file beside `path`, which replaces `path`
    only once every row is written and synced to disk; if writing fails,
    `path` is left as it was and the temporary file is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    line = _row_template(header)
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            if comment is not None:
                fh.write(f"# {comment}\n")
            fh.write(f"{header}\n")
            for row in rows:
                fh.write(line % row)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_witnesses_csv(rows: Iterable[tuple[int, int, int, int]], path) -> None:
    """Witness export: the header, then one line per (d, m, n, u) row."""
    write_csv(path, _WITNESS_HEADER, rows)


def _round_trip(template: str, text: str) -> list[int] | None:
    """The ints of `text`'s fields, each LF a field end like a comma, if
    `template` filled with them gives back `text`; None otherwise."""
    try:
        # the last field is the empty one after the final LF
        ints = list(map(int, text.replace("\n", ",").split(",")[:-1]))
        if template % tuple(ints) == text:  # a wrong field count raises TypeError
            return ints
    except (ValueError, TypeError):
        pass
    return None


def read_witnesses_csv(path) -> list[tuple[int, int, int, int]]:
    """Parse a witness export back into (d, m, n, u) rows.  A line is a
    row only if `write_csv`'s template, filled with the line's own ints,
    gives back the line: no other spelling, line end or field count.

    The lines are read in blocks of about 8 KiB.  A block is taken whole
    when the template, once per line and filled with all of the block's
    ints, gives back the block, which holds iff it holds for each line;
    otherwise the block's first line that fails is named.  The blocks are
    small because a block's parse temporaries share allocator arenas with
    the rows: at 10^7, 64 KiB blocks left about 5 MB of them held after
    `verify` had freed the rows.
    """
    line_of = _row_template(_WITNESS_HEADER)
    rows: list[tuple[int, int, int, int]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        found = fh.readline()
        if found != _WITNESS_HEADER + "\n":
            raise ValueError(f"unexpected header {found!r}, expected {_WITNESS_HEADER!r}")
        while lines := fh.readlines(1 << 13):
            ints = _round_trip(line_of * len(lines), "".join(lines))
            if ints is None:
                bad = next(line for line in lines if _round_trip(line_of, line) is None)
                raise ValueError("malformed row: %r" % bad.removesuffix("\n"))
            rows += zip(*[iter(ints)] * 4)
    return rows
