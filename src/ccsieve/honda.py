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
`enumerate_discriminants` lists the swept m of the family and deals them
to up to `workers` processes; `_sweep_rows` runs one part's rows and
`_sieve_row` does one row's arithmetic.  Each hit is kept as one int
packing (d, m, n, u) from the top, so one sort orders the hits by d and
then by (m, n), and the first hit of each d is its row.  Each part sorts
its hits and keeps the first of each d; the caller joins the parts and
does the same once more, so any split gives the same rows.  They come
back as a sized view that unpacks them as it is iterated.

`fork_map` is the package's one process runner, shared with the oracle
sweeps of `counting`: this process runs the first chunk and forks one
child for each other one.  The package's one CSV writer, `write_csv`,
and the witness reader, which accepts exactly the lines `write_csv`
writes and yields their rows as it reads them, live here too.  Both
work a block at a time: the writer fills the row template repeated
over 128 rows with one `%`, and the reader decodes each block of about
8 KiB as one JSON array, then takes it only if that same template,
filled with its ints, gives the block back.
"""

from __future__ import annotations

import marshal
import math
import os
import signal
from itertools import chain, compress, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .intmath import cubic_has_integer_root, cubic_root_values, icbrt, is_squarefree, primes_upto

_WITNESS_HEADER = "d,m,n,u"
# 512 rows a block wrote faster still, but the block's tuples and their
# ints, held at once, left the writer's process about 0.7 MB larger
_WRITE_BLOCK_ROWS = 128


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


class _Rows:
    """The sweep's rows, d ascending, each kept as one int packing
    (d, m, n, u) from the top: `shifts` are the bit offsets (sd, sm, sn)
    of d, m and n, and u fills the sn bits below n.  len() is the row
    count; each iteration unpacks the (d, m, n, u) tuples."""

    def __init__(self, keys: list[int], shifts: tuple[int, int, int]) -> None:
        self._keys = keys
        self._shifts = shifts

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[tuple[int, int, int, int]]:
        sd, sm, sn = self._shifts
        m_mask, n_mask, u_mask = (1 << sd - sm) - 1, (1 << sm - sn) - 1, (1 << sn) - 1
        for key in self._keys:
            yield key >> sd, key >> sm & m_mask, key >> sn & n_mask, key & u_mask


def process_count(workers: int) -> int:
    """The processes a sweep on `workers` workers runs on: no more than
    the CPU count, and 1 where os.fork is missing (Windows)."""
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    return min(workers, (os.cpu_count() or 1) if hasattr(os, "fork") else 1)


class _ForkedChunk:
    """fn(chunk) running in a forked child.  The child writes b"r" and the
    marshalled list to a pipe, or, if fn raises, b"e" and the pickled
    exception, then exits, with code 0 only once the whole message is
    written."""

    def __init__(self, fn: Callable[[Sequence[int]], list], chunk: Sequence[int]) -> None:
        self.chunk = chunk
        read_end, write_end = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(read_end)
            os.close(write_end)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(read_end)
                try:
                    message = b"r" + marshal.dumps(fn(chunk))
                except BaseException as exc:
                    import pickle  # only a failing chunk pays for the import

                    message = b"e" + pickle.dumps(exc)
                with open(write_end, "wb") as out:
                    out.write(message)
                code = 0
            finally:
                os._exit(code)  # runs none of the caller's cleanup and flushes no inherited buffer
        os.close(write_end)
        self.read_end = read_end

    def join(self) -> list:
        """Read the child's message, reap the child, and return its list
        or raise its exception; a child that ended without a whole message
        is a RuntimeError naming the chunk's first and last item."""
        try:
            with open(self.read_end, "rb") as inp:
                message = inp.read()
        finally:
            status = os.waitpid(self.pid, 0)[1]
        if status != 0:
            raise RuntimeError(
                f"the child for [{self.chunk[0]}, {self.chunk[-1]}] ended without a result "
                f"(wait status {status})"
            )
        if message[:1] == b"e":
            import pickle  # the child's own bytes, unpickled only on its error path

            raise pickle.loads(memoryview(message)[1:])
        return marshal.loads(memoryview(message)[1:])  # a view, so the message is not copied

    def kill(self) -> None:
        """End the child, whatever it is doing, and reap it."""
        os.kill(self.pid, signal.SIGKILL)
        os.close(self.read_end)
        os.waitpid(self.pid, 0)


def fork_map(fn: Callable[[Sequence[int]], list], chunks: Sequence[Sequence[int]]) -> list:
    """The lists fn(chunk) over the chunks, concatenated in order.  This
    process runs the first chunk and forks one child for each other chunk,
    so one chunk forks nothing; no child outlives the call, and when
    anything raises the children left are killed."""
    pending = []
    try:
        for chunk in chunks[1:]:
            pending.append(_ForkedChunk(fn, chunk))
        results = fn(chunks[0]) if chunks else []
        while pending:
            # a child leaves `pending` before its join, which reaps it even if it raises
            results += pending.pop(0).join()
        return results
    finally:
        for child in pending:
            child.kill()


def _deal(ms: list[int], parts: int) -> list[list[int]]:
    """ms dealt to `parts` ascending lists in snake order over blocks of
    2*parts: part j takes the j-th and the (2*parts - 1 - j)-th m of each
    block.  A row's length grows with m, and an even m keeps only half
    its n, so each part gets about as many rows, as much row length and
    as many even m as any other."""
    step = 2 * parts
    return [sorted(ms[j::step] + ms[step - 1 - j::step]) for j in range(parts)]


def _first_per_d(keys: list[int], sd: int) -> None:
    """Keep, in sorted packed keys, the first key of each d (the bits from
    sd up), compacting the list in place."""
    kept = 0
    last_d = 0
    for key in keys:
        d = key >> sd
        if d != last_d:
            keys[kept] = key
            kept += 1
            last_d = d
    del keys[kept:]


def _sweep_rows(
    ms: Sequence[int],
    X: int,
    shortcut_only: bool,
    tables: list[tuple[int, list[int]]],
    shifts: tuple[int, int, int],
) -> list[int]:
    """The packed hits with d <= X of the rows m in ms, sorted, the first
    of each d kept.  The loop over a row's n reads only local names."""
    sd, sm, sn = shifts
    isqrt = math.isqrt
    keys: list[int] = []
    hit = keys.append
    for m in ms:
        t4 = 4 * m * m * m
        n_hi, rooted = cubic_root_values(m)  # n_hi: the largest n with 27*n^2 < 4*m^3
        keep, d_part, u_part = _sieve_row(m, n_hi, rooted, tables)
        if shortcut_only:
            keep[::3] = bytes(n_hi // 3 + 1)
        m_key = m << sm
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
            if 2 <= d <= X:
                hit(d << sd | m_key | n << sn | u)
    keys.sort()
    _first_per_d(keys, sd)
    return keys


def enumerate_discriminants(X: int, config: EnumConfig = EnumConfig(), workers: int = 1) -> _Rows:
    """The canonical witness (d, m, n, u) of every qualifying squarefree d
    in [2, X] discoverable in the (m, n) box, sorted by d.

    The canonical witness is the lexicographically least (m, n, u) found
    for d.  Each hit is one int packing (d, m, n, u) from the top, so
    sorting the hits orders them by d and then by (m, n), and the first
    hit of each d carries its canonical witness.  The rows are dealt to
    `process_count(workers)` parts, never more than there are rows, run
    by `fork_map`; with one part nothing forks.
    """
    if X < 2:
        raise ConfigurationError("X must be at least 2")
    if X > config.x_cap:
        raise ConfigurationError(f"X={X} exceeds the enumeration cap {config.x_cap}")
    processes = process_count(workers)
    m_hi = derived_m_max(X, config)
    m3 = m_hi * m_hi * m_hi
    tables = _root_tables(icbrt(4 * m3))
    isqrt = math.isqrt
    # Field widths of a hit: m <= m_hi; 27*n^2 < 4*m^3 gives n <= isqrt(4*m_hi^3/27);
    # d*u^2 = t(n) <= 4*m^3 with d >= 2 gives u <= isqrt(2*m_hi^3).
    sn = isqrt(2 * m3).bit_length()
    sm = sn + isqrt(4 * m3 // 27).bit_length()
    sd = sm + m_hi.bit_length()
    shifts = (sd, sm, sn)
    # 3 | m gives gcd(m, 3n) = 3; the shortcut family keeps only m = 1 (mod 3)
    ms = [m for m in range(2, m_hi + 1) if m % 3 and not (config.shortcut_only and m % 3 == 2)]
    parts = _deal(ms, max(1, min(processes, len(ms))))
    keys = fork_map(lambda part: _sweep_rows(part, X, config.shortcut_only, tables, shifts), parts)
    if len(parts) > 1:
        # one sort merges the parts' sorted runs; a d of two parts keeps its least (m, n)
        keys.sort()
        _first_per_d(keys, sd)
    return _Rows(keys, shifts)


def _row_template(header: str) -> str:
    """The line template of a row under `header`: comma-joined `%s`, LF."""
    return ",".join(["%s"] * (header.count(",") + 1)) + "\n"


def write_csv(path, header: str, rows: Iterable[tuple], comment: str | None = None) -> None:
    """Write an optional `# comment` line, the header and one comma-joined
    line per row tuple, UTF-8 and LF-terminated, creating the directory.

    The rows are taken in blocks of 128, and each block is formatted by
    one `%` of the row template repeated once per row.  A block holding a
    row with another field count goes row by row instead, so that row
    raises the TypeError it would raise alone.

    The lines go to a temporary file beside `path`, which replaces `path`
    only once every row is written and synced to disk; if writing fails,
    `path` is left as it was and the temporary file is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    line = _row_template(header)
    width = header.count(",") + 1
    rows = iter(rows)
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            if comment is not None:
                fh.write(f"# {comment}\n")
            fh.write(f"{header}\n")
            while block := list(islice(rows, _WRITE_BLOCK_ROWS)):
                if set(map(len, block)) == {width}:
                    fh.write(line * len(block) % tuple(chain.from_iterable(block)))
                else:
                    for row in block:
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


def _round_trip(decode: Callable[[str], list], template: str, text: str) -> list[int] | None:
    """The ints of `text`'s fields, each LF a field end like a comma, if
    `template` filled with them gives back `text`; None otherwise.

    The fields are decoded as one JSON array by `decode`.  %s gives back
    JSON's lists and objects as they are spelled, so a text holding [ or
    { is refused before decoding; every other JSON value that is not an
    int either raises or is given back by %s in another spelling."""
    if "[" in text or "{" in text:
        return None
    try:
        # the final LF ends the last field and is left out of the array
        ints = decode("[" + text.replace("\n", ",")[:-1] + "]")
        if template % tuple(ints) == text:  # a wrong field count raises TypeError
            return ints
    except (ValueError, TypeError):
        pass
    return None


def read_witnesses_csv(path) -> Iterator[tuple[int, int, int, int]]:
    """Yield the (d, m, n, u) rows of a witness export.  A line is a row
    only if `write_csv`'s template, filled with the line's own ints, gives
    back the line: no other spelling, line end or field count.

    The lines are read in blocks of about 8 KiB, and only one block is
    held at a time.  Each block's fields are decoded by one C-level call.
    A block is taken whole when the template, once per line and filled
    with all of the block's ints, gives back the block, which holds iff
    it holds for each line; otherwise the block's first line that fails
    is named, in a ValueError raised before any of the block's rows is
    yielded.
    """
    import json  # only the reader pays for the import

    # JSON's integers are the decimal spellings %s gives back; hooking its
    # floats and constants to int makes 1.0, 1e3 and NaN raise ValueError
    decode = json.JSONDecoder(parse_float=int, parse_constant=int).decode
    line_of = _row_template(_WITNESS_HEADER)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        found = fh.readline()
        if found != _WITNESS_HEADER + "\n":
            raise ValueError(f"unexpected header {found!r}, expected {_WITNESS_HEADER!r}")
        while lines := fh.readlines(1 << 13):
            ints = _round_trip(decode, line_of * len(lines), "".join(lines))
            if ints is None:
                bad = next(line for line in lines if _round_trip(decode, line_of, line) is None)
                raise ValueError("malformed row: %r" % bad.removesuffix("\n"))
            yield from zip(*[iter(ints)] * 4)
