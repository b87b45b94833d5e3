"""Count series, growth-exponent fits, and the Scholz-direction falsifier.

Two counting functions are confronted: the sieve count (qualifying d
discovered by the witness box) and the ground-truth count of squarefree
d with 3 | h(d) from the form-class oracle.  The truth series must
dominate the sieve series pointwise.  The falsifier searches for
squarefree d where 3 divides the class number of Q(sqrt(-3d)) but not
that of Q(sqrt(d)), which kills the reflection-style implication from
the imaginary side to the real side.  Both oracle sweeps run on
`parallel_map`, which runs the first chunk of a range in this process
and forks one child for each other chunk.
"""

from __future__ import annotations

import marshal
import math
import os
import signal
import statistics
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, NamedTuple, NoReturn, Sequence

from .classnum import (
    PRACTICAL_DISCRIMINANT_CAP,
    class_number_imaginary,
    class_number_real_narrow,
    field_discriminant,
    small_form_counts,
    three_divides_real_class_number,
)
from .honda import ConfigurationError, EnumConfig, enumerate_discriminants, write_csv
from .intmath import is_squarefree, squarefree_decompose

# d maps to discriminant 4d at worst, and the falsifier touches Q(sqrt(-3d)).
TRUTH_X_CAP = PRACTICAL_DISCRIMINANT_CAP // 4
SCHOLZ_BOUND_CAP = PRACTICAL_DISCRIMINANT_CAP // 12

# The slope of the reference series over this window is the constant the
# acceptance suite pins (0.8095).
PINNED_SLOPE_WINDOW = (1_000, 1_000_000)


class CountSeries(NamedTuple):
    """Ordered (X, count) checkpoints for an N-type counting function."""

    label: str
    checkpoints: tuple[tuple[int, int], ...]


class SlopeReport(NamedTuple):
    """Least-squares fit of log(count) against log(X); window is the range
    of X of the checkpoints the fit used."""

    slope: float
    intercept: float
    residual_max: float
    window: tuple[int, int]


def check_checkpoints(checkpoints: Sequence[int]) -> None:
    """Reject an empty, non-increasing or below-2 checkpoint list."""
    if not checkpoints:
        raise ConfigurationError("at least one checkpoint is required")
    if any(x < 2 for x in checkpoints):
        raise ConfigurationError("checkpoints must be >= 2")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ConfigurationError("checkpoints must be strictly increasing")


def honda_count_series(
    checkpoints: Sequence[int], config: EnumConfig = EnumConfig()
) -> CountSeries:
    """Sieve count series: qualifying d per checkpoint from one enumeration
    at the largest checkpoint."""
    check_checkpoints(checkpoints)
    ds = [row[0] for row in enumerate_discriminants(checkpoints[-1], config)]
    return CountSeries("N_honda", tuple((x, bisect_right(ds, x)) for x in checkpoints))


def _isqrt_sum(x: int) -> int:
    """isqrt(1) + ... + isqrt(x), x >= 0: with s = isqrt(x), each k < s is
    the isqrt of the 2k + 1 integers from k^2, and s of the x - s^2 + 1
    from s^2."""
    s = math.isqrt(x)
    return (s - 1) * s * (4 * s + 1) // 6 + s * (x - s * s + 1)


def _chunks(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """Split [lo, hi], lo >= 1, into at most `parts` consecutive ranges of
    about equal total cost, d costing isqrt(d): an oracle call costs
    about sqrt(D) table lookups."""
    if hi < lo:
        return []
    base = _isqrt_sum(lo - 1)
    total = _isqrt_sum(hi) - base
    chunks = []
    a = lo
    for j in range(1, parts):
        b = bisect_left(range(lo, hi + 1), base - (-total * j // parts), key=_isqrt_sum) + lo
        if a <= b < hi:
            chunks.append((a, b))
            a = b + 1
    chunks.append((a, hi))
    return chunks


def _run_chunk(
    fn: Callable[[int, int], list], a: int, b: int, read_end: int, write_end: int
) -> NoReturn:
    """The body of a forked child: write b"r" and the marshalled fn(a, b)
    to the pipe, or, if fn raises, b"e" and the pickled exception, then
    exit, with code 0 only once the whole message is written."""
    code = 1
    try:
        os.close(read_end)
        try:
            message = b"r" + marshal.dumps(fn(a, b))
        except BaseException as exc:
            import pickle  # only a failing chunk pays for the import

            message = b"e" + pickle.dumps(exc)
        with open(write_end, "wb") as out:
            out.write(message)
        code = 0
    finally:
        os._exit(code)  # runs none of the caller's cleanup and flushes no inherited buffer


class _ForkedChunk:
    """fn(a, b) running in a forked child, which sends its list, or the
    exception fn raised, back through a pipe."""

    def __init__(self, fn: Callable[[int, int], list], a: int, b: int) -> None:
        self.chunk = (a, b)
        read_end, write_end = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(read_end)
            os.close(write_end)
            raise
        if self.pid == 0:
            _run_chunk(fn, a, b, read_end, write_end)
        os.close(write_end)
        self.read_end = read_end

    def join(self) -> list:
        """Read the child's message, reap the child, and return its list
        or raise its exception; a child that ended without a whole message
        is a RuntimeError naming the chunk."""
        try:
            with open(self.read_end, "rb") as inp:
                message = inp.read()
        finally:
            status = os.waitpid(self.pid, 0)[1]
        if status != 0:
            a, b = self.chunk
            raise RuntimeError(
                f"the child for [{a}, {b}] ended without a result (wait status {status})"
            )
        if message[:1] == b"e":
            import pickle  # the child's own bytes, unpickled only on its error path

            raise pickle.loads(message[1:])
        return marshal.loads(message[1:])

    def kill(self) -> None:
        """End the child, whatever it is doing, and reap it."""
        os.kill(self.pid, signal.SIGKILL)
        os.close(self.read_end)
        os.waitpid(self.pid, 0)


def parallel_map(fn: Callable[[int, int], list], lo: int, hi: int, workers: int) -> list:
    """The lists fn(a, b) over the chunks [a, b] of [lo, hi], concatenated
    in range order.  There are at most min(workers, CPU count) chunks, and
    one where os.fork is missing (Windows).  This process runs the first
    chunk and forks one child for each other chunk; no child outlives the
    call, and when anything raises the children left are killed."""
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    chunks = _chunks(lo, hi, min(workers, (os.cpu_count() or 1) if hasattr(os, "fork") else 1))
    if len(chunks) <= 1:
        return fn(lo, hi)
    pending = []
    try:
        for a, b in chunks[1:]:
            pending.append(_ForkedChunk(fn, a, b))
        results = fn(*chunks[0])
        while pending:
            # a child leaves `pending` before its join, which reaps it even if it raises
            results += pending.pop(0).join()
        return results
    finally:
        for child in pending:
            child.kill()


def _truth_chunk(lo: int, hi: int) -> list[int]:
    """Squarefree d in [lo, hi] whose real class number is divisible by 3."""
    small = small_form_counts(lo, hi, 4, field_discriminant)
    hits = []
    for d in range(lo, hi + 1):
        # the benchmark pins these 19,999 squarefree_decompose calls until ROADMAP item 1a
        if squarefree_decompose(d)[0] == 1 and three_divides_real_class_number(d, small[d - lo]):
            hits.append(d)
    return hits


def truth_count_series(checkpoints: Sequence[int], workers: int = 1) -> CountSeries:
    """Ground-truth count series: for every squarefree d up to the last
    checkpoint the form-class oracle decides 3 | h(d); counts per checkpoint."""
    check_checkpoints(checkpoints)
    x_max = checkpoints[-1]
    if x_max > TRUTH_X_CAP:
        raise ConfigurationError(f"checkpoint {x_max} exceeds the oracle range {TRUTH_X_CAP}")
    hits = parallel_map(_truth_chunk, 2, x_max, workers)
    return CountSeries("N_plus_truth", tuple((x, bisect_right(hits, x)) for x in checkpoints))


def fit_slope(series: CountSeries, window: tuple[int, int]) -> SlopeReport:
    """Ordinary least squares of log(count) on log(X) inside the window.

    Only checkpoints with count >= 1 participate; fewer than 3 such points
    is a domain error.
    """
    x_lo, x_hi = window
    used = [(x, c) for x, c in series.checkpoints if x_lo <= x <= x_hi and c >= 1]
    if len(used) < 3:
        raise ValueError(
            f"need at least 3 checkpoints with count >= 1 in window {window}, got {len(used)}"
        )
    xs = [math.log(x) for x, _ in used]
    ys = [math.log(c) for _, c in used]
    slope, intercept = statistics.linear_regression(xs, ys)
    residual_max = max(abs(y - (intercept + slope * x)) for x, y in zip(xs, ys))
    return SlopeReport(slope, intercept, residual_max, (used[0][0], used[-1][0]))


def _imaginary_discriminant(d: int) -> int:
    """Discriminant of Q(sqrt(-3d)) for squarefree d, whose squarefree
    kernel is -d/3 when 3 | d, else -3d; linear on each class of d mod 12."""
    return field_discriminant(-(d // 3) if d % 3 == 0 else -3 * d)


def _scholz_chunk(lo: int, hi: int) -> list[tuple[int, int, int]]:
    """The counterexample rows (d, h_real, h_imag) of the squarefree d in
    [lo, hi]; the real oracle runs only where 3 divides h_imag."""
    imag_small = small_form_counts(lo, hi, 12, _imaginary_discriminant)
    real_small = small_form_counts(lo, hi, 4, field_discriminant)
    hits = []
    for d in range(lo, hi + 1):
        if not is_squarefree(d):
            continue
        h_imag = class_number_imaginary(_imaginary_discriminant(d), imag_small[d - lo])
        if h_imag % 3:
            continue
        h_real = class_number_real_narrow(field_discriminant(d), real_small[d - lo])
        if h_real % 3:
            hits.append((d, h_real, h_imag))
    return hits


def scholz_counterexample_search(bound: int, workers: int = 1) -> list[tuple[int, int, int]]:
    """The rows (d, h_real, h_imag) of all squarefree d <= bound with
    3 | h(Q(sqrt(-3d))) and 3 not dividing h(Q(sqrt(d))), ascending in d;
    h_real is the narrow class number, h_imag the exact imaginary one.

    Each hit is a counterexample to the implication "3 | h(-3k) forces
    3 | h(k)"; a nonempty result shows that direction of reflection fails.
    """
    if bound < 2:
        raise ConfigurationError("bound must be at least 2")
    if bound > SCHOLZ_BOUND_CAP:
        raise ConfigurationError(f"bound={bound} exceeds the oracle range {SCHOLZ_BOUND_CAP}")
    return parallel_map(_scholz_chunk, 2, bound, workers)


def write_series_csv(series: CountSeries, path) -> None:
    """Series export: `# label` comment line, then `X,count` rows."""
    write_csv(path, "X,count", series.checkpoints, comment=series.label)


def write_counterexamples_csv(items: Iterable[tuple[int, int, int]], path) -> None:
    """Counterexample export: `d,h_real_narrow,h_imag` rows, ascending d."""
    write_csv(path, "d,h_real_narrow,h_imag", items)
