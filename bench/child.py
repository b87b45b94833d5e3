"""One benchmark job in a fresh interpreter: `python3 bench/child.py '<job json>'`.

The job says which CLI stages to run through `ccsieve.cli.main`, or which
probe to run.  The child prints `ready` once `ccsieve.cli` is imported and
its output directory is empty (the end of set-up), then one JSON line with
its result.  With tracing on it wraps the public functions of each layer,
under the name each calling module imports, before the first stage runs.

Untraced stages also run `SpeedProbe`: a timer interrupts the stage every
50 ms to time a fixed 1 ms kernel of the benchmark's own, and the stage's
wall time is reported over the mean probe time too.  A 2-vCPU shared
cloud VM slowed all code by up to 2x, changing from one second to the
next; the probe samples that speed while the stage runs, so the ratio
cancels it (there, the spread of one stage between repetitions fell from
15-40 % of its median for raw seconds to 2-8 % with one worker and 5-10 %
with two).  A change to ccsieve still moves the ratio, because the
probe shares no code with it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

clock = time.perf_counter


def _cpu_s() -> float:
    """CPU seconds of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# Thread CPU seconds of one `probe_kernel` on a quiet 2.1 GHz Xeon core: the
# reference speed that set-up times are scaled to.
PROBE_REF_S = 1e-3


def probe_kernel() -> int:
    """Fixed pure-Python integer work in the style of the pipeline: trial
    division for squarefree parts and divisor scans for reduced-form
    triples kept in a set."""
    acc = 0
    for t in range(200_000, 200_060):
        n, square, p = t, 1, 2
        while p * p <= n:
            while n % (p * p) == 0:
                n //= p * p
                square *= p
            if n % p == 0:
                n //= p
            p += 1
        acc += n + square
    triples = set()
    for D in range(5001, 5021, 4):
        for b in range(1, math.isqrt(D) + 1, 2):
            quarter = (D - b * b) // 4
            for x in range(1, math.isqrt(quarter) + 1):
                if quarter % x == 0:
                    triples.add((x, b, -(quarter // x)))
    return acc + len(triples)


class SpeedProbe:
    """Times `probe_kernel` from a SIGALRM handler every INTERVAL_S of wall
    time while the block runs, in this process and in every process forked
    from it meanwhile (the pool workers), which append their samples to
    `spill`.  Each sample is thread CPU time, so with more processes than
    cores it counts the probe's own execution and not its wait for a core.

    Each sample is weighted by the CPU time its process spent on the program
    since its previous sample, so processes that sit idle (the parent
    waiting on its pool, a worker with no task left) count for nothing and
    the mean is the speed the busy processes ran at.
    """

    INTERVAL_S = 0.05

    def __init__(self, spill: Path) -> None:
        self.spill = spill
        self.samples: list[tuple[float, float]] = []  # (probe seconds, busy seconds)
        self.active = False
        self.spill_fd = -1
        self.last = 0.0
        os.register_at_fork(after_in_child=self._start_in_worker)

    def _sample(self) -> tuple[float, float]:
        t0 = time.thread_time()
        probe_kernel()
        busy, self.last = t0 - self.last, time.thread_time()
        return self.last - t0, busy

    def _tick(self, _signum, _frame) -> None:
        self.samples.append(self._sample())

    def _tick_in_worker(self, _signum, _frame) -> None:
        # one short O_APPEND write per sample, so workers never interleave
        os.write(self.spill_fd, b"%r %r\n" % self._sample())

    def _start(self, handler) -> None:
        self.last = time.thread_time()
        signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def _start_in_worker(self) -> None:
        # interval timers are not inherited across fork
        if self.active:
            self._start(self._tick_in_worker)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self.spill_fd = os.open(self.spill, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND)
        self.active = True
        self._start(self._tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.active = False
        os.close(self.spill_fd)
        for line in self.spill.read_text().splitlines():
            probe_s, busy_s = line.split()
            self.samples.append((float(probe_s), float(busy_s)))

    def mean_s(self) -> float:
        """Busy-weighted mean probe time."""
        return sum(p * b for p, b in self.samples) / sum(b for _p, b in self.samples)


def fit_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    if sxx == 0:
        return 0.0
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


class Tracer:
    """Aggregated call counts and times keyed by (stage, caller, callee),
    spans for the stage and series calls, and per-call samples of the
    oracles.  Everything stays in memory until `report`."""

    def __init__(self) -> None:
        self.stage = ""
        # frame: [name, seconds spent in traced callees, id of enclosing span]
        self.stack: list[list] = [["", 0.0, None]]
        self.calls: dict[tuple[str, str, str], list] = {}
        self.spans: list[dict] = []
        self.samples: dict[str, list[tuple[int, float]]] = {}
        self.outcomes: dict[str, list] = {}

    def wrap(self, name, fn, *, span=False, sample=False, outcome=None):
        stack, calls = self.stack, self.calls

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = len(self.spans) if span else parent[2]
            if span:
                self.spans.append({"id": span_id, "parent": parent[2], "name": name})
            frame = [name, 0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                key = (self.stage, parent[0], name)
                rec = calls.get(key)
                if rec is None:
                    rec = calls[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if span:
                    self.spans[span_id].update(stage=self.stage, start=t0, end=t0 + dt)
            if sample:
                self.samples.setdefault(name, []).append((abs(args[0]), dt))
            if outcome is not None:
                self.outcomes.setdefault(name, []).append([self.stage, outcome(args, result)])
            return result

        return traced

    def install(self) -> None:
        from ccsieve import classnum, cli, counting, honda, intmath

        def box(args, result):
            """(X, rows, pairs): the (m, n) box is every 27n^2 < 4m^3, 2 <= m <= m_max."""
            m_hi = honda.derived_m_max(args[0], honda.EnumConfig())
            pairs = sum(math.isqrt((4 * m**3 - 1) // 27) for m in range(2, m_hi + 1))
            return [args[0], len(result), pairs]

        bindings = [
            (intmath, "squarefree_decompose", (honda, counting, intmath), {}),
            (intmath, "cubic_has_integer_root", (honda,), {}),
            (intmath, "is_squarefree", (honda, intmath, classnum), {}),
            (honda, "enumerate_discriminants", (cli, counting), {"span": True, "outcome": box}),
            (honda, "validate_witness", (cli,), {}),
            (honda, "write_witnesses_csv", (cli,), {"span": True}),
            (honda, "read_witnesses_csv", (cli,), {"span": True}),
            (classnum, "class_number_real_narrow", (classnum, counting), {"sample": True}),
            (classnum, "class_number_imaginary", (counting,), {"sample": True}),
            (counting, "honda_count_series", (cli,), {"span": True}),
            (
                counting,
                "truth_count_series",
                (cli,),
                {"span": True, "outcome": lambda a, r: r.checkpoints[-1][1]},
            ),
            (
                counting,
                "scholz_counterexample_search",
                (cli,),
                {"span": True, "outcome": lambda a, r: len(r)},
            ),
        ]
        for home, attr, callers, opts in bindings:
            layer = home.__name__.rsplit(".", 1)[1]
            traced = self.wrap(f"{layer}.{attr}", getattr(home, attr), **opts)
            for module in callers:
                setattr(module, attr, traced)

    def run_stage(self, stage: str, fn, argv):
        self.stage = stage
        return self.wrap(f"cli.{stage}", fn, span=True)(argv)

    def report(self) -> dict:
        oracles = {}
        for name, samples in self.samples.items():
            us = sorted(dt * 1e6 for _, dt in samples)
            oracles[name] = {
                "p50_us": statistics.median(us),
                "p99_us": us[min(len(us) - 1, math.ceil(0.99 * len(us)) - 1)],
                "d_exponent": fit_exponent(samples),
                "max_abs_D": max(d for d, _ in samples),
            }
        return {
            "calls": [[*key, *rec] for key, rec in self.calls.items()],
            "spans": self.spans,
            "oracles": oracles,
            "outcomes": self.outcomes,
        }


def run_stages(job: dict, cli) -> dict:
    tracer = None
    if job.get("trace"):
        tracer = Tracer()
        tracer.install()
    stages = []
    out = Path(job["root"]) / job["out"]
    probe = SpeedProbe(out.with_name(out.name + ".probe"))
    for _ in range(20):  # warm-up: the interpreter specialises the kernel's bytecode
        probe_kernel()
    for name, argv in job["stages"]:
        buf = io.StringIO()
        cpu0 = _cpu_s()
        t0 = clock()
        with contextlib.redirect_stdout(buf):
            if tracer:
                rc = tracer.run_stage(name, cli.main, argv)
            else:
                with probe:
                    rc = cli.main(argv)
        wall = clock() - t0
        stage = {
            "name": name,
            "rc": rc,
            "wall_s": wall,
            "cpu_s": _cpu_s() - cpu0,
            "stdout": buf.getvalue(),
        }
        if not tracer:
            stage.update(rel=wall / probe.mean_s(), probes=len(probe.samples))
        stages.append(stage)
    wall = sum(stage["wall_s"] for stage in stages)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": wall,
        "stages": stages,
        "peak_rss_kb": own + kids,
        "trace": tracer.report() if tracer else None,
    }


def probe_speed(n: int = 12) -> float:
    """Mean thread CPU time of n probe kernels, after as many warm-up runs."""
    for _ in range(n):
        probe_kernel()
    t0 = time.thread_time()
    for _ in range(n):
        probe_kernel()
    return (time.thread_time() - t0) / n


def enumerate_scaling(xs) -> dict:
    """Unwrapped `enumerate_discriminants` times at each X (best of a few at small X)."""
    from ccsieve.honda import EnumConfig, enumerate_discriminants

    times = {}
    for x in xs:
        best = math.inf
        for _ in range(3 if x < 10**7 else 1):
            t0 = clock()
            enumerate_discriminants(x, EnumConfig(x_cap=x))
            best = min(best, clock() - t0)
        times[x] = best
    return {"times": times, "exponent": fit_exponent(list(times.items()))}


def main() -> int:
    job = json.loads(sys.argv[1])
    root = Path(job["root"])
    import ccsieve.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"ccsieve imported from {cli.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 3
    out = root / job["out"]
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    print("ready", flush=True)
    if job["kind"] == "setup":
        result = {"probe_s": probe_speed()}
    elif job["kind"] == "scaling":
        result = enumerate_scaling(job["xs"])
    else:
        result = run_stages(job, cli)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
