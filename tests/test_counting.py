"""Count-series, slope-fit, falsifier and parallel_map tests."""

import errno
import math
import os
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsieve.classnum import (
    class_number_imaginary,
    class_number_real_narrow,
    field_discriminant,
    three_divides_real_class_number,
)
from ccsieve.counting import (
    CountSeries,
    _chunks,
    fit_slope,
    honda_count_series,
    parallel_map,
    scholz_counterexample_search,
    truth_count_series,
    write_counterexamples_csv,
    write_series_csv,
)
from ccsieve.honda import ConfigurationError, EnumConfig, enumerate_discriminants
from ccsieve.intmath import is_squarefree
from conftest import CPUS, assert_no_child
from reference import chunks_by_prefix


class TestHondaSeries:
    def test_example_checkpoints(self):
        series = honda_count_series((100, 229))
        (x1, c1), (x2, c2) = series.checkpoints
        assert (x1, x2) == (100, 229)
        assert c2 >= c1
        assert c2 >= 1  # d = 229 is present
        assert series.label == "N_honda"

    def test_empty_at_two(self):
        assert honda_count_series((2,)).checkpoints == ((2, 0),)

    def test_final_checkpoint_is_total(self):
        x = 5_000
        series = honda_count_series((100, x))
        assert series.checkpoints[-1] == (x, len(enumerate_discriminants(x)))

    def test_counts_match_direct_filter(self):
        items = enumerate_discriminants(10_000)
        series = honda_count_series((100, 1_000, 10_000))
        for x, count in series.checkpoints:
            assert count == sum(1 for d, m, n, u in items if d <= x)

    def test_checkpoint_validation(self):
        with pytest.raises(ValueError):
            honda_count_series(())
        with pytest.raises(ValueError):
            honda_count_series((100, 100))
        with pytest.raises(ValueError):
            honda_count_series((1000, 100))

    def test_cap_is_config_error(self):
        with pytest.raises(ConfigurationError):
            honda_count_series((100, 2_000_000), EnumConfig(x_cap=1_000_000))


class TestTruthSeries:
    def test_matches_bruteforce_tally(self):
        series = truth_count_series((50, 100))
        tally = [
            d
            for d in range(2, 101)
            if is_squarefree(d) and three_divides_real_class_number(d)
        ]
        assert series.checkpoints == ((50, sum(1 for d in tally if d <= 50)), (100, len(tally)))
        assert 79 in tally
        assert series.label == "N_plus_truth"

    def test_pinned_to_5e4(self):
        # 554 is configs/reference_n_truth.csv's last row; 3,285 was
        # measured with the oracle that counted every reduced form first
        assert truth_count_series((10_000, 50_000)).checkpoints == ((10_000, 554), (50_000, 3285))

    def test_x4_is_zero(self):
        assert truth_count_series((4,)).checkpoints == ((4, 0),)

    def test_dominates_honda_series(self):
        checkpoints = (100, 500, 1_000)
        truth = truth_count_series(checkpoints)
        honda = honda_count_series(checkpoints)
        for (x_t, c_t), (x_h, c_h) in zip(truth.checkpoints, honda.checkpoints):
            assert x_t == x_h
            assert c_t >= c_h

    def test_range_validation(self):
        with pytest.raises(ConfigurationError):
            truth_count_series((100, 10**9))

    def test_workers_agree(self):
        seq = truth_count_series((100, 400), workers=1)
        par = truth_count_series((100, 400), workers=4)
        assert seq == par


class TestFitSlope:
    def test_exact_power_law(self):
        series = CountSeries("demo", ((10, 1), (100, 10), (1000, 100)))
        report = fit_slope(series, (10, 1000))
        assert abs(report.slope - 1.0) < 1e-12
        assert report.residual_max < 1e-12
        assert report.window == (10, 1000)

    def test_exact_power_law_other_exponent(self):
        series = CountSeries("demo", tuple((10**k, 2 * 10 ** (2 * k)) for k in range(1, 6)))
        report = fit_slope(series, (10, 10**5))
        assert abs(report.slope - 2.0) < 1e-12
        assert abs(report.intercept - math.log(2)) < 1e-10

    def test_too_few_points(self):
        series = CountSeries("demo", ((10, 1), (100, 1)))
        with pytest.raises(ValueError):
            fit_slope(series, (10, 100))

    def test_zero_counts_excluded(self):
        series = CountSeries("demo", ((10, 0), (100, 1), (1000, 10), (10_000, 100)))
        report = fit_slope(series, (10, 10_000))
        assert abs(report.slope - 1.0) < 1e-12
        assert report.window == (100, 10_000)  # the X range the fit used

    def test_window_excludes_outside_points(self):
        series = CountSeries(
            "demo", ((2, 7), (10, 1), (100, 10), (1000, 100), (5000, 1))
        )
        report = fit_slope(series, (10, 1000))
        assert abs(report.slope - 1.0) < 1e-12


class TestScholzSearch:
    def test_bound_100(self):
        hits = scholz_counterexample_search(100)
        assert hits
        by_d = {d: (h_real, h_imag) for d, h_real, h_imag in hits}
        assert 69 in by_d
        # d = 69: -3*69 = -207 = -9*23 reduces to Q(sqrt(-23)) with h = 3,
        # while h+(69) = 2
        h_real, h_imag = by_d[69]
        assert h_imag == class_number_imaginary(-23) == 3
        assert h_real == class_number_real_narrow(69) == 2

    def test_bound_4_empty(self):
        assert scholz_counterexample_search(4) == []

    def test_emissions_revalidate(self):
        for d, h_real, h_imag in scholz_counterexample_search(100):
            assert is_squarefree(d)
            assert h_imag % 3 == 0 and h_real % 3 != 0
            kernel = -(d // 3) if d % 3 == 0 else -3 * d
            assert h_imag == class_number_imaginary(field_discriminant(kernel))
            assert h_real == class_number_real_narrow(field_discriminant(d))

    def test_ascending_and_deterministic(self):
        hits = scholz_counterexample_search(150)
        ds = [d for d, _, _ in hits]
        assert ds == sorted(ds)
        assert hits == scholz_counterexample_search(150)

    def test_workers_agree(self):
        assert scholz_counterexample_search(120, workers=4) == scholz_counterexample_search(120)

    def test_multiple_of_three_kernel(self):
        # d = 93 = 3*31: kernel is -31, h(-31) = 3
        h_imag = {d: h for d, _, h in scholz_counterexample_search(100)}
        assert h_imag[93] == class_number_imaginary(-31) == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="^bound must be at least 2$"):
            scholz_counterexample_search(1)
        with pytest.raises(ConfigurationError):
            scholz_counterexample_search(10**9)


class TestSeriesCsv:
    def test_series_format(self, tmp_path):
        series = CountSeries("N_demo", ((10, 1), (100, 4)))
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        assert path.read_text(encoding="utf-8") == "# N_demo\nX,count\n10,1\n100,4\n"

    def test_counterexample_format(self, tmp_path):
        items = [(69, 2, 3)]
        path = tmp_path / "ce.csv"
        write_counterexamples_csv(items, path)
        assert path.read_text(encoding="utf-8") == "d,h_real_narrow,h_imag\n69,2,3\n"


class TestPartition:
    CASES = ((2, 342, 2), (2, 342, 8), (5, 7, 8), (2, 2, 3), (10, 400, 1), (2, 20_000, 1_000))

    def test_contiguous_cover(self):
        for lo, hi, parts in self.CASES:
            chunks = _chunks(lo, hi, parts)
            assert 1 <= len(chunks) <= parts
            assert chunks[0][0] == lo and chunks[-1][1] == hi
            assert all(a <= b for a, b in chunks)
            assert all(a[1] + 1 == b[0] for a, b in zip(chunks, chunks[1:]))
        assert _chunks(5, 4, 2) == []

    def test_balanced_by_isqrt(self):
        # each chunk costs at most its equal share plus its dearest d
        for parts in (2, 3, 8):
            chunks = _chunks(2, 20_000, parts)
            assert len(chunks) == parts
            total = sum(map(math.isqrt, range(2, 20_001)))
            for lo, hi in chunks:
                assert sum(map(math.isqrt, range(lo, hi + 1))) <= total / parts + math.isqrt(hi)

    def test_matches_prefix_split_on_grid(self):
        grid = (1, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17, 99, 100, 101, 1_000, 20_000)
        for lo in grid:
            for hi in grid:
                for parts in (1, 2, 3, 7, 8, 64):
                    expected = chunks_by_prefix(lo, hi, parts, math.isqrt)
                    assert _chunks(lo, hi, parts) == expected, (lo, hi, parts)
        for parts in (2, 8):
            assert _chunks(2, 200_000, parts) == chunks_by_prefix(2, 200_000, parts, math.isqrt)

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=-1, max_value=5_000),
        st.integers(min_value=1, max_value=70),
    )
    def test_matches_prefix_split_on_random_ranges(self, lo, length, parts):
        hi = lo + length
        assert _chunks(lo, hi, parts) == chunks_by_prefix(lo, hi, parts, math.isqrt)


def _span(lo, hi):
    return list(range(lo, hi + 1))


def _fails_past_2(lo, hi):
    """Raises in every chunk but the first, which the caller runs."""
    if lo > 2:
        raise ArithmeticError(f"injected at {lo}")
    return _span(lo, hi)


def _caller_fails(lo, hi):
    """Raises in the caller's chunk; a child's chunk outlasts any test."""
    if lo == 2:
        raise ArithmeticError("injected in the caller")
    time.sleep(60)
    return _span(lo, hi)


def _child_exits(lo, hi):
    """A child ends at once, before it can send anything."""
    if lo > 2:
        os._exit(3)
    return _span(lo, hi)


class TestParallelMap:
    def test_results_in_range_order(self, forked):
        for workers in (1, 2, 3, 64):
            forked.clear()
            assert parallel_map(_span, 2, 5_000, workers) == _span(2, 5_000)
            # the caller runs the first chunk and forks one child for each other one
            assert forked == _chunks(2, 5_000, workers)[1:]
            assert len(forked) == min(workers, CPUS) - 1

    def test_pool_size_equals_chunk_count(self, forked):
        for lo, hi, workers in ((2, 20_000, 2), (2, 20_000, 5), (2, 20_000, 64), (5, 7, 64)):
            forked.clear()
            assert parallel_map(_span, lo, hi, workers) == _span(lo, hi)
            assert len(forked) == len(_chunks(lo, hi, workers)) - 1
        assert len(forked) == 2  # [5, 7] holds three indices, one for the caller

    def test_single_chunk_runs_in_process(self, forked):
        assert parallel_map(_span, 2, 10, 1) == _span(2, 10)
        assert parallel_map(_span, 7, 7, 8) == [7]
        assert parallel_map(_span, 8, 7, 8) == []
        assert forked == []

    def test_pool_bounded_by_cpu_count(self, forked, monkeypatch):
        assert parallel_map(_span, 2, 20_000, 20_000) == _span(2, 20_000)
        assert len(forked) == CPUS - 1
        # an unknown CPU count allows one process: the range runs in-process
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert parallel_map(_span, 2, 10, 20_000) == _span(2, 10)
        assert len(forked) == CPUS - 1

    def test_without_fork_runs_in_process(self, forked, monkeypatch):
        # as on Windows: the whole range is one chunk, whatever the workers
        monkeypatch.delattr(os, "fork")
        assert parallel_map(_span, 2, 5_000, 64) == _span(2, 5_000)
        assert forked == []

    def test_two_process_pool_keeps_range_order(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert len(_chunks(2, 3_000, 2)) == 2
        assert parallel_map(_span, 2, 3_000, 2) == _span(2, 3_000)
        assert_no_child()

    def test_child_exception_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        (_, _), (a, _) = _chunks(2, 3_000, 2)
        with pytest.raises(ArithmeticError, match=f"^injected at {a}$"):
            parallel_map(_fails_past_2, 2, 3_000, 2)
        assert_no_child()

    def test_caller_exception_leaves_no_child(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        t0 = time.monotonic()
        with pytest.raises(ArithmeticError, match="^injected in the caller$"):
            parallel_map(_caller_fails, 2, 3_000, 2)
        assert_no_child()
        assert time.monotonic() - t0 < 30  # the child was killed, not waited for

    def test_child_without_result_names_its_chunk(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        (_, _), (a, b) = _chunks(2, 3_000, 2)
        with pytest.raises(RuntimeError, match=rf"^the child for \[{a}, {b}\] ended without"):
            parallel_map(_child_exits, 2, 3_000, 2)
        assert_no_child()

    def test_failed_fork_leaves_no_child_or_pipe(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        fork = os.fork
        attempts = []

        def fork_once():
            attempts.append(None)
            if len(attempts) == 2:
                raise OSError(errno.EAGAIN, "injected fork failure")
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        fds = Path("/proc/self/fd")
        open_before = len(list(fds.iterdir())) if fds.is_dir() else None
        with pytest.raises(OSError, match="injected fork failure") as raised:
            parallel_map(_span, 2, 3_000, 3)
        assert raised.value.errno == errno.EAGAIN
        assert len(attempts) == 2
        # the child forked first was killed and reaped, and both pipes closed
        assert_no_child()
        if open_before is not None:
            assert len(list(fds.iterdir())) == open_before

    def test_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            parallel_map(_span, 2, 10, 0)
