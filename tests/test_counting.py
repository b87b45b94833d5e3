"""Count-series, slope-fit, and falsifier tests."""

import math

import pytest

from ccsieve.classnum import (
    class_number_imaginary,
    class_number_real_narrow,
    field_discriminant,
    three_divides_real_class_number,
)
from ccsieve.counting import (
    CountSeries,
    fit_slope,
    honda_count_series,
    scholz_counterexample_search,
    truth_count_series,
    write_counterexamples_csv,
    write_series_csv,
)
from ccsieve.honda import ConfigurationError, EnumConfig, enumerate_discriminants
from ccsieve.intmath import is_squarefree


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
        with pytest.raises(ValueError):
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
