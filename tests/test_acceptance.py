"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines as they print.  Tolerances are pinned here and nowhere else:

  1. zero oracle failures over all emitted d <= 10^4, under 120 s
  2. exact witness identity on every CSV row, tolerance zero
  3. shortcut soundness exhaustive on 1 <= m, n <= 500, under 1 s
  4. d = 229 and d = 79 present at X = 300 with their known witnesses,
     both oracle-confirmed
  5. falsifier nonempty at bound 100 (includes d = 69), under 10 s
  6. sieve-count slope over 10^3..10^6 within [S0 - 0.1, 1.0], where
     S0 = 0.8095 comes from the committed reference run
     (configs/reference.cfg); truth dominates sieve at every shared
     checkpoint
  7. analytic estimate within +-0.5 of h+ or h+/2 for all fundamental
     0 < D <= 500; widened-window recount stable for -500 <= D < 0;
     under 30 s
  8. byte-identical artifacts for workers 1, 2, 8: witnesses.csv from
     enumerate (one process whatever the count), and the pool paths,
     n_truth.csv from count and counterexamples.csv from falsify-scholz
"""

import time
from pathlib import Path

import pytest

from ccsieve.classnum import (
    class_number_imaginary,
    class_number_real_narrow,
    is_fundamental_discriminant,
    three_divides_real_class_number,
)
from ccsieve.cli import main
from ccsieve.counting import (
    fit_slope,
    honda_count_series,
    truth_count_series,
)
from ccsieve.honda import enumerate_discriminants
from ccsieve.intmath import cubic_has_integer_root
from reference import analytic_estimate_real, imaginary_count_widened, mod3_shortcut_no_root

# Slope of the committed reference run (configs/reference.cfg, window
# 10^3..10^6); the acceptance band is [S0 - 0.1, 1.0].
REFERENCE_SLOPE = 0.8095
REFERENCE_CHECKPOINTS = (100, 1_000, 10_000, 100_000, 1_000_000)
REFERENCE_SERIES_CSV = Path(__file__).resolve().parent.parent / "configs" / "reference_n_honda.csv"


def _criterion(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def honda_series_1e6():
    return honda_count_series(REFERENCE_CHECKPOINTS)


@pytest.fixture(scope="module")
def truth_series_1e4():
    return truth_count_series((100, 1_000, 10_000))


def test_criterion_1_soundness_at_desk_scale(tmp_path, capsys):
    t0 = time.perf_counter()
    assert main(["enumerate", "--x-max", "10000", "--out", str(tmp_path)]) == 0
    code = main(["verify", "--out", str(tmp_path), "--truth-x-max", "10000"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    checked = int(next(l for l in out.splitlines() if l.startswith("checked: ")).split(": ")[1])
    ok = code == 0 and "failed: 0" in out and checked > 0 and elapsed < 120.0
    _criterion(
        1,
        f"cmd_verify over {checked} emitted d <= 10^4: failed = 0 in {elapsed:.1f}s",
        ok,
    )


def test_criterion_2_exact_identity(tmp_path):
    assert main(["enumerate", "--x-max", "1000000", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "witnesses.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "d,m,n,u"
    violations = 0
    for row in rows[1:]:
        d, m, n, u = (int(p) for p in row.split(","))
        if 27 * n * n + d * u * u != 4 * m * m * m:
            violations += 1
    _criterion(
        2,
        f"exact identity on all {len(rows) - 1} witness rows, {violations} violations",
        violations == 0 and len(rows) > 1,
    )


def test_criterion_3_shortcut_soundness():
    t0 = time.perf_counter()
    violations = sum(
        1
        for m in range(1, 501)
        for n in range(1, 501)
        if mod3_shortcut_no_root(m, n) and cubic_has_integer_root(m, n)
    )
    elapsed = time.perf_counter() - t0
    _criterion(
        3,
        f"shortcut soundness over 500x500: {violations} exceptions in {elapsed:.2f}s",
        violations == 0 and elapsed < 1.0,
    )


def test_criterion_4_known_witnesses():
    found = {w[0]: w for w in enumerate_discriminants(300)}
    ok = (
        found.get(229) == (229, 4, 1, 1)
        and found.get(79) == (79, 7, 2, 4)
        and class_number_real_narrow(229) % 3 == 0
        and three_divides_real_class_number(79)
    )
    _criterion(4, "d=229 (m=4,n=1,u=1) and d=79 (m=7,n=2,u=4) present and oracle-confirmed", ok)


def test_criterion_5_scholz_falsification(tmp_path):
    t0 = time.perf_counter()
    code = main(["falsify-scholz", "--scholz-bound", "100", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    text = (tmp_path / "counterexamples.csv").read_text(encoding="utf-8")
    n_hits = len(text.splitlines()) - 1
    ok = code == 0 and n_hits >= 1 and "69,2,3\n" in text and elapsed < 10.0
    _criterion(
        5,
        f"falsify-scholz bound 100: {n_hits} counterexamples incl. d=69 in {elapsed:.1f}s",
        ok,
    )


def test_criterion_6_growth_trend(honda_series_1e6, truth_series_1e4):
    report = fit_slope(honda_series_1e6, (1_000, 1_000_000))
    lo, hi = REFERENCE_SLOPE - 0.1, 1.0
    slope_ok = lo <= report.slope <= hi
    honda_at = dict(honda_series_1e6.checkpoints)
    dominance_failures = [
        (x, c, honda_at[x])
        for x, c in truth_series_1e4.checkpoints
        if c < honda_at[x]
    ]
    # the committed reference series must be reproduced byte-for-byte
    regenerated = "# N_honda\nX,count\n" + "".join(
        f"{x},{c}\n" for x, c in honda_series_1e6.checkpoints
    )
    reference_ok = REFERENCE_SERIES_CSV.read_text(encoding="utf-8") == regenerated
    _criterion(
        6,
        f"slope {report.slope:.4f} in [{lo:.4f}, {hi:.4f}]; "
        f"{len(dominance_failures)} dominance violations; reference series reproduced",
        slope_ok and not dominance_failures and reference_ok,
    )


def test_criterion_7_oracle_cross_validation():
    t0 = time.perf_counter()
    real_failures = []
    for D in range(2, 501):
        if not is_fundamental_discriminant(D):
            continue
        h_plus = class_number_real_narrow(D)
        est = analytic_estimate_real(D)
        if not (abs(est.value - h_plus) <= 0.5 or abs(est.value - h_plus / 2) <= 0.5):
            real_failures.append((D, h_plus, est.value))
    imag_failures = []
    for D in range(-500, 0):
        if not is_fundamental_discriminant(D):
            continue
        if imaginary_count_widened(D) != class_number_imaginary(D):
            imag_failures.append(D)
    elapsed = time.perf_counter() - t0
    _criterion(
        7,
        f"analytic vs cycle count (|D| <= 500): {len(real_failures)} real + "
        f"{len(imag_failures)} imaginary failures in {elapsed:.1f}s",
        not real_failures and not imag_failures and elapsed < 30.0,
    )


def test_criterion_8_worker_determinism(tmp_path):
    runs = {
        "witnesses.csv": ["enumerate", "--x-max", "10000"],
        "n_truth.csv": [
            "count", "--checkpoints", "100,1000,5000", "--x-max", "5000", "--truth-x-max", "5000"
        ],
        "counterexamples.csv": ["falsify-scholz", "--scholz-bound", "1000"],
    }
    blobs = {name: [] for name in runs}
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        for name, argv in runs.items():
            assert main([*argv, "--workers", str(workers), "--out", str(out)]) == 0
            blobs[name].append((out / name).read_bytes())
    _criterion(
        8,
        "witnesses.csv, n_truth.csv and counterexamples.csv byte-identical "
        "for workers in {1, 2, 8}",
        all(a == b == c and a.count(b"\n") > 2 for a, b, c in blobs.values()),
    )
