"""Witness validation and enumeration tests.

Arithmetic in the frozen examples is re-derivable by hand: the identity
values are exact, cubic rootlessness was checked by the divisor scan that
test_intmath validated against a full-interval oracle, and factorizations
are verified inline where they matter.
"""

import hashlib
import math

import pytest

from ccsieve.honda import (
    REJECT_CUBIC,
    REJECT_GCD,
    REJECT_IDENTITY,
    REJECT_SQUAREFREE,
    ConfigurationError,
    EnumConfig,
    HondaWitness,
    WitnessRejection,
    WitnessedDiscriminant,
    _partition,
    candidate_from_pair,
    derived_m_max,
    enumerate_discriminants,
    read_witnesses_csv,
    validate_witness,
    write_witnesses_csv,
)
from ccsieve.intmath import is_squarefree
from ccsieve.classnum import three_divides_real_class_number


class TestCandidateFromPair:
    def test_examples(self):
        assert candidate_from_pair(4, 1) == (1, 229)  # 256 - 27, and 229 is prime
        assert candidate_from_pair(7, 2) == (4, 79)  # 1372 - 108 = 1264 = 16*79
        assert candidate_from_pair(1, 1) is None  # 4 - 27 < 0

    def test_t_below_two_is_empty(self):
        # m=1, n=... only t = 4 - 27n^2 < 0; craft t = 1 via no small pair,
        # so check the boundary through the formula directly
        assert candidate_from_pair(3, 2) is None  # 108 - 108 = 0
        assert candidate_from_pair(2, 1) == (1, 5)  # 32 - 27 = 5

    def test_d_one_possible(self):
        # (m, n) = (3, 1): t = 81 = 9^2, so u = 9, d = 1; filtering d >= 2
        # is the caller's job
        assert candidate_from_pair(3, 1) == (9, 1)

    def test_overflow_guard(self):
        big_m = 10**14
        with pytest.raises(OverflowError):
            candidate_from_pair(big_m, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            candidate_from_pair(0, 1)
        with pytest.raises(ValueError):
            candidate_from_pair(4, 0)


class TestValidateWitness:
    def test_valid_example(self):
        w = validate_witness(n=1, u=1, m=4, d=229)
        assert w == HondaWitness(n=1, u=1, m=4, d=229)
        assert 27 * 1 + 229 * 1 == 4 * 64

    def test_gcd_rejection(self):
        # identity holds: 27 + 81 = 108 = 4*27, but gcd(3, 3) = 3
        res = validate_witness(n=1, u=1, m=3, d=81)
        assert isinstance(res, WitnessRejection)
        assert res.reason == REJECT_GCD

    def test_cubic_rejection(self):
        # 27*36 + 400 = 1372 = 4*343 and gcd(7, 18) = 1, but X^3-7X+6 has
        # the root 1, which is hit before the squarefree check of 400
        res = validate_witness(n=6, u=1, m=7, d=400)
        assert isinstance(res, WitnessRejection)
        assert res.reason == REJECT_CUBIC

    def test_identity_rejection(self):
        res = validate_witness(n=1, u=1, m=4, d=230)
        assert isinstance(res, WitnessRejection)
        assert res.reason == REJECT_IDENTITY

    def test_squarefree_rejection(self):
        # 27*16 + 940 = 1372 = 4*343, gcd(7, 12) = 1, X^3-7X+4 rootless
        # (divisors 1, 2, 4 give -2, -2, 40; negatives give 10, 10, -32),
        # but 940 = 2^2 * 235
        res = validate_witness(n=4, u=1, m=7, d=940)
        assert isinstance(res, WitnessRejection)
        assert res.reason == REJECT_SQUAREFREE

    def test_rejection_order_is_fixed(self):
        # (n, u, m, d) = (6, 20, 7, 1): identity holds (972 + 400 = 1372)
        # and gcd(7, 18) = 1, but the cubic root at 1 is reported before
        # the d >= 2 violation
        res = validate_witness(n=6, u=20, m=7, d=1)
        assert isinstance(res, WitnessRejection)
        assert res.reason == REJECT_CUBIC
        # gcd is reported before the cubic root when both fail:
        # (n, u, m, d) = (1, 9, 3, 1) has identity 27 + 81 = 108 = 4*27
        res = validate_witness(n=1, u=9, m=3, d=1)
        assert isinstance(res, WitnessRejection)
        assert res.reason == REJECT_GCD

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            validate_witness(n=0, u=1, m=4, d=229)


class TestEnumerate:
    def test_contains_known_witnesses(self):
        found = {wd.d: wd.witness for wd in enumerate_discriminants(229)}
        assert found[229] == HondaWitness(n=1, u=1, m=4, d=229)
        found79 = {wd.d: wd.witness for wd in enumerate_discriminants(79)}
        assert found79[79] == HondaWitness(n=2, u=4, m=7, d=79)

    def test_smallest_bound_is_empty(self):
        assert enumerate_discriminants(2) == []

    def test_x300(self):
        ds = [wd.d for wd in enumerate_discriminants(300)]
        assert 229 in ds and 79 in ds
        assert ds == sorted(ds)

    def test_round_trip_validation(self):
        for wd in enumerate_discriminants(10_000):
            w = wd.witness
            assert w.d == wd.d
            assert validate_witness(n=w.n, u=w.u, m=w.m, d=w.d) == w

    def test_identity_conservation(self):
        for wd in enumerate_discriminants(5_000):
            w = wd.witness
            assert 27 * w.n**2 + w.d * w.u**2 - 4 * w.m**3 == 0

    def test_emitted_d_squarefree_and_bounded(self):
        for x in (300, 2_000):
            for wd in enumerate_discriminants(x):
                assert 2 <= wd.d <= x
                assert is_squarefree(wd.d)

    def test_monotone_in_x(self):
        small = {wd.d: wd.witness for wd in enumerate_discriminants(1_000)}
        large = {wd.d: wd.witness for wd in enumerate_discriminants(10_000)}
        assert set(small) <= set(large)
        for d, w in small.items():
            assert large[d] == w

    def test_partition_determinism(self):
        base = enumerate_discriminants(20_000, EnumConfig(workers=1))
        for k in (2, 8):
            assert enumerate_discriminants(20_000, EnumConfig(workers=k)) == base

    def test_shortcut_subfamily(self):
        full = {wd.d: wd for wd in enumerate_discriminants(20_000)}
        sub = enumerate_discriminants(20_000, EnumConfig(shortcut_only=True))
        assert sub  # the sub-family is far from empty
        for wd in sub:
            assert wd.d in full
            assert wd.witness.m % 3 == 1 and wd.witness.n % 3 != 0

    def test_criterion_soundness_small(self):
        # every emitted d must satisfy the oracle; the acceptance suite
        # repeats this at the full desk scale
        for wd in enumerate_discriminants(2_000):
            assert three_divides_real_class_number(wd.d), wd

    def test_x_below_two_rejected(self):
        with pytest.raises(ValueError):
            enumerate_discriminants(1)

    def test_cap_exceeded_is_config_error(self):
        with pytest.raises(ConfigurationError):
            enumerate_discriminants(2_000_000, EnumConfig(x_cap=1_000_000))

    def test_intermediate_budget_checked_before_sweep(self):
        cfg = EnumConfig(u_cap=10**15, n_max=0, x_cap=10**45)
        with pytest.raises(ConfigurationError):
            enumerate_discriminants(10**45, cfg)

    def test_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            enumerate_discriminants(100, EnumConfig(workers=0))


class TestLargeCounts:
    """N_honda at the default box beyond the reference series."""

    def test_ten_to_the_seven(self, tmp_path):
        items = enumerate_discriminants(10**7, EnumConfig(x_cap=10**7))
        assert len(items) == 56_407
        path = tmp_path / "witnesses.csv"
        write_witnesses_csv(items, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ae950a446e8e93911962a9d140d620b10aa8cf1a6eaddd36a64bcf411bd37d6b"
        )

    def test_ten_to_the_eight(self):
        items = enumerate_discriminants(10**8, EnumConfig(x_cap=10**8))
        assert len(items) == 394_460


class TestPartition:
    @staticmethod
    def row_length(m):
        return math.isqrt((4 * m**3 - 1) // 27)

    def test_contiguous_cover(self):
        for m_lo, m_hi, parts in ((2, 342, 2), (2, 342, 8), (5, 7, 8), (2, 2, 3), (10, 400, 1)):
            chunks = _partition(m_lo, m_hi, parts)
            assert 1 <= len(chunks) <= parts
            assert chunks[0][0] == m_lo and chunks[-1][1] == m_hi
            assert all(lo <= hi for lo, hi in chunks)
            assert all(a[1] + 1 == b[0] for a, b in zip(chunks, chunks[1:]))
        assert _partition(5, 4, 2) == []

    def test_balanced_by_row_length(self):
        # each chunk costs at most its equal share plus one row
        for parts in (2, 3, 8):
            chunks = _partition(2, 342, parts)
            assert len(chunks) == parts
            total = sum(self.row_length(m) for m in range(2, 343))
            longest = self.row_length(342)
            for lo, hi in chunks:
                assert sum(self.row_length(m) for m in range(lo, hi + 1)) <= total / parts + longest


class TestMBound:
    def test_derived_m_max(self):
        cfg = EnumConfig(u_cap=4, n_max=0)
        # 4*m^3 <= 300*16 = 4800: m = 10 fits (4000), m = 11 does not (5324)
        assert derived_m_max(300, cfg) == 10

    def test_box_guarantee(self):
        # every witness with u <= u_cap, n <= n_max, d <= X has m inside
        cfg = EnumConfig(u_cap=4, n_max=32)
        X = 5_000
        m_hi = derived_m_max(X, cfg)
        assert 4 * (m_hi + 1) ** 3 > X * cfg.u_cap**2 + 27 * cfg.n_max**2


class TestWitnessCsv:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "witnesses.csv"
        write_witnesses_csv(enumerate_discriminants(300), path)
        assert path.read_bytes() == (
            b"d,m,n,u\n79,7,2,4\n229,4,1,1\n235,7,4,2\n257,5,3,1\n"
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "witnesses.csv"
        items = enumerate_discriminants(2_000)
        write_witnesses_csv(items, path)
        rows = read_witnesses_csv(path)
        assert rows == [(wd.d, wd.witness.m, wd.witness.n, wd.witness.u) for wd in items]

    def test_reader_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("d,m,n,u\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_witnesses_csv(path)
        path.write_text("wrong,header\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_witnesses_csv(path)
