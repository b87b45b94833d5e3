"""Witness validation and enumeration tests.

Arithmetic in the frozen examples is re-derivable by hand: the identity
values are exact, cubic rootlessness was checked by the divisor scan that
test_intmath validated against a full-interval oracle, and factorizations
are verified inline where they matter.
"""

import hashlib
import math
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsieve import honda
from ccsieve.honda import (
    ConfigurationError,
    EnumConfig,
    derived_m_max,
    enumerate_discriminants,
    read_witnesses_csv,
    validate_witness,
    write_csv,
    write_witnesses_csv,
)
from ccsieve.intmath import icbrt, is_squarefree
from ccsieve.classnum import three_divides_real_class_number
from conftest import CPUS, assert_no_child
from reference import cubic_root_by_divisors


class TestValidateWitness:
    def test_valid_example(self):
        assert validate_witness(229, 4, 1, 1) is None
        assert 27 * 1 + 229 * 1 == 4 * 64

    def test_gcd_rejection(self):
        # identity holds: 27 + 81 = 108 = 4*27, but gcd(3, 3) = 3
        with pytest.raises(ValueError, match=r"^gcd: gcd\(3, 3\*1\) = 3$"):
            validate_witness(81, 3, 1, 1)

    def test_cubic_rejection(self):
        # 27*36 + 400 = 1372 = 4*343 and gcd(7, 18) = 1, but X^3-7X+6 has
        # the root 1, which is hit before the squarefree check of 400
        message = r"^cubic-root: X\^3 - 7\*X \+ 6 has an integer root$"
        with pytest.raises(ValueError, match=message):
            validate_witness(400, 7, 6, 1)

    def test_identity_rejection(self):
        message = r"^identity: 27\*1\^2 \+ 230\*1\^2 = 257 != 256 = 4\*4\^3$"
        with pytest.raises(ValueError, match=message):
            validate_witness(230, 4, 1, 1)

    def test_squarefree_rejection(self):
        # 27*16 + 940 = 1372 = 4*343, gcd(7, 12) = 1, X^3-7X+4 rootless
        # (divisors 1, 2, 4 give -2, -2, 40; negatives give 10, 10, -32),
        # but 940 = 2^2 * 235
        with pytest.raises(ValueError, match=r"^squarefree: d = 940 is not a squarefree integer >= 2$"):
            validate_witness(940, 7, 4, 1)

    def test_rejects_each_row_at_1e6_with_its_square_moved_into_d(self):
        # (d*u^2, m, n, 1) keeps the identity, gcd(m, 3n) = 1 and the
        # rootless cubic of a row with u > 1, so only the squarefree check
        # fails; the d*u^2 have 10 to 24 bits, up to the table's entries
        # for the primes below 2^8
        rows = [(d * u * u, m, n) for d, m, n, u in enumerate_discriminants(10**6) if u > 1]
        assert len(rows) == 5_252
        for t, m, n in rows:
            assert 27 * n * n + t == 4 * m**3
            assert math.gcd(m, 3 * n) == 1
            assert not cubic_root_by_divisors(m, n)
            message = f"^squarefree: d = {t} is not a squarefree integer >= 2$"
            with pytest.raises(ValueError, match=message):
                validate_witness(t, m, n, 1)

    def test_rejection_order_is_fixed(self):
        # (d, m, n, u) = (1, 7, 6, 20): identity holds (972 + 400 = 1372)
        # and gcd(7, 18) = 1, but the cubic root at 1 is reported before
        # the d >= 2 violation
        with pytest.raises(ValueError, match=r"^cubic-root: "):
            validate_witness(1, 7, 6, 20)
        # gcd is reported before the cubic root when both fail:
        # (d, m, n, u) = (1, 3, 1, 9) has identity 27 + 81 = 108 = 4*27
        with pytest.raises(ValueError, match=r"^gcd: "):
            validate_witness(1, 3, 1, 9)

    def test_rejects_nonpositive_inputs(self):
        # positivity is checked first, before the identity
        with pytest.raises(ValueError, match=r"^witness components must be positive$"):
            validate_witness(229, 4, 0, 1)


class TestEnumerate:
    def test_contains_known_witnesses(self):
        found = {w[0]: w for w in enumerate_discriminants(229)}
        assert found[229] == (229, 4, 1, 1)
        found79 = {w[0]: w for w in enumerate_discriminants(79)}
        assert found79[79] == (79, 7, 2, 4)

    def test_smallest_bound_is_empty(self):
        assert list(enumerate_discriminants(2)) == []

    @pytest.mark.parametrize("shortcut_only", [False, True])
    def test_rows_view_is_sized_and_re_iterable(self, shortcut_only):
        rows = enumerate_discriminants(20_000, EnumConfig(shortcut_only=shortcut_only))
        first = list(rows)
        assert len(rows) == len(first) > 0
        assert list(rows) == first
        assert all(len(row) == 4 and all(type(f) is int for f in row) for row in first)

    def test_x300(self):
        ds = [d for d, m, n, u in enumerate_discriminants(300)]
        assert 229 in ds and 79 in ds
        assert ds == sorted(ds)

    def test_round_trip_validation(self):
        for w in enumerate_discriminants(10_000):
            assert validate_witness(*w) is None

    def test_identity_conservation(self):
        for d, m, n, u in enumerate_discriminants(5_000):
            assert 27 * n**2 + d * u**2 - 4 * m**3 == 0

    def test_emitted_d_squarefree_and_bounded(self):
        for x in (300, 2_000):
            for d, m, n, u in enumerate_discriminants(x):
                assert 2 <= d <= x
                assert is_squarefree(d)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=2, max_value=10**6 - 1), st.data())
    def test_monotone_in_x(self, x, data):
        # the rows at x are exactly the rows at any larger bound with d <= x
        # and m in x's box: rows run in ascending m, first hit per d
        x_large = data.draw(st.integers(min_value=x + 1, max_value=10**6))
        for config in (EnumConfig(), EnumConfig(shortcut_only=True)):
            m_hi = derived_m_max(x, config)
            large = enumerate_discriminants(x_large, config)
            expected = [w for w in large if w[0] <= x and w[1] <= m_hi]
            assert list(enumerate_discriminants(x, config)) == expected

    def test_shortcut_subfamily(self):
        full = {w[0] for w in enumerate_discriminants(20_000)}
        sub = enumerate_discriminants(20_000, EnumConfig(shortcut_only=True))
        assert sub  # the sub-family is far from empty
        for d, m, n, u in sub:
            assert d in full
            assert m % 3 == 1 and n % 3 != 0

    def test_criterion_soundness_small(self):
        # every emitted d must satisfy the oracle; the acceptance suite
        # repeats this at the full desk scale
        for w in enumerate_discriminants(2_000):
            assert three_divides_real_class_number(w[0]), w

    def test_x_below_two_rejected(self):
        with pytest.raises(ConfigurationError, match="^X must be at least 2$"):
            enumerate_discriminants(1)

    def test_cap_exceeded_is_config_error(self):
        with pytest.raises(ConfigurationError):
            enumerate_discriminants(2_000_000, EnumConfig(x_cap=1_000_000))


def _swept_m(X, shortcut_only):
    """The m whose rows the sweep to X runs: prime to 3, and 1 (mod 3) for
    the shortcut family."""
    m_hi = derived_m_max(X, EnumConfig())
    return [m for m in range(2, m_hi + 1) if m % 3 == 1 or (m % 3 == 2 and not shortcut_only)]


class TestSplitSweep:
    @pytest.mark.parametrize("X", [2, 10**5])
    @pytest.mark.parametrize("shortcut_only", [False, True])
    def test_rows_equal_the_one_process_rows(self, forked, X, shortcut_only):
        config = EnumConfig(shortcut_only=shortcut_only)
        rows = list(enumerate_discriminants(X, config))
        assert forked == []
        for workers in (1, 2, 3, 64):
            forked.clear()
            assert list(enumerate_discriminants(X, config, workers)) == rows
            # one part per process, never more parts than rows; the caller runs the first
            assert len(forked) == min(workers, CPUS, len(_swept_m(X, shortcut_only))) - 1

    @pytest.mark.parametrize("shortcut_only", [False, True])
    def test_deal_runs_each_row_once_and_balances_two_parts(
        self, forked, monkeypatch, shortcut_only
    ):
        parts = []
        monkeypatch.setattr(honda, "_sweep_rows", lambda part, *args: parts.append(part) or [])
        config = EnumConfig(x_cap=10**9, shortcut_only=shortcut_only)
        for X in (2, 10**5, 10**9):
            swept = _swept_m(X, shortcut_only)
            for workers in (1, 2, 3, 64):
                parts.clear()
                enumerate_discriminants(X, config, workers)
                assert len(parts) == min(workers, len(swept))
                assert sorted(m for part in parts for m in part) == swept
            parts.clear()
            enumerate_discriminants(X, config, 2)
            a, b = parts
            # rows and even rows, which keep half their n
            assert abs(len(a) - len(b)) <= 1
            assert abs(sum(m % 2 == 0 for m in a) - sum(m % 2 == 0 for m in b)) <= 1

    def test_two_process_sweep(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        fork = os.fork
        forks = []
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        rows = list(enumerate_discriminants(10**6))
        assert forks == []
        assert list(enumerate_discriminants(10**6, EnumConfig(), 2)) == rows
        assert len(forks) == 1
        assert_no_child()

    def test_child_exception_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        caller = os.getpid()
        sieve_row = honda._sieve_row

        def fails_in_child(m, *args):
            if os.getpid() != caller:
                raise ArithmeticError(f"injected at m = {m}")
            return sieve_row(m, *args)

        monkeypatch.setattr(honda, "_sieve_row", fails_in_child)
        # the child's part starts with the second swept m, 4
        with pytest.raises(ArithmeticError, match="^injected at m = 4$"):
            enumerate_discriminants(10**5, EnumConfig(), 2)
        assert_no_child()

    def test_bad_worker_count(self):
        with pytest.raises(ConfigurationError, match="^workers must be >= 1$"):
            enumerate_discriminants(10**5, EnumConfig(), 0)


class TestLargeCounts:
    """N_honda at the default box beyond the reference series."""

    def test_ten_to_the_seven(self, tmp_path):
        rows = enumerate_discriminants(10**7, EnumConfig(x_cap=10**7))
        assert len(rows) == 56_407
        path = tmp_path / "witnesses.csv"
        write_witnesses_csv(rows, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ae950a446e8e93911962a9d140d620b10aa8cf1a6eaddd36a64bcf411bd37d6b"
        )

    def test_ten_to_the_eight(self, tmp_path):
        rows = enumerate_discriminants(10**8, EnumConfig(x_cap=10**8))
        assert len(rows) == 394_460
        path = tmp_path / "witnesses.csv"
        write_witnesses_csv(rows, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "f5297c4ca74852a8a063e57f7d1b5cb0fe390329b76ec3b9305aad20380e149f"
        )


class TestMBound:
    def test_box_is_fixed(self):
        # the box u <= 4, n <= 32 is a constant of the sweep, not a knob
        assert (EnumConfig.u_cap, EnumConfig.n_max) == (4, 32)
        assert EnumConfig._fields == ("x_cap", "shortcut_only")
        with pytest.raises(TypeError):
            EnumConfig(u_cap=4)
        with pytest.raises(TypeError):
            EnumConfig(n_max=32)

    def test_derived_m_max(self):
        # 4*m^3 <= 300*16 + 27*32^2 = 32448: m = 20 fits (32000), m = 21
        # does not (37044)
        assert derived_m_max(300, EnumConfig()) == 20

    def test_box_guarantee(self):
        # every witness with u <= u_cap, n <= n_max, d <= X has m inside
        cfg = EnumConfig()
        X = 5_000
        m_hi = derived_m_max(X, cfg)
        assert 4 * (m_hi + 1) ** 3 > X * cfg.u_cap**2 + 27 * cfg.n_max**2

    @pytest.mark.parametrize("X, box_size", [(20_000, 139), (1_000_000, 873)])
    def test_box_complete_and_lex_least(self, X, box_size):
        # brute force over the guaranteed box u <= 4, n <= 32: every d with
        # a witness there is emitted, with a witness lex-<= its least one
        box: dict[int, tuple[int, int, int]] = {}
        for m in range(1, icbrt((16 * X + 27 * 32**2) // 4) + 1):
            for n in range(1, 33):
                for u in range(1, 5):
                    d, rem = divmod(4 * m**3 - 27 * n * n, u * u)
                    if rem or not 2 <= d <= X:
                        continue
                    try:
                        validate_witness(d, m, n, u)
                    except ValueError:
                        continue
                    box.setdefault(d, (m, n, u))  # ascending (m, n, u): the first is least
        emitted = {d: (m, n, u) for d, m, n, u in enumerate_discriminants(X)}
        assert len(box) == box_size
        assert [d for d in box if d not in emitted] == []
        assert [d for d in box if emitted[d] > box[d]] == []


class TestWitnessCsv:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "witnesses.csv"
        write_witnesses_csv(enumerate_discriminants(300), path)
        assert path.read_bytes() == (
            b"d,m,n,u\n79,7,2,4\n229,4,1,1\n235,7,4,2\n257,5,3,1\n"
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "witnesses.csv"
        rows = list(enumerate_discriminants(2_000))
        write_witnesses_csv(rows, path)
        assert list(read_witnesses_csv(path)) == rows

    def test_reader_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("d,m,n,u\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            list(read_witnesses_csv(path))
        path.write_text("wrong,header\n", encoding="utf-8")
        with pytest.raises(ValueError):
            list(read_witnesses_csv(path))
        # int() accepts every one of these; write_csv never writes them
        for row in ("2_29,4,1,1", "+235,7,4,2", "079,7,2,4", "229, 4,1,1", "229,4 ,1,1",
                    "\u0662\u0662\u0669,4,1,1", "-0,4,1,1"):
            path.write_text(f"d,m,n,u\n{row}\n", encoding="utf-8")
            with pytest.raises(ValueError, match="malformed row"):
                list(read_witnesses_csv(path))
        # nor CR, spaces around a row, blank lines, or a line without its LF
        for text, message in (
            ("d,m,n,u\r\n229,4,1,1\r\n", "unexpected header"),
            ("d,m,n,u\n229,4,1,1\r\n", r"malformed row: '229,4,1,1\\r'"),
            ("d,m,n,u\n 229,4,1,1\n", "malformed row: ' 229,4,1,1'"),
            ("d,m,n,u\n229,4,1,1 \n", "malformed row: '229,4,1,1 '"),
            ("d,m,n,u\n\n229,4,1,1\n", "malformed row: ''"),
            ("d,m,n,u\n229,4,1,1\n \n", "malformed row: ' '"),
            ("d,m,n,u\n229,4,1,1", "malformed row: '229,4,1,1'"),
            ("d,m,n,u", "unexpected header"),
        ):
            path.write_bytes(text.encode("utf-8"))
            with pytest.raises(ValueError, match=message):
                list(read_witnesses_csv(path))

    @pytest.mark.parametrize(
        "spelling",
        ["1.0", "1e3", "1e+16", "NaN", "Infinity", "-Infinity", "[]", "[1]", "{}",
         "true", "null", '"1"', "\t"],
    )
    @pytest.mark.parametrize("k", [0, 3], ids=["first-field", "last-field"])
    def test_json_only_spellings_are_malformed(self, tmp_path, spelling, k):
        # each block is decoded as one JSON array, which reads all of these
        # as values; %s gives back [], [1], {}, 1.0 and 1e+16 as spelled
        fields = ["229", "4", "1", "1"]
        fields[k] = "\t" + fields[k] if spelling == "\t" else spelling
        line = ",".join(fields)
        path = tmp_path / "witnesses.csv"
        path.write_text(f"d,m,n,u\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^" + re.escape(f"malformed row: {line!r}") + "$"):
            list(read_witnesses_csv(path))

    def test_object_on_the_second_line_of_a_block(self, tmp_path):
        # the first line is a row, but the block holding it is refused whole
        path = tmp_path / "witnesses.csv"
        path.write_bytes(b"d,m,n,u\n229,4,1,1\n{},2,3,4\n")
        with pytest.raises(ValueError, match=r"^malformed row: '\{\},2,3,4'$"):
            next(iter(read_witnesses_csv(path)))

    def test_field_counts_that_shift_between_lines(self, tmp_path):
        # 3 + 5 fields fill the template of two rows, 1,2,3,4 and 5,6,7,8,
        # but neither line is a row
        path = tmp_path / "witnesses.csv"
        path.write_bytes(b"d,m,n,u\n1,2,3\n4,5,6,7,8\n")
        with pytest.raises(ValueError, match=r"^malformed row: '1,2,3'$"):
            list(read_witnesses_csv(path))

    @pytest.mark.parametrize(
        "edits",
        [(6_000,), (100, 6_000), (5_000, 5_001), (6_000, 7_980)],
        ids=["past-first-block", "first-block-and-later", "same-later-block", "two-later-blocks"],
    )
    def test_names_the_first_bad_line_of_a_multi_block_file(self, tmp_path, edits):
        # the 7,981 rows at 10^6 take 126,211 bytes, which the reader takes
        # in 16 blocks of about 8 KiB: the first ends at row 580, rows 5,000
        # and 5,001 share a block, and rows 6,000 and 7,980 do not
        path = tmp_path / "witnesses.csv"
        rows = list(enumerate_discriminants(10**6))
        assert len(rows) == 7_981
        write_witnesses_csv(rows, path)
        assert path.stat().st_size > 1 << 16
        assert list(read_witnesses_csv(path)) == rows
        header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for k in edits:
            lines[k] = "+" + lines[k]
        path.write_bytes("".join([header, *lines]).encode("utf-8"))
        first = lines[edits[0]].removesuffix("\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"malformed row: '{first}'") + "$"):
            list(read_witnesses_csv(path))

    def test_yields_rows_before_a_later_bad_block(self, tmp_path):
        # the reader keeps one 8 KiB block at a time: the first rows come out
        # before it reaches the malformed row 6,000
        path = tmp_path / "witnesses.csv"
        rows = list(enumerate_discriminants(10**6))
        write_witnesses_csv(rows, path)
        header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[6_000] = "+" + lines[6_000]
        path.write_bytes("".join([header, *lines]).encode("utf-8"))
        assert next(iter(read_witnesses_csv(path))) == rows[0]

    @settings(deadline=None, max_examples=200)
    @given(
        rows=st.lists(st.tuples(*[st.integers(1, 10**30)] * 4), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_one_character_edit_is_malformed(self, tmp_path_factory, rows, data):
        path = tmp_path_factory.mktemp("edit") / "witnesses.csv"
        write_witnesses_csv(rows, path)
        assert list(read_witnesses_csv(path)) == rows
        header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        k = data.draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        edit = data.draw(
            st.sampled_from(["+", "0", "_", " ", "\r", ".", "e", "[", "{", "\t", "no LF"])
        )
        if edit == "no LF":
            k = len(lines) - 1
            lines[k] = lines[k].removesuffix("\n")
        else:
            # a sign or a leading zero goes before a field; the rest anywhere
            if edit in "+0":
                spots = [0] + [i + 1 for i, c in enumerate(line) if c == ","]
            else:
                spots = range(len(line))
            i = data.draw(st.sampled_from(spots))
            lines[k] = line[:i] + edit + line[i:]
        path.write_bytes("".join([header, *lines]).encode("utf-8"))
        with pytest.raises(ValueError, match="^malformed row: "):
            list(read_witnesses_csv(path))


class TestCsv:
    BLOCK = honda._WRITE_BLOCK_ROWS

    @pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1,
                                       2 * BLOCK, 2 * BLOCK + 1])
    @pytest.mark.parametrize("header", ["a,b", "d,h_real_narrow,h_imag", "d,m,n,u"])
    @pytest.mark.parametrize("comment", [None, "N_honda"])
    def test_block_writer_matches_the_row_writer(self, tmp_path, count, header, comment):
        width = header.count(",") + 1
        rows = [tuple((-7) ** j * (i + 1) ** (j + 1) for j in range(width)) for i in range(count)]
        path = tmp_path / "rows.csv"
        write_csv(path, header, iter(rows), comment=comment)
        expected = "" if comment is None else f"# {comment}\n"
        expected += header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize(
        "bad", [[(1, 2)], [(1, 2, 3), (4, 5, 6, 7, 8)]], ids=["short", "short-then-long"]
    )
    def test_wrong_field_count_in_a_later_block_raises(self, tmp_path, bad):
        # a short row next to a long one fills the block's template all the same
        rows = [(i, i + 1, i + 2, i + 3) for i in range(2 * self.BLOCK)]
        at = self.BLOCK + self.BLOCK // 2
        rows[at:at + len(bad)] = bad
        path = tmp_path / "witnesses.csv"
        with pytest.raises(TypeError):
            write_csv(path, "d,m,n,u", rows)
        assert list(tmp_path.iterdir()) == []  # no target, no temporary file

    def test_comment_header_and_rows(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(path, "X,count", [(100, 1), (1_000, 35)], comment="N_honda")
        assert path.read_bytes() == b"# N_honda\nX,count\n100,1\n1000,35\n"

    def test_creates_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "rows.csv"
        write_csv(path, "a,b", [(1, 2)])
        assert path.read_bytes() == b"a,b\n1,2\n"

    def test_round_trip(self, tmp_path):
        # the witness reader takes back whatever write_csv writes, signs too
        path = tmp_path / "rows.csv"
        rows = [(1, -2, 3, 0), (40, 50, 60, 70)]
        write_csv(path, "d,m,n,u", rows)
        assert list(read_witnesses_csv(path)) == rows

    def test_crash_mid_write_leaves_target_untouched(self, tmp_path):
        def rows_then_crash():
            yield (1, 2)
            yield (3, 4)
            raise RuntimeError("crash mid-write")

        path = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            write_csv(path, "a,b", rows_then_crash())
        assert list(tmp_path.iterdir()) == []  # no target, no temporary file
        path.write_bytes(b"a,b\n9,9\n")
        with pytest.raises(RuntimeError):
            write_csv(path, "a,b", rows_then_crash())
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"a,b\n9,9\n"
