"""Witness validation and enumeration tests.

Arithmetic in the frozen examples is re-derivable by hand: the identity
values are exact, cubic rootlessness was checked by the divisor scan that
test_intmath validated against a full-interval oracle, and factorizations
are verified inline where they matter.
"""

import hashlib
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert enumerate_discriminants(2) == []

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
            assert enumerate_discriminants(x, config) == expected

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
        rows = enumerate_discriminants(2_000)
        write_witnesses_csv(rows, path)
        assert read_witnesses_csv(path) == rows

    def test_reader_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("d,m,n,u\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_witnesses_csv(path)
        path.write_text("wrong,header\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_witnesses_csv(path)
        # int() accepts every one of these; write_csv never writes them
        for row in ("2_29,4,1,1", "+235,7,4,2", "079,7,2,4", "229, 4,1,1", "229,4 ,1,1",
                    "\u0662\u0662\u0669,4,1,1", "-0,4,1,1"):
            path.write_text(f"d,m,n,u\n{row}\n", encoding="utf-8")
            with pytest.raises(ValueError, match="malformed row"):
                read_witnesses_csv(path)
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
                read_witnesses_csv(path)

    def test_field_counts_that_shift_between_lines(self, tmp_path):
        # 3 + 5 fields fill the template of two rows, 1,2,3,4 and 5,6,7,8,
        # but neither line is a row
        path = tmp_path / "witnesses.csv"
        path.write_bytes(b"d,m,n,u\n1,2,3\n4,5,6,7,8\n")
        with pytest.raises(ValueError, match=r"^malformed row: '1,2,3'$"):
            read_witnesses_csv(path)

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
        rows = enumerate_discriminants(10**6)
        assert len(rows) == 7_981
        write_witnesses_csv(rows, path)
        assert path.stat().st_size > 1 << 16
        assert read_witnesses_csv(path) == rows
        header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for k in edits:
            lines[k] = "+" + lines[k]
        path.write_bytes("".join([header, *lines]).encode("utf-8"))
        first = lines[edits[0]].removesuffix("\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"malformed row: '{first}'") + "$"):
            read_witnesses_csv(path)

    @settings(deadline=None, max_examples=200)
    @given(
        rows=st.lists(st.tuples(*[st.integers(1, 10**30)] * 4), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_one_character_edit_is_malformed(self, tmp_path_factory, rows, data):
        path = tmp_path_factory.mktemp("edit") / "witnesses.csv"
        write_witnesses_csv(rows, path)
        assert read_witnesses_csv(path) == rows
        header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        k = data.draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        edit = data.draw(st.sampled_from(["+", "0", "_", " ", "\r", "no LF"]))
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
            read_witnesses_csv(path)


class TestCsv:
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
        assert read_witnesses_csv(path) == rows

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
