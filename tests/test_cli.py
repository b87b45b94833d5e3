"""CLI tests: exit codes, artifact bytes, config precedence, determinism.

Commands are driven through main(argv) for speed; three tests go through
a real subprocess: two cover the module entry point, one of them with a
closed output pipe, and one the modules that importing the CLI loads.
"""

import hashlib
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from ccsieve import cli, counting
from ccsieve.cli import (
    EXIT_ARITHMETIC,
    EXIT_CONFIG,
    EXIT_EMPTY_FALSIFICATION,
    EXIT_OK,
    EXIT_VERIFY,
    main,
)
from ccsieve.counting import PINNED_SLOPE_WINDOW, fit_slope, honda_count_series
from ccsieve.honda import EnumConfig, enumerate_discriminants, read_witnesses_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIGS.parent / "src"

def run(*argv):
    return main(list(argv))


def assert_clock_last(out, command):
    # match on the "# " prefix: a tmp path in the output may contain "elapsed"
    lines = out.splitlines()
    assert [l for l in lines if l.startswith("# ") and "elapsed" in l] == lines[-1:]
    assert re.fullmatch(rf"# {command}: elapsed \d+\.\d\ds", lines[-1])


class TestEnumerate:
    def test_x300_contains_known_row(self, tmp_path, capsys):
        assert run("enumerate", "--x-max", "300", "--out", str(tmp_path)) == EXIT_OK
        text = (tmp_path / "witnesses.csv").read_text(encoding="utf-8")
        assert "229,4,1,1\n" in text
        assert "79,7,2,4\n" in text
        out = capsys.readouterr().out
        assert "witnesses: 4" in out

    def test_x2_header_only(self, tmp_path):
        assert run("enumerate", "--x-max", "2", "--out", str(tmp_path)) == EXIT_OK
        assert (tmp_path / "witnesses.csv").read_bytes() == b"d,m,n,u\n"

    def test_worker_counts_byte_identical(self, tmp_path):
        blobs = []
        for k in ("1", "2", "8"):
            out = tmp_path / f"w{k}"
            assert run("enumerate", "--x-max", "20000", "--workers", k, "--out", str(out)) == EXIT_OK
            blobs.append((out / "witnesses.csv").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_shortcut_only_flag(self, tmp_path):
        full = tmp_path / "full"
        sub = tmp_path / "sub"
        assert run("enumerate", "--x-max", "5000", "--out", str(full)) == EXIT_OK
        assert run("enumerate", "--x-max", "5000", "--shortcut-only", "--out", str(sub)) == EXIT_OK
        full_ds = {line.split(",")[0] for line in (full / "witnesses.csv").read_text().splitlines()[1:]}
        sub_ds = {line.split(",")[0] for line in (sub / "witnesses.csv").read_text().splitlines()[1:]}
        assert sub_ds and sub_ds <= full_ds

    def test_x_max_above_default_enum_cap(self, tmp_path, capsys):
        # x_max, not EnumConfig's default cap of 10^6, caps the sweep
        rows = enumerate_discriminants(1_000_001, EnumConfig(x_cap=1_000_001))
        assert run("enumerate", "--x-max", "1000001", "--out", str(tmp_path)) == EXIT_OK
        assert f"witnesses: {len(rows)}\n" in capsys.readouterr().out
        assert read_witnesses_csv(tmp_path / "witnesses.csv") == rows

    def test_bad_x_max(self, tmp_path):
        assert run("enumerate", "--x-max", "1", "--out", str(tmp_path)) == EXIT_CONFIG

    def test_bad_workers(self, tmp_path):
        assert run("enumerate", "--x-max", "100", "--workers", "0", "--out", str(tmp_path)) == EXIT_CONFIG


class TestVerify:
    def test_clean_run(self, tmp_path, capsys):
        run("enumerate", "--x-max", "2000", "--out", str(tmp_path))
        code = run("verify", "--out", str(tmp_path), "--truth-x-max", "2000")
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "failed: 0" in out

    def test_corrupted_row_exits_3(self, tmp_path, capsys):
        run("enumerate", "--x-max", "300", "--out", str(tmp_path))
        path = tmp_path / "witnesses.csv"
        text = path.read_text(encoding="utf-8")
        # break the identity of the d=229 row
        path.write_text(text.replace("229,4,1,1", "229,4,1,2"), encoding="utf-8")
        code = run("verify", "--out", str(tmp_path), "--truth-x-max", "300")
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        assert "FAIL row 229,4,1,2" in out
        assert "failed: 1" in out

    def test_empty_file_is_vacuous_pass(self, tmp_path, capsys):
        run("enumerate", "--x-max", "2", "--out", str(tmp_path))
        code = run("verify", "--out", str(tmp_path), "--truth-x-max", "100")
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "checked: 0" in out

    def test_missing_file_is_config_error(self, tmp_path):
        assert run("verify", "--out", str(tmp_path)) == EXIT_CONFIG

    def test_zero_field_row_exits_3(self, tmp_path, capsys):
        (tmp_path / "witnesses.csv").write_text("d,m,n,u\n0,4,1,1\n79,7,2,4\n", encoding="utf-8")
        code = run("verify", "--out", str(tmp_path), "--truth-x-max", "100")
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        assert "FAIL row 0,4,1,1" in out
        assert "passed: 1" in out and "failed: 1" in out

    def test_repeated_or_descending_rows_exit_3(self, tmp_path, capsys):
        rows = "d,m,n,u\n229,4,1,1\n229,4,1,1\n79,7,2,4\n"
        (tmp_path / "witnesses.csv").write_text(rows, encoding="utf-8")
        code = run("verify", "--out", str(tmp_path), "--truth-x-max", "300")
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        assert "FAIL row 229,4,1,1" in out and "FAIL row 79,7,2,4" in out
        assert "passed: 1" in out and "failed: 2" in out

    def test_non_decimal_spelling_exits_3(self, tmp_path, capsys):
        # int() would read these as the valid rows 229,4,1,1 and 235,7,4,2
        rows = "d,m,n,u\n2_29,4,1,1\n+235,7,4,2\n"
        (tmp_path / "witnesses.csv").write_text(rows, encoding="utf-8")
        code = run("verify", "--out", str(tmp_path), "--truth-x-max", "300")
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        assert "FAIL parsing" in out and "malformed row: '2_29,4,1,1'" in out
        assert "checked: 0" in out and "failed: 1" in out

    def test_two_bad_rows_past_the_first_block_name_the_first(self, tmp_path, capsys):
        # 7,981 rows at 10^6, read in blocks of about 8 KiB; rows 5,000 and
        # 7,000 lie far past the first
        run("enumerate", "--x-max", "1000000", "--out", str(tmp_path))
        path = tmp_path / "witnesses.csv"
        header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        bad = [lines[4_999].replace(",", ",0", 1), "+" + lines[6_999]]
        lines[4_999], lines[6_999] = bad
        path.write_bytes("".join([header, *lines]).encode("utf-8"))
        code = run("verify", "--out", str(tmp_path), "--truth-x-max", "100")
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        first = bad[0].removesuffix("\n")
        assert f"FAIL parsing {path}: malformed row: '{first}'\n" in out
        assert "malformed row: '+" not in out
        assert "checked: 0" in out and "failed: 1" in out

    @pytest.mark.parametrize(
        "text",
        [
            "d,m,n,u\r\n229,4,1,1\r\n",  # CRLF
            "d,m,n,u\n 229,4,1,1\n",  # space before the row
            "d,m,n,u\n229,4,1,1 \n",  # space after the row
            "d,m,n,u\n\n229,4,1,1\n",  # blank line
            "d,m,n,u\n229,4,1,1\n \n",  # whitespace-only line
            "d,m,n,u\n229,4,1,1",  # no LF after the last row
        ],
        ids=["crlf", "space-before", "space-after", "blank-line", "whitespace-line", "no-final-lf"],
    )
    def test_spacing_and_line_ends_exit_3(self, tmp_path, capsys, text):
        (tmp_path / "witnesses.csv").write_bytes(text.encode("utf-8"))
        code = run("verify", "--out", str(tmp_path), "--truth-x-max", "300")
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        assert "FAIL parsing" in out
        assert "checked: 0" in out and "failed: 1" in out

    def test_oracle_rejection_exits_3(self, tmp_path, capsys, monkeypatch):
        run("enumerate", "--x-max", "300", "--out", str(tmp_path))
        monkeypatch.setattr(cli, "three_divides_real_class_number", lambda d: d != 229)
        code = run("verify", "--out", str(tmp_path), "--truth-x-max", "300")
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        assert "FAIL row 229,4,1,1: oracle reports 3 does not divide h(229)\n" in out
        assert "passed: 3" in out and "failed: 1" in out

    def test_unparseable_file_exits_3(self, tmp_path, capsys):
        (tmp_path / "witnesses.csv").write_text("d,m,n,u\n79,x,2,4\n", encoding="utf-8")
        code = run("verify", "--out", str(tmp_path), "--truth-x-max", "100")
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        assert "failed: 1" in out


class TestCount:
    def test_default_small_run(self, tmp_path, capsys):
        code = run(
            "count",
            "--x-max", "2000",
            "--checkpoints", "100,500,1000,2000",
            "--truth-x-max", "1000",
            "--out", str(tmp_path),
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        slope_lines = [l for l in out.splitlines() if l.startswith("slope: ")]
        assert len(slope_lines) == 1
        # 4 decimal places exactly
        value = slope_lines[0].split(": ")[1]
        assert len(value.split(".")[1]) == 4
        assert "containment: truth >= honda" in out
        honda_csv = (tmp_path / "n_honda.csv").read_text(encoding="utf-8")
        truth_csv = (tmp_path / "n_truth.csv").read_text(encoding="utf-8")
        assert honda_csv.startswith("# N_honda\nX,count\n")
        assert truth_csv.startswith("# N_plus_truth\nX,count\n")
        assert honda_csv.count("\n") == 2 + 4
        assert truth_csv.count("\n") == 2 + 3  # checkpoints above truth_x_max drop out

    def test_pinned_window_slope_line(self, tmp_path, capsys):
        # four checkpoints inside 10^3..10^6: the pinned fit is printed
        # next to the full-range one and agrees with fit_slope
        code = run(
            "count",
            "--x-max", "20000",
            "--checkpoints", "100,1000,5000,10000,20000",
            "--truth-x-max", "1000",
            "--out", str(tmp_path),
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        pinned = [l for l in out.splitlines() if l.startswith("pinned_slope: ")]
        series = honda_count_series((100, 1000, 5000, 10000, 20000))
        expected = fit_slope(series, PINNED_SLOPE_WINDOW).slope
        assert pinned == [f"pinned_slope: {expected:.4f} over 1000..20000"]
        # the label is the range of X the fit used, not the window it was asked for
        code = run(
            "count",
            "--x-max", "100000",
            "--checkpoints", "100,1000,10000,100000",
            "--truth-x-max", "10000",
            "--out", str(tmp_path),
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "pinned_slope: 0.8070 over 1000..100000\n" in out
        # only two checkpoints inside the pinned window: no pinned line
        code = run(
            "count",
            "--x-max", "2000",
            "--checkpoints", "100,500,1000,2000",
            "--truth-x-max", "1000",
            "--out", str(tmp_path),
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "pinned_slope" not in out
        assert len([l for l in out.splitlines() if l.startswith("slope: ")]) == 1

    def test_window_label_names_fitted_range(self, tmp_path, capsys):
        # N_honda(2) = 0, so the fit drops X = 2 and the label starts at 100
        code = run(
            "count",
            "--x-max", "10000",
            "--checkpoints", "2,100,1000,10000",
            "--truth-x-max", "100",
            "--out", str(tmp_path),
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "window: 100..10000\n" in out

    def test_run_without_truth_checkpoint_removes_stale_series(self, tmp_path):
        # an n_truth.csv left by an earlier run is not a series this run computed
        argv = ("count", "--x-max", "2000", "--checkpoints", "100,500,1000,2000",
                "--out", str(tmp_path))
        assert run(*argv, "--truth-x-max", "1000") == EXIT_OK
        assert (tmp_path / "n_truth.csv").is_file()
        assert run(*argv, "--truth-x-max", "50") == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["n_honda.csv"]

    def test_containment_violation_exits_3(self, tmp_path, capsys, monkeypatch):
        def zero_series(checkpoints, workers=1):
            return counting.CountSeries("N_plus_truth", tuple((x, 0) for x in checkpoints))

        monkeypatch.setattr(cli, "truth_count_series", zero_series)
        code = run(
            "count",
            "--x-max", "2000",
            "--checkpoints", "100,500,1000,2000",
            "--truth-x-max", "1000",
            "--out", str(tmp_path),
        )
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        assert out.startswith("CONTAINMENT VIOLATED at X=100: truth 0 < honda 1\n")
        assert_clock_last(out, "count")

    def test_two_point_window_is_config_error(self, tmp_path):
        code = run(
            "count",
            "--x-max", "1000",
            "--checkpoints", "100,1000",
            "--truth-x-max", "100",
            "--out", str(tmp_path),
        )
        assert code == EXIT_CONFIG

    def test_failed_fit_leaves_both_series_as_they_were(self, tmp_path, capsys):
        # the fit runs before any write, so the two series files never disagree
        argv = ("count", "--x-max", "10000", "--truth-x-max", "10000", "--out", str(tmp_path))
        assert run(*argv, "--checkpoints", "100,1000,10000") == EXIT_OK
        before = {name: (tmp_path / name).read_bytes() for name in ("n_honda.csv", "n_truth.csv")}
        assert run(*argv, "--checkpoints", "100,1000") == EXIT_CONFIG
        assert "slope fit failed" in capsys.readouterr().out
        after = {name: (tmp_path / name).read_bytes() for name in ("n_honda.csv", "n_truth.csv")}
        assert after == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["n_honda.csv", "n_truth.csv"]

    def test_checkpoints_above_x_max_rejected(self, tmp_path, capsys):
        code = run(
            "count",
            "--x-max", "500",
            "--checkpoints", "100,1000",
            "--out", str(tmp_path),
        )
        assert code == EXIT_CONFIG
        # the sweep's own cap check fires before any sweep or write
        assert "configuration error: X=1000 exceeds the enumeration cap 500" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestFalsifyScholz:
    def test_bound_100(self, tmp_path, capsys):
        code = run("falsify-scholz", "--scholz-bound", "100", "--out", str(tmp_path))
        assert code == EXIT_OK
        text = (tmp_path / "counterexamples.csv").read_text(encoding="utf-8")
        assert text.startswith("d,h_real_narrow,h_imag\n")
        assert "69,2,3\n" in text

    def test_bound_4_exits_4(self, tmp_path, capsys):
        code = run("falsify-scholz", "--scholz-bound", "4", "--out", str(tmp_path))
        assert code == EXIT_EMPTY_FALSIFICATION
        assert (tmp_path / "counterexamples.csv").read_bytes() == b"d,h_real_narrow,h_imag\n"
        # the search includes d = 4 itself
        lines = capsys.readouterr().out.splitlines()
        assert "no counterexample with d <= 4: bug or bound too small" in lines

    def test_rerun_identical(self, tmp_path):
        run("falsify-scholz", "--scholz-bound", "90", "--out", str(tmp_path))
        first = (tmp_path / "counterexamples.csv").read_bytes()
        run("falsify-scholz", "--scholz-bound", "90", "--out", str(tmp_path))
        assert (tmp_path / "counterexamples.csv").read_bytes() == first

    def test_arithmetic_fault_exits_1(self, tmp_path, capsys, monkeypatch):
        def fault(D, small=None):
            raise ArithmeticError(f"injected at D={D}")

        monkeypatch.setattr(counting, "class_number_real_narrow", fault)
        code = run("falsify-scholz", "--scholz-bound", "100", "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert code == EXIT_ARITHMETIC
        assert "arithmetic fault: injected at D=" in captured.err
        assert "elapsed" not in captured.out  # a raising command prints no clock line

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bench_bound_pinned(self, tmp_path, workers):
        # the benchmark's falsify stage; two workers split the range mid-class
        argv = ["falsify-scholz", "--scholz-bound", "20000", "--workers", workers]
        assert run(*argv, "--out", str(tmp_path)) == EXIT_OK
        data = (tmp_path / "counterexamples.csv").read_bytes()
        rows = data.decode().splitlines()[1:]
        assert len(rows) == 3256 and "29,1,6" in rows and "69,2,3" in rows
        assert hashlib.sha256(data).hexdigest() == (
            "9970a63a671530b114f990c46ee4217590c47ba88d8867698db9de991deb4676"
        )

    def test_range_violation(self, tmp_path):
        assert run("falsify-scholz", "--scholz-bound", "999999999", "--out", str(tmp_path)) == EXIT_CONFIG


class TestConfigResolution:
    @pytest.mark.parametrize("command", ["enumerate", "verify", "count", "falsify-scholz"])
    def test_defaults(self, command, tmp_path, monkeypatch):
        monkeypatch.delenv("CCS_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        parser = cli.build_parser()
        cfg = cli.resolve_config(parser.parse_args([command]))
        assert vars(cfg) == {
            "x_max": 1_000_000,
            "checkpoints": (100, 1_000, 10_000, 100_000, 1_000_000),
            "truth_x_max": 10_000,
            "scholz_bound": 100,
            "workers": 1,
            "out": Path("out"),
            "shortcut_only": False,
        }
        # the reference config restates every default
        reference = ["--config", str(CONFIGS / "reference.cfg")]
        assert cli.resolve_config(parser.parse_args([command, *reference])) == cfg
        assert cli._sweep_config(cfg) == EnumConfig(x_cap=1_000_000, shortcut_only=False)

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# demo config\nx_max=300\nout={}\nworkers=1\n".format(tmp_path / "artifacts"),
            encoding="utf-8",
        )
        assert run("enumerate", "--config", str(cfg)) == EXIT_OK
        assert (tmp_path / "artifacts" / "witnesses.csv").is_file()

    def test_flags_win_over_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x_max=300\n", encoding="utf-8")
        out = tmp_path / "flagged"
        assert run("enumerate", "--config", str(cfg), "--x-max", "2", "--out", str(out)) == EXIT_OK
        # flag value 2 wins: header-only artifact
        assert (out / "witnesses.csv").read_bytes() == b"d,m,n,u\n"

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CCS_OUT", str(tmp_path / "envdir"))
        assert run("enumerate", "--x-max", "2") == EXIT_OK
        assert (tmp_path / "envdir" / "witnesses.csv").is_file()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CCS_OUT", str(tmp_path / "envdir"))
        out = tmp_path / "flagdir"
        assert run("enumerate", "--x-max", "2", "--out", str(out)) == EXIT_OK
        assert (out / "witnesses.csv").is_file()
        assert not (tmp_path / "envdir").exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate=1\n", encoding="utf-8")
        assert run("enumerate", "--config", str(cfg)) == EXIT_CONFIG

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x_max 300\n", encoding="utf-8")
        assert run("enumerate", "--config", str(cfg)) == EXIT_CONFIG

    def test_non_utf8_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"x_max=\xff\n")
        assert run("enumerate", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_CONFIG
        assert "configuration error: config file is not UTF-8" in capsys.readouterr().err

    def test_repeated_key_bad_earlier_value(self, tmp_path, capsys):
        # every line is parsed, also one that a later line overrides
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x_max=abc\nx_max=1000\n", encoding="utf-8")
        assert run("enumerate", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error: bad value for x_max: 'abc'" in captured.err

    def test_repeated_key_last_line_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x_max=300\nx_max=2\n", encoding="utf-8")
        assert run("enumerate", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_OK
        assert (tmp_path / "witnesses.csv").read_bytes() == b"d,m,n,u\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--x-max", "abc"], "bad value for x_max: 'abc'"),
            (["--out", ""], "bad value for out: ''"),
        ],
    )
    def test_repeated_flag_bad_earlier_value(self, tmp_path, capsys, flags, message):
        # every value of a repeated flag is parsed, also one a later value overrides
        assert run("enumerate", *flags, "--x-max", "1000", "--out", str(tmp_path)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"configuration error: {message}" in captured.err
        assert not (tmp_path / "witnesses.csv").exists()

    def test_repeated_flag_last_value_wins(self, tmp_path):
        # range checks apply to the final value only, as for the config file
        flags = ["--x-max", "300", "--x-max", "2", "--workers", "0", "--workers", "1"]
        flags += ["--shortcut-only", "--shortcut-only", "--out", str(tmp_path)]
        assert run("enumerate", *flags) == EXIT_OK
        assert (tmp_path / "witnesses.csv").read_bytes() == b"d,m,n,u\n"

    def test_byte_order_mark_config_file(self, tmp_path):
        # Windows Notepad starts a UTF-8 file with EF BB BF
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfx_max=1000\n")
        assert run("enumerate", "--config", str(cfg), "--out", str(tmp_path / "a")) == EXIT_OK
        assert run("enumerate", "--x-max", "1000", "--out", str(tmp_path / "b")) == EXIT_OK
        got = (tmp_path / "a" / "witnesses.csv").read_bytes()
        assert got == (tmp_path / "b" / "witnesses.csv").read_bytes()
        assert got.count(b"\n") > 1

    @pytest.mark.parametrize(
        "command, sub", [("count", ""), ("enumerate", "sub"), ("verify", ""), ("falsify-scholz", "a/b")]
    )
    def test_out_under_a_file(self, tmp_path, capsys, command, sub):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        out = afile / sub if sub else afile
        assert run(command, "--out", str(out)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any stage ran
        assert f"configuration error: out={out}: {afile} is not a directory" in captured.err

    def test_out_dangling_symlink(self, tmp_path, capsys):
        link = tmp_path / "L"
        link.symlink_to(tmp_path / "missing")
        assert run("enumerate", "--x-max", "1000", "--out", str(link)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the sweep
        assert f"configuration error: out={link}: {link} is not a directory" in captured.err

    @pytest.mark.parametrize(
        "argv, artifact",
        [
            (("enumerate", "--x-max", "1000"), "witnesses.csv"),
            (("verify",), "witnesses.csv"),
            (
                ("count", "--checkpoints", "100,1000,10000", "--x-max", "10000", "--truth-x-max", "50"),
                "n_truth.csv",
            ),
            (("falsify-scholz",), "counterexamples.csv"),
        ],
    )
    def test_artifact_path_is_a_directory(self, tmp_path, capsys, argv, artifact):
        # rejected before the sweep, so no artifact is replaced or removed
        names = ("witnesses.csv", "n_honda.csv", "n_truth.csv", "counterexamples.csv")
        for name in names:
            (tmp_path / name).write_text(f"old {name}\n", encoding="utf-8")
        (tmp_path / artifact).unlink()
        (tmp_path / artifact).mkdir()
        assert run(*argv, "--out", str(tmp_path)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        path = tmp_path / artifact
        assert f"configuration error: out={tmp_path}: {path} is a directory" in captured.err
        assert path.is_dir() and not any(path.iterdir())
        for name in names:
            if name != artifact:
                assert (tmp_path / name).read_text(encoding="utf-8") == f"old {name}\n"

    def test_missing_config_file(self, tmp_path):
        assert run("enumerate", "--config", str(tmp_path / "nope.cfg")) == EXIT_CONFIG

    def test_bad_checkpoint_list(self, tmp_path):
        assert (
            run("count", "--checkpoints", "10,abc", "--out", str(tmp_path))
            == EXIT_CONFIG
        )

    def test_truth_x_max_below_two(self, tmp_path, capsys):
        assert run("verify", "--truth-x-max", "1", "--out", str(tmp_path)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error: truth_x_max must lie in [2, 2500000]" in captured.err

    def test_checkpoint_below_two(self, tmp_path):
        argv = ("--checkpoints", "1,100", "--x-max", "100", "--truth-x-max", "100")
        assert run("count", *argv, "--out", str(tmp_path)) == EXIT_CONFIG

    def test_file_out_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CCS_OUT", str(tmp_path / "envdir"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out={}\n".format(tmp_path / "filedir"), encoding="utf-8")
        assert run("enumerate", "--x-max", "2", "--config", str(cfg)) == EXIT_OK
        assert (tmp_path / "filedir" / "witnesses.csv").is_file()
        assert not (tmp_path / "envdir").exists()

    @pytest.mark.parametrize(
        "line", ["x_max=", "shortcut_only=maybe", "out=", "checkpoints=100,,1000", "checkpoints="]
    )
    def test_bad_file_value(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert run("enumerate", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_CONFIG
        key, _, value = line.partition("=")
        assert f"configuration error: bad value for {key}: '{value}'" in capsys.readouterr().err

    def test_shortcut_flag_beats_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x_max=5000\nshortcut_only=false\n", encoding="utf-8")
        blobs = {}
        for name, extra in (("file", ()), ("flag", ("--shortcut-only",))):
            out = tmp_path / name
            assert run("enumerate", "--config", str(cfg), *extra, "--out", str(out)) == EXIT_OK
            blobs[name] = (out / "witnesses.csv").read_bytes()
        sub = tmp_path / "sub"
        assert run("enumerate", "--x-max", "5000", "--shortcut-only", "--out", str(sub)) == EXIT_OK
        assert blobs["flag"] == (sub / "witnesses.csv").read_bytes() != blobs["file"]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--x-max", "abc"), ("--workers", "two"), ("--out", ""),
            ("--checkpoints", "100,,1000"), ("--checkpoints", "100,"), ("--checkpoints", ""),
        ],
    )
    def test_bad_flag_value(self, tmp_path, capsys, flag, value):
        # the flag comes last, so a bad --out is the one argparse keeps
        assert run("enumerate", "--out", str(tmp_path), flag, value) == EXIT_CONFIG
        key = flag[2:].replace("-", "_")
        assert f"configuration error: bad value for {key}: '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["enumerate", "verify", "count", "falsify-scholz"])
    def test_flags_listed_in_order(self, capsys, command):
        with pytest.raises(SystemExit):
            run(command, "--help")
        usage = capsys.readouterr().out.split("options:")[0]
        assert re.findall(r"\[(--[\w-]+)", usage) == [
            "--x-max", "--checkpoints", "--truth-x-max", "--scholz-bound",
            "--workers", "--out", "--shortcut-only", "--config",
        ]

    def test_reference_config_reproduces_series(self, tmp_path, capsys):
        argv = ("count", "--config", str(CONFIGS / "reference.cfg"), "--out", str(tmp_path))
        assert run(*argv) == EXIT_OK
        assert (tmp_path / "n_honda.csv").read_bytes() == (CONFIGS / "reference_n_honda.csv").read_bytes()
        assert (tmp_path / "n_truth.csv").read_bytes() == (CONFIGS / "reference_n_truth.csv").read_bytes()
        out = capsys.readouterr().out
        for line in (
            "slope: 0.9676",
            "intercept: -3.7278",
            "residual_max: 0.7281",
            "window: 100..1000000",
            "pinned_slope: 0.8095 over 1000..1000000",
        ):
            assert line + "\n" in out


class TestStageClock:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (("enumerate", "--x-max", "300"), EXIT_OK),
            (("verify", "--truth-x-max", "300"), EXIT_OK),
            (("count", "--x-max", "2000", "--checkpoints", "100,500,1000,2000",
              "--truth-x-max", "1000"), EXIT_OK),
            (("count", "--x-max", "1000", "--checkpoints", "100,1000",
              "--truth-x-max", "100"), EXIT_CONFIG),  # the slope fit fails
            (("falsify-scholz", "--scholz-bound", "100"), EXIT_OK),
            (("falsify-scholz", "--scholz-bound", "4"), EXIT_EMPTY_FALSIFICATION),
        ],
        ids=["enumerate", "verify", "count", "count-exit-2", "falsify-scholz", "falsify-scholz-exit-4"],
    )
    def test_one_elapsed_line_last(self, tmp_path, capsys, argv, code):
        run("enumerate", "--x-max", "300", "--out", str(tmp_path))
        capsys.readouterr()
        assert run(*argv, "--out", str(tmp_path)) == code
        assert_clock_last(capsys.readouterr().out, argv[0])


class TestSubprocessEntry:
    def test_import_loads_no_unused_machinery(self):
        # a process pool, dataclasses or pickling at import would cost
        # every command its set-up time; -S keeps site's imports out
        unused = ("concurrent", "multiprocessing", "dataclasses", "inspect",
                  "pickle", "logging", "socket", "subprocess")
        code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import ccsieve.cli; "
                f"print(*[m for m in {unused!r} if m in sys.modules])")
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "ccsieve", "enumerate", "--x-max", "300",
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "witnesses: 4" in proc.stdout
        assert (tmp_path / "witnesses.csv").is_file()

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
    def test_closed_output_pipe(self, tmp_path):
        # stdout is a pipe whose read end is closed before the run starts,
        # as in `ccsieve ... | head` once head has exited
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ccsieve", "enumerate", "--x-max", "100000",
                 "--out", str(tmp_path)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == -signal.SIGPIPE
        assert "Traceback" not in proc.stderr
        # the file is written before anything is printed
        assert read_witnesses_csv(tmp_path / "witnesses.csv") == enumerate_discriminants(100_000)
