"""Command-line front end: reproducible batch runs emitting CSV artifacts.

Subcommands: enumerate (witness sweep), verify (re-validation plus oracle
check of d <= truth_x_max), count (both count series plus a growth-slope
fit), falsify-scholz (counterexamples to the imaginary-to-real reflection
direction).  Each setting is a name of _SETTINGS, set by its flag or by a
line of a key=value config file, flags winning.  Exit codes: 0 success,
1 internal arithmetic fault, 2 configuration error, 3 verification
failure, 4 empty falsification.  `main` times each command and ends its
output with one `# <command>: elapsed` line.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from .counting import (
    PINNED_SLOPE_WINDOW,
    SCHOLZ_BOUND_CAP,
    TRUTH_X_CAP,
    check_checkpoints,
    fit_slope,
    honda_count_series,
    scholz_counterexample_search,
    truth_count_series,
    write_counterexamples_csv,
    write_series_csv,
)
from .honda import (
    ConfigurationError,
    EnumConfig,
    enumerate_discriminants,
    read_witnesses_csv,
    validate_witness,
    write_witnesses_csv,
)
from .classnum import three_divides_real_class_number

EXIT_OK = 0
EXIT_ARITHMETIC = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_EMPTY_FALSIFICATION = 4

DEFAULT_CHECKPOINTS = (100, 1_000, 10_000, 100_000, 1_000_000)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_checkpoints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _parse_out(text: str) -> Path:
    if not text.strip():
        raise ValueError("empty output directory")
    return Path(text)


# Every run setting: its default, the one parser of its flag and file
# value, and its --help text.  A name is the config-file key and, with
# dashes, the flag; a setting whose default is a bool is a flag that takes
# no value.
_SETTINGS = {
    "x_max": (1_000_000, int, None),
    "checkpoints": (DEFAULT_CHECKPOINTS, _parse_checkpoints, "comma list of X values"),
    "truth_x_max": (10_000, int, None),
    "scholz_bound": (100, int, None),
    "workers": (1, int, "processes for the oracle sweeps of count and falsify-scholz"),
    "out": (Path("out"), _parse_out, "output directory (or env CCS_OUT)"),
    "shortcut_only": (
        False, _parse_bool, "restrict the sweep to pairs with 3|m-1 and 3 not dividing n"
    ),
}


def _sweep_config(cfg: SimpleNamespace) -> EnumConfig:
    """The Honda sweep's box, capped at x_max."""
    return EnumConfig(x_cap=cfg.x_max, shortcut_only=cfg.shortcut_only)


def _load_config_file(path: Path) -> list[tuple[str, str]]:
    """The file's (key, value) pairs in file order; a leading byte-order
    mark is dropped."""
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file is not UTF-8: {path}") from exc
    pairs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"bad config line (expected key=value): {raw!r}")
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip()))
    return pairs


def resolve_config(args: argparse.Namespace) -> SimpleNamespace:
    """One attribute per name of _SETTINGS.  Each takes its default, then
    CCS_OUT (out only, if not empty), then the config file, then its flag;
    within the file the last line for a key wins, and of a repeated flag
    the last value.  Every given value is parsed, also one that a later
    one overrides."""
    env_out = os.environ.get("CCS_OUT")
    pairs = [("out", env_out)] if env_out else []
    if args.config is not None:
        pairs += _load_config_file(Path(args.config))
    pairs += [(key, value) for key in _SETTINGS for value in getattr(args, key) or ()]
    values = {name: default for name, (default, _, _) in _SETTINGS.items()}
    for key, value in pairs:
        if key not in _SETTINGS:
            raise ConfigurationError(f"unknown config key: {key}")
        _, parse, _ = _SETTINGS[key]
        try:
            values[key] = parse(value)
        except ValueError as exc:
            raise ConfigurationError(f"bad value for {key}: {value!r}") from exc
    cfg = SimpleNamespace(**values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: SimpleNamespace) -> None:
    if cfg.x_max < 2:
        raise ConfigurationError("x_max must be >= 2")
    if cfg.workers < 1:
        raise ConfigurationError("workers must be >= 1")
    check_checkpoints(cfg.checkpoints)
    if not 2 <= cfg.truth_x_max <= TRUTH_X_CAP:
        raise ConfigurationError(f"truth_x_max must lie in [2, {TRUTH_X_CAP}]")
    if not 2 <= cfg.scholz_bound <= SCHOLZ_BOUND_CAP:
        raise ConfigurationError(f"scholz_bound must lie in [2, {SCHOLZ_BOUND_CAP}]")
    # out, or the nearest ancestor that exists (a dangling link counts), must be a directory
    existing = next((p for p in (cfg.out, *cfg.out.parents) if os.path.lexists(p)), cfg.out)
    if not existing.is_dir():
        raise ConfigurationError(f"out={cfg.out}: {existing} is not a directory")
    # a writer would meet a directory only after the whole sweep
    for name in ("witnesses.csv", "n_honda.csv", "n_truth.csv", "counterexamples.csv"):
        if (cfg.out / name).is_dir():
            raise ConfigurationError(f"out={cfg.out}: {cfg.out / name} is a directory")


def cmd_enumerate(cfg: SimpleNamespace) -> int:
    """Sweep the witness box up to x_max and write witnesses.csv."""
    rows = enumerate_discriminants(cfg.x_max, _sweep_config(cfg))
    path = cfg.out / "witnesses.csv"
    write_witnesses_csv(rows, path)
    print(f"witnesses: {len(rows)}")
    print(f"wrote: {path}")
    return EXIT_OK


def cmd_verify(cfg: SimpleNamespace) -> int:
    """Re-validate every witness row, check that d ascends strictly, and
    oracle-check 3 | h(d) for d <= truth_x_max."""
    path = cfg.out / "witnesses.csv"
    if not path.is_file():
        raise ConfigurationError(f"witness file not found: {path} (run enumerate first)")
    passed = failed = previous_d = 0
    try:
        rows = read_witnesses_csv(path)
    except ValueError as exc:
        # a present but unparseable artifact is a verification failure
        print(f"FAIL parsing {path}: {exc}")
        rows = []
        failed = 1
    for d, m, n, u in rows:
        try:
            validate_witness(d, m, n, u)
            if d <= previous_d:
                raise ValueError(f"d does not exceed the previous row's d = {previous_d}")
            if d <= cfg.truth_x_max and not three_divides_real_class_number(d):
                raise ValueError(f"oracle reports 3 does not divide h({d})")
            passed += 1
        except ValueError as exc:
            print(f"FAIL row {d},{m},{n},{u}: {exc}")
            failed += 1
        previous_d = d
    print(f"checked: {len(rows)}")
    print(f"passed: {passed}")
    print(f"failed: {failed}")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def cmd_count(cfg: SimpleNamespace) -> int:
    """Write both count series, check domination, print the slope fits
    over the checkpoint range and over the pinned window.  A failed fit
    writes nothing.  With no checkpoint <= truth_x_max there is no truth
    series, and an n_truth.csv left by an earlier run is removed."""
    honda_series = honda_count_series(cfg.checkpoints, _sweep_config(cfg))
    try:
        report = fit_slope(honda_series, (cfg.checkpoints[0], cfg.checkpoints[-1]))
    except ValueError as exc:
        print(f"slope fit failed: {exc}")
        return EXIT_CONFIG
    write_series_csv(honda_series, cfg.out / "n_honda.csv")
    truth_checkpoints = [x for x in cfg.checkpoints if x <= cfg.truth_x_max]
    truth_series = None
    if not truth_checkpoints:
        (cfg.out / "n_truth.csv").unlink(missing_ok=True)
    else:
        truth_series = truth_count_series(truth_checkpoints, workers=cfg.workers)
        write_series_csv(truth_series, cfg.out / "n_truth.csv")
        honda_at = dict(honda_series.checkpoints)
        for x, truth_count in truth_series.checkpoints:
            if truth_count < honda_at[x]:
                print(f"CONTAINMENT VIOLATED at X={x}: truth {truth_count} < honda {honda_at[x]}")
                return EXIT_VERIFY
    print(f"slope: {report.slope:.4f}")
    print(f"intercept: {report.intercept:.4f}")
    print(f"residual_max: {report.residual_max:.4f}")
    lo, hi = report.window
    print(f"window: {lo}..{hi}")
    try:
        pinned = fit_slope(honda_series, PINNED_SLOPE_WINDOW)
    except ValueError:
        pass  # fewer than 3 checkpoints inside the pinned window
    else:
        lo, hi = pinned.window
        print(f"pinned_slope: {pinned.slope:.4f} over {lo}..{hi}")
    if truth_series is not None:
        print("containment: truth >= honda at all shared checkpoints")
    return EXIT_OK


def cmd_falsify_scholz(cfg: SimpleNamespace) -> int:
    """Search d <= scholz_bound for reflection counterexamples."""
    items = scholz_counterexample_search(cfg.scholz_bound, workers=cfg.workers)
    path = cfg.out / "counterexamples.csv"
    write_counterexamples_csv(items, path)
    print(f"counterexamples: {len(items)}")
    print(f"wrote: {path}")
    if not items:
        print(f"no counterexample with d <= {cfg.scholz_bound}: bug or bound too small")
        return EXIT_EMPTY_FALSIFICATION
    return EXIT_OK


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "count": cmd_count,
    "falsify-scholz": cmd_falsify_scholz,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccsieve",
        description="3-divisibility of real quadratic class numbers: "
        "witness sieve, oracle verification, growth counts, reflection falsifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        sp = sub.add_parser(name, help=fn.__doc__)
        for key, (default, _, help_text) in _SETTINGS.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):  # a flag without a value, read as "true"
                sp.add_argument(flag, action="append_const", const="true", help=help_text)
            else:
                sp.add_argument(flag, action="append", help=help_text)
        sp.add_argument("--config", help="key=value config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        t0 = time.perf_counter()
        code = _COMMANDS[args.command](cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"arithmetic fault: {exc}", file=sys.stderr)
        return EXIT_ARITHMETIC
    print(f"# {args.command}: elapsed {time.perf_counter() - t0:.2f}s")
    return code


def entrypoint() -> None:
    if hasattr(signal, "SIGPIPE"):  # a closed output pipe ends the run, with no traceback
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
