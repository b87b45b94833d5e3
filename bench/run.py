"""ccsieve benchmark.

    python3 bench/run.py --workload pipeline-1w --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  Each repetition runs the workload's CLI pipeline (see spec.py) in a
fresh interpreter through `ccsieve.cli.main`, and every output is checked
against pinned values.  With `--trace 0` it repeats the pipeline for about
`--seconds` seconds and reports the end-to-end metrics; stage times are
ratios to a fixed probe kernel timed while each stage runs (unit `probe`, see
child.py), set-up is in seconds scaled to the probe's reference speed.  With
`--trace 1` it runs the pipeline once untraced and twice traced, reports the per-layer
metrics and writes both traces to .bench_out/<workload>.trace.json.  The
last line of standard output is one JSON object; metric names and units
come from BENCHMARK.json, and bench/metric_map.json says which end-to-end
metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from child import PROBE_REF_S
from spec import ACCOUNTING, ONE_WORKER_ENUMERATE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).with_name("child.py")
WORK = Path(".bench_out")
CHILD_TIMEOUT_S = 170
SETUP_SAMPLES_PER_REP = 6
MIN_REPS = 3
ELAPSED_RE = re.compile(r"^# [\w-]+: elapsed ([0-9.]+)s$", re.M)
# Layer self times add up to the stage wall by construction, up to float sums.
SELF_SUM_TOL_S = 1e-3
# The CLI prints its elapsed time to 0.01 s and leaves argument parsing out.
ELAPSED_TOL_S, ELAPSED_TOL = 0.05, 0.05


class Checks:
    """Every correctness check made in a run, and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def spawn(job: dict) -> tuple[float, dict | None, str]:
    """Run one child job; return (set-up seconds, result, error text)."""
    job = {"root": str(ROOT), **job}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    err_path = ROOT / WORK / "child.err"
    with open(err_path, "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(job)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err, text=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            rc = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        err.seek(0)
        errors = err.read()
    if ready.strip() != "ready" or rc != 0:
        return setup_s, None, f"child exited {rc}: {errors.strip()[-2000:]}"
    return setup_s, (json.loads(rest) if rest.strip() else {}), ""


def pipeline_job(name: str, trace: bool, stages=None) -> dict:
    """A child job running `stages` (default: the workload's) into .bench_out/<name>."""
    out = WORK / name
    stages = stages or WORKLOADS[name]["stages"]
    return {
        "kind": "stages",
        "out": str(out),
        "trace": trace,
        "stages": [[stage, [*argv, "--out", str(out)]] for stage, argv in stages],
    }


def data_rows(text: str) -> list[str]:
    return [line for line in text.splitlines() if line[:1].isdigit()]


def series(text: str) -> dict[int, int]:
    return {int(x): int(c) for x, c in (row.split(",") for row in data_rows(text))}


def check_outputs(name: str, result: dict | None, error: str, checks: Checks) -> None:
    """Pins of spec.py: exit codes, printed counts, row counts and hashes."""
    spec = WORKLOADS[name]
    if not checks.expect(result is not None, f"{name}: {error}"):
        return
    for stage in result["stages"]:
        checks.expect(stage["rc"] == 0, f"{stage['name']}: exit code {stage['rc']}")
        printed = stage["stdout"].splitlines()
        for line in spec["stdout"][stage["name"]]:
            checks.expect(line in printed, f"{stage['name']}: no line {line!r}")
    out = ROOT / WORK / name
    texts = {}
    for fname, (rows, sha) in spec["files"].items():
        path = out / fname
        if not checks.expect(path.is_file(), f"{fname} missing"):
            continue
        blob = path.read_bytes()
        texts[fname] = blob.decode("utf-8")
        checks.expect(len(data_rows(texts[fname])) == rows, f"{fname}: row count != {rows}")
        checks.expect(hashlib.sha256(blob).hexdigest() == sha, f"{fname}: sha256 differs")
    if "n_truth.csv" in texts and "n_honda.csv" in texts:
        honda = series(texts["n_honda.csv"])
        truth = series(texts["n_truth.csv"])
        reference = series((ROOT / "configs" / "reference_n_honda.csv").read_text("utf-8"))
        checks.expect(
            all(honda.get(x) == c for x, c in reference.items()),
            "n_honda.csv differs from configs/reference_n_honda.csv",
        )
        for x, c in spec["n_honda_at"].items():
            checks.expect(honda.get(x) == c, f"N_honda({x}) != {c}")
        checks.expect(sorted(truth.items()) == spec["n_truth"], "n_truth.csv differs")
        checks.expect(all(c >= honda.get(x, 0) for x, c in truth.items()), "containment fails")
    if "counterexamples.csv" in texts:
        rows = set(data_rows(texts["counterexamples.csv"]))
        for row in spec["counterexample_rows"]:
            checks.expect(row in rows, f"counterexamples.csv lacks {row}")


def stage_of(result: dict, stage: str) -> dict:
    return next(s for s in result["stages"] if s["name"] == stage)


def setup_samples(n: int) -> list[float]:
    """Set-up times of n fresh interpreters, each scaled to the reference
    host speed by the speed probe the same child times right after set-up:
    wall seconds * PROBE_REF_S / probe seconds (see child.py)."""
    samples = []
    for _ in range(n):
        setup_s, result, error = spawn({"kind": "setup", "out": str(WORK / "setup")})
        if error:
            raise RuntimeError(error)
        samples.append(setup_s * PROBE_REF_S / result["probe_s"])
    return samples


def timed_run(name: str, seconds: float, checks: Checks) -> dict[str, float]:
    """Repeat the pipeline for about `seconds` and report medians over the
    repetitions: each stage's time relative to the speed probe sampled
    while it runs (child.py), their sum for the whole pipeline, every
    set-up (scaled to the reference speed), and peak memory.  Raw seconds
    are printed as comments only, because on a shared host they drift by up
    to 2x within seconds.
    """
    setup_samples(1)  # fills the bytecode caches
    setups = []
    results = []
    reps = 0
    t_start = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        # set-ups spread over the run, so their median sees the same host as the stages
        setups += setup_samples(SETUP_SAMPLES_PER_REP)
        _setup, result, error = spawn(pipeline_job(name, trace=False))
        check_outputs(name, result, error, checks)
        reps += 1
        if result is not None:
            results.append(result)
        now = time.perf_counter()
        # stop before a repetition that would end past the measuring time
        if reps >= MIN_REPS and now - t_start + (now - t_rep) > seconds:
            break
    if not results:
        return {}
    stages = [stage for stage, _argv in WORKLOADS[name]["stages"]]
    print(f"# {len(results)} repetitions, {len(setups)} set-ups")
    for stage in stages:
        raw = statistics.median(stage_of(r, stage)["wall_s"] for r in results)
        print(f"# {stage}: median {raw:.4f} s wall")
    return {
        "pipeline_rel": statistics.median(sum(s["rel"] for s in r["stages"]) for r in results),
        **{
            f"{stage}_rel": statistics.median(stage_of(r, stage)["rel"] for r in results)
            for stage in stages
        },
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in results),
        "pass_ratio": (checks.attempted - len(checks.failures)) / checks.attempted,
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def calls_of(trace: dict, callee: str, field: str = "calls", stage=None, caller=None) -> float:
    idx = {"calls": 3, "s": 4, "self_s": 5}[field]
    return sum(
        row[idx]
        for row in trace["calls"]
        if row[2] == callee
        and (stage is None or row[0] == stage)
        and (caller is None or row[1] == caller)
    )


def counters(trace: dict) -> dict:
    return {
        "calls": sorted((row[0], row[1], row[2], row[3]) for row in trace["calls"]),
        "outcomes": trace["outcomes"],
    }


def check_accounting(name: str, results: list[dict], checks: Checks) -> None:
    """Counters against pins, self times against stage walls, stage walls
    against the CLI's own `elapsed` lines, and counters across two runs."""
    spec = WORKLOADS[name]
    rows = spec["files"]["witnesses.csv"][0]
    for result in results:
        trace = result["trace"]
        for (stage, caller, callee), pinned in ACCOUNTING.get(name, {}).items():
            got = calls_of(trace, callee, stage=stage, caller=caller)
            checks.expect(got == pinned, f"{callee} from {caller}: {got} calls, pinned {pinned}")
        boxes = trace["outcomes"].get("honda.enumerate_discriminants", [])
        made = sum(box[1] for stage, box in boxes if stage == "enumerate")
        validated = calls_of(trace, "honda.validate_witness", stage="verify")
        checks.expect(
            made == validated == rows, f"rows {made}, validate calls {validated}, pinned {rows}"
        )
        for stage in result["stages"]:
            st = stage["name"]
            wall = calls_of(trace, f"cli.{st}", "s", stage=st)
            selfs = sum(row[5] for row in trace["calls"] if row[0] == st)
            checks.expect(
                abs(selfs - wall) <= SELF_SUM_TOL_S,
                f"{st}: self times sum to {selfs:.4f}s, stage {wall:.4f}s",
            )
            printed = ELAPSED_RE.search(stage["stdout"])
            checks.expect(
                printed is not None
                and abs(float(printed.group(1)) - wall) <= ELAPSED_TOL_S + ELAPSED_TOL * wall,
                f"{st}: the CLI's elapsed line disagrees with the traced {wall:.3f}s",
            )
    checks.expect(
        counters(results[0]["trace"]) == counters(results[1]["trace"]),
        "counters differ between traced runs",
    )


def layer_metrics(name: str, results: list[dict], untraced: dict, extras: dict) -> dict:
    """Per-layer metrics of metric_map.json: counts from the first traced run,
    times averaged over both; 0 where the workload does not reach the layer."""
    traces = [r["trace"] for r in results]
    t0 = traces[0]

    def mean(callee, field, **kw):
        return statistics.fmean(calls_of(t, callee, field, **kw) for t in traces)

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for fn in ("squarefree_decompose", "cubic_has_integer_root", "is_squarefree"):
        m[f"intmath.{fn}.calls"] = calls_of(t0, f"intmath.{fn}")
        m[f"intmath.{fn}.s"] = mean(f"intmath.{fn}", "s")
    m["honda.enumerate_discriminants.s"] = mean("honda.enumerate_discriminants", "s")
    m["honda.enumerate_discriminants.self_s"] = mean("honda.enumerate_discriminants", "self_s")
    boxes = [o[1] for o in t0["outcomes"].get("honda.enumerate_discriminants", [])]
    pairs = sum(b[2] for b in boxes)
    m["honda.pairs"] = pairs
    m["honda.rows"] = sum(b[1] for b in boxes)
    m["honda.rows_per_pair"] = ratio(m["honda.rows"], pairs)
    m["honda.decompose_per_pair"] = ratio(
        calls_of(t0, "intmath.squarefree_decompose", caller="honda.enumerate_discriminants"), pairs
    )
    m["honda.validate_witness.calls"] = calls_of(t0, "honda.validate_witness")
    m["honda.validate_witness.s"] = mean("honda.validate_witness", "s")
    m["honda.write_witnesses_csv.s"] = mean("honda.write_witnesses_csv", "s")
    m["honda.read_witnesses_csv.s"] = mean("honda.read_witnesses_csv", "s")
    m["honda.witnesses_csv.bytes"] = extras["witnesses_bytes"]
    enum = next(s for s in untraced["stages"] if s["name"] == "enumerate")
    m["honda.cpu_util"] = enum["cpu_s"] / (WORKLOADS[name]["workers"] * enum["wall_s"])
    m["honda.parallel_efficiency"] = extras.get("parallel_efficiency", 0.0)
    m["honda.enumerate_exponent"] = extras.get("enumerate_exponent", 0.0)
    for fn in ("class_number_real_narrow", "class_number_imaginary"):
        key = f"classnum.{fn}"
        m[f"{key}.calls"] = calls_of(t0, key)
        m[f"{key}.s"] = mean(key, "s")
        for stat in ("p50_us", "p99_us", "d_exponent"):
            m[f"{key}.{stat}"] = statistics.fmean(
                t["oracles"].get(key, {}).get(stat, 0.0) for t in traces
            )
    m["classnum.max_abs_D"] = max((o["max_abs_D"] for o in t0["oracles"].values()), default=0)
    for fn in ("truth_count_series", "scholz_counterexample_search"):
        m[f"counting.{fn}.s"] = mean(f"counting.{fn}", "s")
        m[f"counting.{fn}.self_s"] = mean(f"counting.{fn}", "self_s")
    m["counting.honda_count_series.s"] = mean("counting.honda_count_series", "s")
    truth, scholz = "counting.truth_count_series", "counting.scholz_counterexample_search"
    # hits over oracle decisions: d with 3 | h(d), and counterexamples found
    for fn, oracle in ((truth, "real_narrow"), (scholz, "imaginary")):
        hits = sum(o[1] for o in t0["outcomes"].get(fn, []))
        decisions = calls_of(t0, f"classnum.class_number_{oracle}", caller=fn)
        m[f"{fn}.hit_ratio"] = ratio(hits, decisions)
    m["counting.real_call_ratio"] = ratio(
        calls_of(t0, "classnum.class_number_real_narrow", caller=scholz),
        calls_of(t0, "classnum.class_number_imaginary", caller=scholz),
    )
    for stage in ("enumerate", "verify", "count", "falsify"):
        m[f"cli.{stage}.self_s"] = mean(f"cli.{stage}", "self_s", stage=stage)
    traced_wall = statistics.fmean(r["wall_s"] for r in results)
    m["trace.overhead_s"] = traced_wall - untraced["wall_s"]
    return m


def traced_run(name: str, checks: Checks) -> dict[str, float]:
    setup_samples(1)  # fills the bytecode caches
    _setup, untraced, error = spawn(pipeline_job(name, trace=False))
    check_outputs(name, untraced, error, checks)
    traced = []
    for _ in range(2):
        _setup, result, error = spawn(pipeline_job(name, trace=True))
        check_outputs(name, result, error, checks)
        if result is not None:
            traced.append(result)
    if untraced is None or len(traced) < 2:
        return {}
    check_accounting(name, traced, checks)
    (ROOT / WORK / f"{name}.trace.json").write_text(json.dumps([r["trace"] for r in traced]))
    extras = {"witnesses_bytes": (ROOT / WORK / name / "witnesses.csv").stat().st_size}
    workers = WORKLOADS[name]["workers"]
    if workers == 1:
        _s, scaling, error = spawn(
            {"kind": "scaling", "out": str(WORK / "scaling"), "xs": [10**5, 10**6, 10**7]}
        )
        if checks.expect(scaling is not None, f"scaling probe: {error}"):
            print(f"# enumerate_discriminants seconds by X: {scaling['times']}")
            extras["enumerate_exponent"] = scaling["exponent"]
    else:
        _s, single, error = spawn(
            pipeline_job("one-worker", trace=False, stages=[ONE_WORKER_ENUMERATE])
        )
        if checks.expect(single is not None, f"one-worker probe: {error}"):
            t1 = stage_of(single, "enumerate")["rel"]
            t2 = stage_of(untraced, "enumerate")["rel"]
            extras["parallel_efficiency"] = t1 / (workers * t2)
            print(f"# enumerate_rel with 1 worker {t1:.4f}, with {workers} workers {t2:.4f}")
    return layer_metrics(name, traced, untraced, extras)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "ccsieve" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no ccsieve source checkout at {ROOT} (src/ccsieve, configs/)", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    (ROOT / WORK).mkdir(exist_ok=True)
    # The inputs are integer ranges fixed by the paper's definitions; the seed changes none.
    print(f"# workload {args.workload}, seed {args.seed} (recorded; inputs are fixed)")
    checks = Checks()
    if args.trace:
        values = traced_run(args.workload, checks)
    else:
        values = timed_run(args.workload, args.seconds, checks)
    checks.expect(bool(values), "no repetition completed")
    for failure in checks.failures:
        print(f"# FAIL {failure}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if values and (missing or len(values) != len(wanted)):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree: missing {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    failed = len(checks.failures)
    for key, metric in metrics.items():
        print(f"# {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"# fail_ratio = {failed}/{checks.attempted} checks")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
