"""Workloads of the ccsieve benchmark and the outputs each one must reproduce.

Each workload is the README's full pipeline of `ccsieve` CLI stages sharing
one output directory: enumerate X = 10^7 (the Honda sieve), verify (the
witnesses plus the real oracle for d <= 10^4), count (the reference run with
the truth sweep to 2*10^4, real oracle) and falsify-scholz to 2*10^4
(imaginary oracle, then real).  Each stage is its own end-to-end metric, so
a change to one layer shows in its stage and leaves the others.  The two
workloads differ only in the worker count: with 2 workers every stage takes
the process-pool paths.  The inputs are integer ranges fixed by the paper's
definitions, so no input depends on the seed.
"""

from __future__ import annotations

E7 = ["--x-max", "10000000"]
TRUTH = [
    "--config", "configs/reference.cfg",
    "--checkpoints", "100,1000,10000,20000,100000,1000000",
    "--truth-x-max", "20000",
]
ONE_WORKER_ENUMERATE = ("enumerate", ["enumerate", *E7, "--workers", "1"])

# sha256 of each CSV at the commit that introduced the benchmark.
SHA_WITNESSES = "ae950a446e8e93911962a9d140d620b10aa8cf1a6eaddd36a64bcf411bd37d6b"
SHA_N_HONDA = "5f3e8242d7bd29f61c9fd308a67e94dd3dbc662098d9d8186a94bbe5d975c904"
SHA_N_TRUTH = "35e85b89091690ffeb65a3a86a649866289b2fd0d67a1b46a00da4c610048661"
SHA_COUNTEREXAMPLES = "9970a63a671530b114f990c46ee4217590c47ba88d8867698db9de991deb4676"


def _pipeline(workers: int) -> dict:
    w = ["--workers", str(workers)]
    return {
        "workers": workers,
        "stages": [
            ("enumerate", ["enumerate", *E7, *w]),
            ("verify", ["verify"]),
            ("count", ["count", *TRUTH, *w]),
            ("falsify", ["falsify-scholz", "--scholz-bound", "20000", *w]),
        ],
        "stdout": {
            "enumerate": ["witnesses: 56407"],
            "verify": ["checked: 56407", "passed: 56407", "failed: 0"],
            "count": ["containment: truth >= honda at all shared checkpoints"],
            "falsify": ["counterexamples: 3256"],
        },
        # rows exclude header and comment lines; the outputs do not depend on workers
        "files": {
            "witnesses.csv": (56407, SHA_WITNESSES),
            "n_honda.csv": (6, SHA_N_HONDA),
            "n_truth.csv": (4, SHA_N_TRUTH),
            "counterexamples.csv": (3256, SHA_COUNTEREXAMPLES),
        },
        "n_truth": [(100, 1), (1000, 35), (10000, 554), (20000, 1201)],
        "n_honda_at": {20000: 648},
        "counterexample_rows": ["29,1,6", "69,2,3"],
    }


WORKLOADS = {"pipeline-1w": _pipeline(1), "pipeline-2w": _pipeline(2)}

# Counters the traced run must reproduce: (stage, caller, callee) -> calls.
# The caller is the innermost traced function around the call.  Calls made
# inside pool workers are not traced, so the pins hold for one worker only.
_TRUTH = ("count", "counting.truth_count_series")
_SCHOLZ = ("falsify", "counting.scholz_counterexample_search")
ACCOUNTING = {
    "pipeline-1w": {
        (*_TRUTH, "intmath.squarefree_decompose"): 19999,  # the squarefree filter, d <= 2*10^4
        (*_TRUTH, "classnum.class_number_real_narrow"): 12159,
        (*_SCHOLZ, "classnum.class_number_imaginary"): 12159,
        (*_SCHOLZ, "classnum.class_number_real_narrow"): 4457,  # d passing the imaginary filter
    },
}
