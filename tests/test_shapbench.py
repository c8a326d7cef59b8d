"""The benchmark's trace replay still runs against the package.

shapbench/worker.py replays verify's call sequence through names it
imports from shapdet (gram_matrices, invert, transition_matrices, ...).
It is loaded here unedited, so removing or renaming one of those names
fails this test rather than a later benchmark run.
"""

import importlib.util
from pathlib import Path

from shapdet import gram_matrices, parse_type, verify

WORKER = Path(__file__).parent.parent / "shapbench" / "worker.py"


def test_worker_trace_verdict_matches_verify():
    spec = importlib.util.spec_from_file_location("shapbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    trace = worker.run_trace([("A2^1", 2)])
    t = parse_type("A2^1")
    rep = verify(t, 2)
    assert rep.ok
    assert trace["verdicts"] == [{
        "type": "A2^1", "d": 2, "basis_size": rep.basis_size,
        "predicted": rep.predicted_det, "det_M": rep.det_M,
        "det_N": rep.det_N, "identity_ok": rep.identity_ok,
        "symmetric": gram_matrices(t, 2)[0].is_symmetric()}]
    assert trace["counts"][0]["dim"] == rep.basis_size
