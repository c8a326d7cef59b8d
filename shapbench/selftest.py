"""Self-tests of the benchmark itself.  From the repository root:

    python3 shapbench/selftest.py

1. A case fed a deliberately corrupted ``--root-data`` fixture exits 1 and
   counts as failed; a fixture of the wrong size counts as failed too; the
   run goes on and the next, valid case passes.
2. The traced replay gives the same det M, det N and identity verdicts as
   ``shapdet.verify`` for every roster type at d <= 2, with one span per
   replayed call, so the traced run measures the program the untraced run
   does.
3. The runner reports exactly the workloads, metric names and units that
   ``BENCHMARK.json`` declares.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import sys
import time

import run
import worker


def failing_cases_are_counted():
    gold = next(c for c in run.load_golden("roster")["result"]
                if (c["type"], c["d"]) == ("A2^1", 2))
    golden = {"result": gold}
    fixtures = os.path.join(run.HERE, "fixtures")
    tally = run.Tally()
    deadline = time.monotonic() + 120
    problems = []

    out = run.run_cli_case(
        run.cli_argv(("A2^1", 2), ["--root-data",
                                   os.path.join(fixtures, "corrupt-a2.json")]),
        golden, tally, deadline)
    if out is None or out["code"] != 1:
        problems.append("corrupted fixture: expected exit 1, got %r"
                        % (out and out["code"]))
    if (tally.attempted, tally.failed) != (1, 1):
        problems.append("corrupted fixture: tally %d/%d, expected 1/1"
                        % (tally.failed, tally.attempted))

    run.run_cli_case(
        run.cli_argv(("A2^1", 2), ["--root-data",
                                   os.path.join(fixtures, "malformed-a2.json")]),
        golden, tally, deadline)
    if (tally.attempted, tally.failed) != (2, 2):
        problems.append("malformed fixture: tally %d/%d, expected 2/2"
                        % (tally.failed, tally.attempted))

    out = run.run_cli_case(run.cli_argv(("A2^1", 2)), golden, tally,
                           deadline)
    if out is None or out["code"] != 0 or (tally.attempted,
                                            tally.failed) != (3, 2):
        problems.append("valid case after failures: tally %d/%d, expected "
                        "2/3" % (tally.failed, tally.attempted))
    if len(tally.witnesses) != 2:
        problems.append("expected 2 witnesses, got %r" % tally.witnesses)
    return problems


def replay_matches_verify():
    worker.import_shapdet()
    from shapdet import ROSTER, parse_type, verify

    problems = []
    for name in ROSTER:
        t = parse_type(name)
        for d in range(3):
            report = verify(t, d)
            tracer = worker.Tracer()
            with tracer.span("case", 0) as rec:
                verdict, _ = worker.replay(
                    t, d, lambda call: tracer.span(call, 0, rec["id"]))
            want = (report.det_M, report.det_N, report.identity_ok)
            got = (verdict["det_M"], verdict["det_N"], verdict["identity_ok"])
            if got != want or not report.ok:
                problems.append("%s d=%d: replay %r, verify %r (ok=%s)"
                                % (name, d, got, want, report.ok))
            calls = [s["name"] for s in tracer.spans[1:]]
            if sorted(calls) != sorted(run.LAYER_CALLS) or any(
                    s["end"] < s["start"] or s["parent"] != rec["id"]
                    for s in tracer.spans[1:]):
                problems.append("%s d=%d: spans %r" % (name, d, calls))
    return problems


def declared_metrics_match():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for key, emitted in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != emitted:
            problems.append("%s: declared %r, emitted %r"
                            % (key, declared, emitted))
    if {w["name"] for w in bench["workloads"]} != set(run.WORKLOADS):
        problems.append("workloads differ from BENCHMARK.json")
    return problems


def main():
    problems = []
    for check in (failing_cases_are_counted, replay_matches_verify,
                  declared_metrics_match):
        found = check()
        print("%s: %s" % (check.__name__, "ok" if not found else "FAIL"))
        problems.extend(found)
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
