"""Benchmark of shapdet's theorem checks, with a traced per-module run.

Usage (from the repository root):

    python3 shapbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each case runs ``shapdet gram ... --check --format json`` through
``shapdet.cli.main`` in a fresh interpreter (``worker.py``), one process at
a time on a closed loop: a case starts only after the previous one ends.
Every case is checked exactly against the golden envelopes in ``golden/``.
The workloads are fixed mathematical cases, so ``--seed`` changes no input.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

- ``wall_ref``: median over the run's cases of the seconds of one
  ``main()`` call (first verify to last verdict, CLI envelope included)
  divided by the mean seconds of ``worker.reference_kernel``, sampled in
  the same process every 50 ms during that call.  Other tenants of a
  shared host slow the program by up to 2x for seconds to minutes; the
  kernel slows with it, so the ratio stays put where raw seconds do not.
  Raw seconds are in the run info;
- ``setup_s``: median seconds to import ``shapdet`` and ``shapdet.cli`` in
  a fresh interpreter, over ``SETUP_PROBES`` probes and every case process;
- ``peak_rss_mb``: median peak resident memory of one case's process.

With ``--trace 1`` the loop alternates an untraced case with a traced
replay of ``verify`` (``worker.replay``) and reports the per-layer seconds
(medians over replays), the exact counts, and ``trace.overhead_s``: traced
case seconds minus untraced seconds (medians).  Spans go to ``.bench_out/``.

The line before the result holds the run info: Python version, nproc, src
line count, commit, failures and their witnesses.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: workload -> (type, d) of `gram TYPE -d D`; None is `gram --roster`.
WORKLOADS = {"deep-a1": ("A1^1", 12), "wide-e6": ("E6^1", 4), "roster": None}

SETUP_PROBES = 5
#: Every run ends within this many seconds, whatever the cases do.
HARD_LIMIT_S = 170.0

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_CALLS = ("partitions.exponent_totals", "roots.a_matrix",
               "partitions.enumerate_basis", "gram.gram_matrices",
               "gram.transition_matrices", "exact.det_m", "exact.det_n",
               "exact.invert", "exact.matmul", "exact.compare",
               "exact.is_symmetric")
PER_LAYER = {
    **{call + "_s": "s" for call in LAYER_CALLS},
    "case.self_s": "s", "trace.overhead_s": "s",
    "partitions.dim": "count", "gram.x_terms": "count",
    "gram.pair_products": "count", "gram.shape_match_frac": "ratio",
    "gram.m_nnz": "count", "gram.m_density": "ratio", "gram.n_nnz": "count",
    "gram.m_max_bits": "bits", "exact.det_m_bits": "bits"}


def cli_argv(case, extra=()):
    target = ["--roster"] if case is None else [case[0], "-d", str(case[1])]
    return ["gram", *target, "--check", "--format", "json", *extra]


def load_golden(workload):
    with open(os.path.join(HERE, "golden", workload + ".json")) as fh:
        return json.load(fh)


def results_of(envelope):
    result = envelope["result"]
    return result if isinstance(result, list) else [result]


def first_difference(gold, got, path=""):
    """Path of the first value in ``gold`` that ``got`` lacks or changes.

    Keys that ``got`` adds are allowed: envelopes may grow new keys.
    """
    if isinstance(gold, dict):
        if not isinstance(got, dict):
            return path or "/"
        for key, value in gold.items():
            if key not in got:
                return "%s/%s" % (path, key)
            diff = first_difference(value, got[key], "%s/%s" % (path, key))
            if diff:
                return diff
        return None
    if isinstance(gold, list):
        if not isinstance(got, list) or len(got) != len(gold):
            return path or "/"
        for pos, (a, b) in enumerate(zip(gold, got)):
            diff = first_difference(a, b, "%s/%d" % (path, pos))
            if diff:
                return diff
        return None
    return None if type(gold) is type(got) and gold == got else (path or "/")


class Tally:
    """Cases attempted and failed, with a witness for the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.witnesses = []

    def record(self, n_cases, failures):
        self.attempted += n_cases
        self.failed += min(n_cases, len(failures))
        self.witnesses.extend(failures[:10 - len(self.witnesses)])


def cli_failures(golden, out, error):
    """One message per failing case of a ``cli`` worker's envelope."""
    gold_cases = results_of(golden)
    if error:
        return [error] * len(gold_cases)
    try:
        envelope = json.loads(out["stdout"])
        envelope.pop("elapsed_seconds", None)
        cases = results_of(envelope)
        failures = []
        for gold, case in zip(gold_cases, cases):
            reasons = []
            if case.get("pass") is not True:
                reasons.append("pass is not true")
            if case.get("det_M") != gold["det_M"]:
                reasons.append("det_M differs from golden")
            if case.get("det_M") != case["predicted"]["determinant"]:
                reasons.append("det_M differs from predicted.determinant")
            if case.get("det_N") != 1:
                reasons.append("det_N != 1")
            if case.get("identity_ok") is not True:
                reasons.append("identity_ok is not true")
            diff = first_difference(gold, case)
            if diff:
                reasons.append("differs from golden at %s" % diff)
            if reasons:
                failures.append("%s d=%s: %s" % (gold["type"], gold["d"],
                                                 "; ".join(reasons)))
        failures.extend("case %d missing" % pos
                        for pos in range(len(cases), len(gold_cases)))
        outer = {k: v for k, v in golden.items() if k != "result"}
        diff = first_difference(outer, envelope)
        if out["code"] != 0 or envelope.get("pass") is not True or diff:
            if not failures:
                failures.append("exit %s, envelope differs at %s"
                                % (out["code"], diff))
        return failures
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return ["malformed envelope (exit %s): %r" % (out["code"], exc)] \
            * len(gold_cases)


def trace_failures(golden, out, error, reference):
    """One message per traced case whose verdicts disagree with the golden,
    or whose counts differ from the ``reference`` (first traced) run's."""
    gold_cases = {(c["type"], c["d"]): c for c in results_of(golden)}
    if error:
        return [error] * len(gold_cases)
    failures = []
    if reference is not None and out["counts"] != reference["counts"]:
        failures.append("counts differ from the first traced run")
    for v in out["verdicts"]:
        gold = gold_cases.get((v["type"], v["d"]))
        if gold is None:
            failures.append("%s d=%s: not a golden case" % (v["type"], v["d"]))
        elif not (v["det_M"] == gold["det_M"]
                  == gold["predicted"]["determinant"] == v["predicted"]
                  and v["det_N"] == 1 and v["identity_ok"] and v["symmetric"]
                  and v["basis_size"] == gold["basis_size"]):
            failures.append("%s d=%s: traced verdicts %r differ from golden"
                            % (v["type"], v["d"], v))
    failures.extend(["traced case missing"]
                    * (len(gold_cases) - len(out["verdicts"])))
    return failures


def run_worker(spec, deadline):
    """Run one worker process; returns (output, None) or (None, error)."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(spec)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "worker timed out after %.0f s" % timeout
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
        return None, "worker exit %d: %s" % (proc.returncode, tail)
    try:
        return json.loads(proc.stdout.splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, "unreadable worker output"


def run_cli_case(argv, golden, tally, deadline):
    """One checked CLI case; returns the worker output, or None if the
    worker itself failed."""
    out, error = run_worker({"mode": "cli", "argv": argv}, deadline)
    tally.record(len(results_of(golden)), cli_failures(golden, out, error))
    return out


def run_trace_case(case, golden, tally, deadline, reference):
    jobs = "roster" if case is None else [list(case)]
    out, error = run_worker({"mode": "trace", "jobs": jobs}, deadline)
    tally.record(len(results_of(golden)),
                 trace_failures(golden, out, error, reference))
    return None if error else out


def measure(case, golden, seconds, trace, deadline):
    """Set-up probes, then a closed loop for ``seconds``: a case (or an
    untraced + traced pair) starts only if the previous one's duration
    still fits.  Every worker times its own import, so the set-up samples
    span the whole run."""
    tally = Tally()
    samples = {"wall_s": [], "ref_s": [], "setup_s": [], "peak_rss_mb": []}
    traced = []
    # The first import compiles the sources to bytecode; it is not timed.
    run_worker({"mode": "setup"}, deadline)
    for _ in range(SETUP_PROBES):
        out, _ = run_worker({"mode": "setup"}, deadline)
        if out:
            samples["setup_s"].append(out["setup_s"])
    stop = time.monotonic() + seconds
    rounds, last = 0, 0.0
    while rounds == 0 or time.monotonic() + last <= stop:
        rounds += 1
        begin = time.monotonic()
        out = run_cli_case(cli_argv(case), golden, tally, deadline)
        if out:
            samples["wall_s"].append(out["wall_s"])
            samples["ref_s"].append(out["ref_s"])
            samples["setup_s"].append(out["setup_s"])
            samples["peak_rss_mb"].append(out["rss_kb"] / 1024.0)
        if trace:
            out = run_trace_case(case, golden, tally, deadline,
                                 traced[0] if traced else None)
            if out:
                traced.append(out)
                samples["setup_s"].append(out["setup_s"])
        last = time.monotonic() - begin
        if time.monotonic() + last > deadline:
            break
    return tally, samples, traced, rounds


def layer_seconds(spans):
    """Per-call seconds of one traced process, plus its traced case total."""
    out = dict.fromkeys([call + "_s" for call in LAYER_CALLS], 0.0)
    case_total = children = 0.0
    for span in spans:
        dur = span["end"] - span["start"]
        if span["name"] == "case":
            case_total += dur
        else:
            out[span["name"] + "_s"] += dur
            children += dur
    out["case.self_s"] = case_total - children
    return out, case_total


def aggregate_counts(counts):
    """Counts of one traced process: sums over its cases (max for bits)."""
    total = {k: sum(c[k] for c in counts)
             for k in ("dim", "x_terms", "pair_products", "shape_pairs",
                       "m_nnz", "m_cells", "n_nnz")}
    return {
        "partitions.dim": total["dim"],
        "gram.x_terms": total["x_terms"],
        "gram.pair_products": total["pair_products"],
        "gram.shape_match_frac": total["shape_pairs"] / total["pair_products"],
        "gram.m_nnz": total["m_nnz"],
        "gram.m_density": total["m_nnz"] / total["m_cells"],
        "gram.n_nnz": total["n_nnz"],
        "gram.m_max_bits": max(c["m_max_bits"] for c in counts),
        "exact.det_m_bits": max(c["det_m_bits"] for c in counts),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def per_layer_metrics(walls, traced):
    layers, case_totals = [], []
    for out in traced:
        secs, total = layer_seconds(out["spans"])
        layers.append(secs)
        case_totals.append(total)
    values = {name: median([s[name] for s in layers]) for name in layers[0]} \
        if layers else {}
    values["trace.overhead_s"] = median(case_totals) - median(walls)
    if traced:
        values.update(aggregate_counts(traced[0]["counts"]))
    return {name: values.get(name, 0.0) for name in PER_LAYER}


def run_info(args, tally, rounds):
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                             recursive=True))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + data)
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": args.workload, "seed": args.seed,
        "seed_effect": "none: the workloads are fixed mathematical cases",
        "trace": args.trace, "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "load": "closed loop, one worker process at a time, no threads",
        "src_lines": lines, "src_sha256": digest.hexdigest(), "commit": commit,
        "rounds": rounds, "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.failed / tally.attempted,
        "witnesses": tally.witnesses,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "shapdet", "cli.py")):
        print("error: no shapdet sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    case = WORKLOADS[args.workload]
    golden = load_golden(args.workload)

    tally, samples, traced, rounds = measure(case, golden, args.seconds,
                                             bool(args.trace), deadline)
    if args.trace:
        metrics = per_layer_metrics(samples["wall_s"], traced)
        units = PER_LAYER
    else:
        metrics = {"wall_ref": median([w / r for w, r in zip(
                       samples["wall_s"], samples["ref_s"])]),
                   "setup_s": median(samples["setup_s"]),
                   "peak_rss_mb": median(samples["peak_rss_mb"])}
        units = END_TO_END
    info = run_info(args, tally, rounds)
    info["samples"] = samples
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "%s-seed%d.trace.json"
                            % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump({"run_info": info,
                       "spans": [out["spans"] for out in traced]}, fh)
    for witness in tally.witnesses:
        print("FAILED: %s" % witness, file=sys.stderr)
    print(json.dumps({"run_info": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
