"""One benchmark case, run in a fresh interpreter so it pays cold caches.

Usage: python3 shapbench/worker.py '<json spec>'

Modes (the spec's "mode"):

- ``setup``: time ``import shapdet, shapdet.cli`` and nothing else.
- ``cli``: time the import, then one ``shapdet.cli.main(argv)`` call with
  its stdout captured, sampling a fixed reference kernel while it runs.
- ``trace``: time the import, then replay ``shapdet.verify``'s call
  sequence for each (type, d) job through the public API, recording one
  span per call, and compute the per-case counts from the public outputs
  outside the spans.

The worker prints one JSON object on stdout.  Its peak resident memory is
reported from inside, so it covers exactly this one case.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_shapdet() -> float:
    """Import the package and its CLI; returns the seconds it took."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import shapdet  # noqa: F401
    import shapdet.cli  # noqa: F401
    return time.perf_counter() - start


class Tracer:
    """Spans kept in memory: name, start, end, parent span id, case id."""

    def __init__(self):
        self.spans = []

    def span(self, name, case, parent=None) -> "Span":
        return Span(self.spans, name, case, parent)


class Span:
    def __init__(self, spans, name, case, parent):
        self.rec = {"id": len(spans), "name": name, "case": case,
                    "parent": parent, "start": None, "end": None}
        spans.append(self.rec)

    def __enter__(self) -> dict:
        self.rec["start"] = time.perf_counter()
        return self.rec

    def __exit__(self, *exc) -> bool:
        self.rec["end"] = time.perf_counter()
        return False


def replay(t, d, span):
    """``shapdet.verify(t, d)`` call by call, each call inside ``span(name)``.

    A^(n) for n = 1..d is built up front in its own span; verify builds the
    same cached matrices lazily inside the form recursion.  Returns the
    verdicts plus the objects the counts are computed from.
    """
    from shapdet import (FormEngine, a_matrix, as_integer, det_exact,
                         enumerate_basis, exponent_totals, gram_matrices,
                         invert, transition_matrices)

    with span("partitions.exponent_totals"):
        a_d, b_d = exponent_totals(t, d)
    predicted = t.alpha ** a_d * t.beta ** b_d
    with span("roots.a_matrix"):
        for n in range(1, d + 1):
            a_matrix(t, n)
    with span("partitions.enumerate_basis"):
        basis = enumerate_basis(t, d)
    with span("gram.gram_matrices"):
        M, N = gram_matrices(t, d, engine=FormEngine(t))
    with span("gram.transition_matrices"):
        P, Q = transition_matrices(t, d)
    with span("exact.is_symmetric"):
        symmetric = M.is_symmetric()
    with span("exact.det_m"):
        det_m = as_integer(det_exact(M))
    with span("exact.det_n"):
        det_n = as_integer(det_exact(N))
    with span("exact.invert"):
        p_inv = invert(P)
    with span("exact.matmul"):
        rhs = P @ Q @ p_inv @ N
    with span("exact.compare"):
        identity_ok = M == rhs
    verdict = {"type": t.name, "d": d, "basis_size": len(basis),
               "predicted": predicted, "det_M": det_m, "det_N": det_n,
               "identity_ok": identity_ok, "symmetric": symmetric}
    return verdict, (basis, M, N)


def case_counts(t, basis, M, N, det_m) -> dict:
    """Work and size counts of one case, from public outputs only.

    ``pair_products`` is the number of (x_a term, x_b term) monomial pairs,
    a <= b, that the Gram assembly visits; ``shape_pairs`` counts those
    whose y-monomials have the same part-size multiset.
    """
    from collections import Counter

    from shapdet import x_in_y

    sizes = []
    by_shape = {}
    for mono in basis:
        expansion = x_in_y(t, mono)
        sizes.append(len(expansion))
        # y-monomials are sorted by descending part, so this is canonical.
        shapes = Counter(tuple(n for n, _ in y) for y in expansion)
        for shape, c in shapes.items():
            by_shape.setdefault(shape, []).append(c)

    def upper_pairs(v):
        return (sum(v) ** 2 + sum(x * x for x in v)) // 2

    entries = [x for row in M.rows for x in row]
    return {
        "dim": len(basis),
        "x_terms": sum(sizes),
        "pair_products": upper_pairs(sizes),
        "shape_pairs": sum(upper_pairs(v) for v in by_shape.values()),
        "m_nnz": sum(1 for x in entries if x),
        "m_cells": len(entries),
        "n_nnz": sum(1 for row in N.rows for x in row if x),
        "m_max_bits": max(abs(x).bit_length() for x in entries),
        "det_m_bits": abs(det_m).bit_length(),
    }


def roster_jobs():
    """The (type, d) cases of ``gram --roster``, in the CLI's order."""
    from shapdet.cli import ROSTER_DEGREES

    return [(name, d) for name, top in ROSTER_DEGREES.items()
            for d in range(top + 1)]


def run_trace(jobs) -> dict:
    from shapdet import parse_type

    if jobs == "roster":
        jobs = roster_jobs()
    tracer = Tracer()
    verdicts = []
    counts = []
    for case, (name, d) in enumerate(jobs):
        t = parse_type(name)
        with tracer.span("case", case) as rec:
            verdict, (basis, M, N) = replay(
                t, d, lambda call: tracer.span(call, case, rec["id"]))
        verdicts.append(verdict)
        counts.append(case_counts(t, basis, M, N, verdict["det_M"]))
    return {"spans": tracer.spans, "verdicts": verdicts, "counts": counts}


#: Wall-clock period of the reference-kernel samples taken during a case.
REF_PERIOD_S = 0.05


def reference_kernel() -> int:
    """Fixed pure-Python work, independent of shapdet and never to be edited.

    It mixes what the verifier does (tuple-keyed dict updates, big-int and
    Fraction arithmetic), so its time tracks how fast the host runs such
    code at that moment.
    """
    from fractions import Fraction

    memo = {}
    acc = 1
    frac = Fraction(1)
    for i in range(200):
        key = (i % 13, (i * 7) % 11)
        memo[key] = memo.get(key, 0) + i
        acc = (acc * 1000003 + i) % (1 << 512)
        if i % 20 == 0:
            frac = frac * Fraction(i + 1, i + 3) + 1
    return acc


def run_cli(argv) -> dict:
    """One ``main(argv)`` call, sampling the reference kernel every
    ``REF_PERIOD_S`` while it runs.  ``wall_s`` excludes the samples'
    own time; ``ref_s`` is their mean."""
    import io
    import signal
    from contextlib import redirect_stdout

    import shapdet.cli

    ref = []

    def sample(signum=None, frame=None):
        start = time.perf_counter()
        reference_kernel()
        ref.append(time.perf_counter() - start)

    buf = io.StringIO()
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = shapdet.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall -= sum(ref)
    sample()  # so even a case shorter than one period has a sample
    return {"wall_s": wall, "ref_s": sum(ref) / len(ref), "code": code,
            "stdout": buf.getvalue()}


def main() -> int:
    # First, so no module the package needs is already loaded.
    out = {"setup_s": import_shapdet()}
    import json

    spec = json.loads(sys.argv[1])
    if spec["mode"] == "cli":
        out.update(run_cli(spec["argv"]))
    elif spec["mode"] == "trace":
        out.update(run_trace(spec["jobs"]))
    elif spec["mode"] != "setup":
        raise SystemExit("unknown worker mode %r" % spec["mode"])
    import resource

    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
