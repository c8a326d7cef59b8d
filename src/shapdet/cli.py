"""Command-line front end.

Every command emits a stable envelope: the echoed command, its
parameters, a result payload, a list of expected-vs-computed checks and
the elapsed time.  Formats: plain (default), json, csv (series and
exponent tables only).  Exit codes: 0 success, 1 verification mismatch,
2 invalid input or work too large for memory.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time

from .blocks import cartan_exponent, enumerate_blocks
from .exact import ExactMatrix, InternalCheckError
from .gram import FormEngine, gram_matrices, transition_matrices, verify
from .partitions import enumerate_partitions, exponent_totals, exponents
from .roots import (ROSTER, det_a, det_a_expected, finite_root_data,
                    parse_type)
from .series import ab_series, cartan_series

#: Degrees at which `gram --roster` verifies each built-in type.
ROSTER_DEGREES = {
    "A1^1": 6, "A2^2": 6,
    "A2^1": 4, "A5^2": 4, "A4^2": 4, "D3^2": 4, "D5^2": 4, "E6^2": 4,
    "D4^3": 4,
    "D4^1": 3, "E6^1": 3, "A4^1": 3,
}


def _read_fixture(path) -> dict:
    """Root-data fixture: a JSON object whose "gram" replaces the Cartan
    matrix (testing hook for deliberately corrupted data)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SystemExit("cannot read --root-data %s: %s"
                         % (path, exc.strerror or exc))
    except ValueError as exc:
        raise SystemExit("--root-data %s is not valid JSON: %s" % (path, exc))
    if not isinstance(raw, dict):
        raise SystemExit("--root-data %s must hold a JSON object" % path)
    return raw


def _root_data(t, fixture: dict) -> ExactMatrix:
    """The fixture's gram, which replaces the Cartan matrix of t.  Only the
    gram's presence, shape and entry types are checked: mathematically
    wrong grams are the point of the hook."""
    gram = fixture.get("gram")
    if gram is None:
        raise SystemExit('--root-data fixture has no "gram" key')
    size = t.N  # the nodes of X_N
    if not (isinstance(gram, list) and len(gram) == size
            and all(isinstance(row, list) and len(row) == size
                    for row in gram)):
        raise SystemExit("--root-data gram must be a %dx%d list of lists for %s"
                         % (size, size, t))
    if not all(type(x) is int for row in gram for x in row):
        raise SystemExit("--root-data gram entries must be integers")
    return ExactMatrix(gram)


def _matrix_payload(m) -> list | None:
    return None if m is None else [[str(x) for x in row] for row in m.rows]


class Envelope:
    def __init__(self, command: str, type_name: str | None, parameters: dict):
        self.data = {
            "command": command,
            "type": type_name,
            "parameters": parameters,
            "result": {},
            "checks": [],
            "elapsed_seconds": None,
        }
        self.started = time.monotonic()
        self.lines: list[str] = []
        self.csv_rows: list[list] = []

    def check(self, name, expected, computed):
        ok = expected == computed
        self.data["checks"].append({
            "name": name,
            "expected": expected,
            "computed": computed,
            "pass": ok,
        })
        return ok

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.data["checks"])

    def finish(self, fmt: str, out) -> None:
        self.data["elapsed_seconds"] = round(time.monotonic() - self.started, 6)
        if self.data["checks"]:
            self.data["pass"] = self.passed
        if fmt == "json":
            print(json.dumps(self.data, indent=2), file=out)
        elif fmt == "csv":
            for row in self.csv_rows:
                print(",".join(str(x) for x in row), file=out)
        else:
            for line in self.lines:
                print(line, file=out)
            for c in self.data["checks"]:
                print("check %-28s expected=%s computed=%s %s"
                      % (c["name"], c["expected"], c["computed"],
                         "ok" if c["pass"] else "MISMATCH"), file=out)
            if self.data["checks"]:
                print("pass: %s" % self.passed, file=out)


def _cmd_info(args) -> Envelope:
    t = parse_type(args.type)
    data = finite_root_data(t)
    env = Envelope("info", t.name, {})
    env.data["result"] = {
        "ell": t.ell, "k": t.k, "alpha": t.alpha, "beta": t.beta,
        "r": t.r, "a0": t.a0, "epsilon": t.epsilon, "I": list(t.I),
        "nodes": list(data.nodes),
        "d": {str(i): data.d[i] for i in data.nodes},
        "c": {str(i): data.c[i] for i in data.nodes},
        "orbits": [list(o) for o in data.orbits],
        "cartan": _matrix_payload(data.gram),
    }
    env.lines = [
        "type %s: ell=%d k=%d alpha=%d beta=%d r=%d a0=%d" %
        (t.name, t.ell, t.k, t.alpha, t.beta, t.r, t.a0),
        "I = %s (epsilon = %d omitted)" % (list(t.I), t.epsilon),
        "d = %s" % ({i: data.d[i] for i in t.I},),
        "orbits = %s" % ([list(o) for o in data.orbits],),
    ]
    return env


def _cmd_deta(args) -> Envelope:
    if args.roster:
        if args.n is not None:
            raise SystemExit("--roster and --n are mutually exclusive")
        pairs = [(name, n) for name in ROSTER for n in range(1, 7)]
    else:
        if args.type is None or args.n is None:
            raise SystemExit("detA needs a type and --n, or --roster")
        pairs = [(args.type, args.n)]
    env = Envelope("detA", None if args.roster else args.type,
                   {"n": args.n, "roster": args.roster})
    rows = []
    for name, n in pairs:
        t = parse_type(name)
        expected = det_a_expected(t, n)
        try:
            value = det_a(t, n)
        except InternalCheckError:
            value = None
        env.check("detA(%s,%d)" % (name, n), expected, value)
        rows.append([name, n, value, expected])
        env.lines.append("det A^(%d) for %s = %s (expected %s)"
                         % (n, name, value, expected))
    env.data["result"] = {"table": rows}
    return env


def _cmd_exponents(args) -> Envelope:
    t = parse_type(args.type)
    d = args.d
    env = Envelope("exponents", t.name, {"d": d})
    table = []
    for lam in enumerate_partitions(d):
        a, b = exponents(t, lam)
        table.append({"partition": list(lam), "a": a, "b": b})
    a_d, b_d = exponent_totals(t, d)
    det = t.alpha ** a_d * t.beta ** b_d
    aq, bq = ab_series(t, d)
    env.check("sum_a_equals_series", aq[d], a_d)
    env.check("sum_b_equals_series", bq[d], b_d)
    env.data["result"] = {
        "table": table, "a": a_d, "b": b_d,
        "determinant": det,
        "factored": "%d^%d * %d^%d" % (t.alpha, a_d, t.beta, b_d),
    }
    env.lines = ["%-20s a=%-6d b=%d" % ("+".join(map(str, r["partition"])) or "0",
                                        r["a"], r["b"]) for r in table]
    env.lines.append("totals: a(%d)=%d b(%d)=%d  det = %d" %
                     (d, a_d, d, b_d, det))
    env.csv_rows = [["partition", "a", "b"]] + [
        ["+".join(map(str, r["partition"])), r["a"], r["b"]] for r in table]
    return env


def _cmd_series(args) -> Envelope:
    D = args.max_degree
    if D < 0:
        raise SystemExit("--max-degree must be >= 0, got %d" % D)
    if (args.type is None) == (args.p is None):
        raise SystemExit("series needs exactly one of TYPE or -p")
    if args.spin and args.p is None:
        raise SystemExit("--spin needs -p, not a type")
    if args.type is not None:
        t = parse_type(args.type)
        env = Envelope("series", t.name, {"max_degree": D})
        aq, bq = ab_series(t, D)
        series = {"a": aq, "b": bq}
        checks = (("coefficients_match_sums[d=%d]" % d, [aq[d], bq[d]],
                   list(exponent_totals(t, d))) for d in range(D + 1))
    else:
        p = args.p
        env = Envelope("series", None,
                       {"p": p, "spin": args.spin, "max_degree": D})
        nq = cartan_series(p, D, args.spin)
        series = {"N": nq}
        checks = (("coefficient_matches_closed_form[d=%d]" % d,
                   cartan_exponent(p, d, args.spin), nq[d])
                  for d in range(D + 1))
    for check in checks:  # lazy: nothing past the first failing d is computed
        if not env.check(*check):
            break
    env.data["result"] = {name: list(s.coeffs) for name, s in series.items()}
    env.lines = ["%s(q) coefficients 0..%d: %s" % (name, D, list(s.coeffs))
                 for name, s in series.items()]
    env.csv_rows = [["d", *series]] + [[d] + [s[d] for s in series.values()]
                                       for d in range(D + 1)]
    return env


def _cmd_gram(args) -> Envelope:
    if args.d is not None and args.d < 0:
        raise SystemExit("-d must be >= 0, got %d" % args.d)
    if args.roster:  # each type up to its roster degree, capped by -d
        jobs = [(name, d) for name, top in ROSTER_DEGREES.items()
                for d in range(min(top, top if args.d is None else args.d) + 1)]
    else:
        if args.type is None or args.d is None:
            raise SystemExit("gram needs a type and -d, or --roster")
        jobs = [(args.type, args.d)]
    fixture = _read_fixture(args.root_data) if args.root_data else None
    cases = []
    for name, d in jobs:
        t = parse_type(name)
        gram = None if fixture is None else _root_data(t, fixture)
        cases.append((name, d, t, gram))
    env = Envelope("gram", None if args.roster else args.type,
                   {"d": args.d, "roster": args.roster, "check": args.check})
    results, engine = [], None  # one FormEngine per type, over its jobs
    for name, d, t, gram in cases:
        engine = engine if engine and engine.type == t else FormEngine(t, gram)
        report = verify(t, d, engine)
        payload = report.to_dict()
        if args.matrices:
            try:
                M, N = gram_matrices(t, d, engine)
            except InternalCheckError:  # verify recorded it as a failure
                M = N = P = Q = None
            else:
                P, Q = transition_matrices(t, d, engine)
            for key, m in zip("MNPQ", (M, N, P, Q)):
                payload[key] = _matrix_payload(m)
        results.append(payload)
        if args.format == "plain":  # json prints each big int once itself
            env.lines.append("%s d=%d: dim=%d det M=%s predicted=%d (%s) "
                             "identity=%s det N=%s %s" % (
                name, d, report.basis_size, report.det_M,
                report.predicted_det, payload["predicted"]["factored"],
                report.identity_ok, report.det_N, "ok" if report.ok else
                "FAIL: " + "; ".join(report.failures)))
        if args.check:
            env.check("verify(%s,d=%d)" % (name, d), True, report.ok)
    env.data["result"] = results if args.roster else results[0]
    return env


def _cmd_blocks(args) -> Envelope:
    env = Envelope("blocks", None, {"n": args.n, "p": args.p})
    records = enumerate_blocks(args.n, args.p)
    env.data["result"] = [{
        "core": list(b.core), "weight": b.weight,
        "members": b.member_count, "cartan_exponent": b.cartan_exponent,
        "cartan_det": b.cartan_det,
    } for b in records]
    total = sum(b.member_count for b in records)
    env.check("members_sum_to_p(n)", len(enumerate_partitions(args.n)), total)
    by_weight = {}
    for b in records:
        by_weight.setdefault(b.weight, set()).add(b.cartan_det)
    env.check("equal_weight_equal_determinant", True,
              all(len(s) == 1 for s in by_weight.values()))
    for b in records:
        env.lines.append("core=%s weight=%d members=%d det=%d^%d=%d"
                         % (list(b.core), b.weight, b.member_count,
                            args.p, b.cartan_exponent, b.cartan_det))
    return env


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shapdet",
        description="Exact Gram determinants of the Shapovalov form on "
                    "basic representations of affine ADE types, and Cartan "
                    "determinants of symmetric-group/Hecke blocks.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, with_type=True):
        if with_type:
            p.add_argument("type", nargs="?",
                           help="affine type string, e.g. A5^1, A4^2, D4^3")
        p.add_argument("--format", choices=("plain", "json", "csv"),
                       default="plain")
        p.add_argument("--out", metavar="FILE",
                       help="write output to FILE instead of stdout")

    p = sub.add_parser("info", help="table constants and root data")
    common(p)
    p.set_defaults(func=_cmd_info, needs_type=True)

    p = sub.add_parser("detA", help="determinant of the pairing matrix A^(n)")
    common(p)
    p.add_argument("--n", type=int, help="pairing index n >= 0; A^(0) = A^(r)")
    p.add_argument("--roster", action="store_true",
                   help="check all built-in types at n = 1..6")
    p.set_defaults(func=_cmd_deta, needs_type=False)

    p = sub.add_parser("exponents", help="a_lambda, b_lambda table at degree d")
    common(p)
    p.add_argument("-d", type=int, required=True)
    p.set_defaults(func=_cmd_exponents, needs_type=True)

    p = sub.add_parser("series", help="a(q)/b(q) of a type, or N(q) for -p")
    common(p)
    p.add_argument("-p", type=int, help="block parameter p (Cartan series)")
    p.add_argument("--spin", action="store_true",
                   help="spin (double cover) Cartan series")
    p.add_argument("--max-degree", type=int, default=20)
    p.set_defaults(func=_cmd_series, needs_type=False)

    p = sub.add_parser("gram", help="Gram matrices and the determinant check")
    common(p)
    p.add_argument("-d", type=int, help="degree")
    p.add_argument("--check", action="store_true",
                   help="exit 1 unless every verification check passes")
    p.add_argument("--roster", action="store_true",
                   help="verify all built-in types (optionally capped by -d)")
    p.add_argument("--matrices", action="store_true",
                   help="include full matrices in the payload")
    p.add_argument("--root-data", metavar="FILE",
                   help="JSON fixture overriding the Cartan matrix")
    p.set_defaults(func=_cmd_gram, needs_type=False)

    p = sub.add_parser("blocks", help="p-blocks of the symmetric group S_n")
    common(p, with_type=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_blocks, needs_type=False)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):  # print dets of any length
        sys.set_int_max_str_digits(0)
    # The output is rendered into a buffer so that a command refused with
    # exit 2 leaves an existing --out file untouched.
    out = io.StringIO() if args.out else sys.stdout
    try:
        if args.needs_type and not args.type:
            raise SystemExit("this command requires a type argument")
        if getattr(args, "roster", False) and args.type:
            raise SystemExit("--roster and an explicit type are mutually "
                             "exclusive")
        if args.format == "csv" and args.cmd not in ("series", "exponents"):
            raise SystemExit("csv output is only available for series and "
                             "exponent tables")
        env = args.func(args)
        env.finish(args.format, out)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print("error: %s" % exc.code, file=sys.stderr)
            return 2
        raise
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InternalCheckError as exc:  # a failed check outside verify's report
        print("error: internal check failed: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:  # oversized work, not a mismatch
        print("error: out of memory: the work is too large", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out.getvalue())
        except OSError as exc:
            print("error: cannot write --out %s: %s"
                  % (args.out, exc.strerror or exc), file=sys.stderr)
            return 2
    return 0 if env.passed else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
