import json

import pytest

from shapdet import cli, gram
from shapdet.cli import main
from shapdet.exact import InternalCheckError
from shapdet.partitions import _runs, enumerate_basis, exponent_totals
from shapdet.roots import parse_type


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_info(capsys):
    code, payload = run_json(capsys, "info", "A2^2")
    assert code == 0
    r = payload["result"]
    assert (r["ell"], r["k"], r["alpha"], r["beta"], r["r"]) == (1, 1, 1, 3, 2)
    assert r["d"] == {"0": 1, "2": 1}

    code, payload = run_json(capsys, "info", "E6^2")
    assert code == 0
    assert payload["result"]["k"] == 2
    assert [payload["result"]["d"][str(i)] for i in (1, 2, 3, 4)] == [1, 1, 2, 2]


def test_bad_type_exits_2(capsys):
    assert main(["info", "A3^2"]) == 2
    assert main(["info", "E9^1"]) == 2
    assert main(["gram", "B2^1", "-d", "2"]) == 2


def test_deta(capsys):
    code, payload = run_json(capsys, "detA", "A2^2", "--n", "1")
    assert code == 0
    assert payload["pass"] is True
    assert payload["checks"][0]["computed"] == 3

    code, _ = run(capsys, "detA", "--roster")
    assert code == 0


def test_exponents(capsys):
    code, payload = run_json(capsys, "exponents", "A1^1", "-d", "2")
    assert code == 0
    assert payload["result"]["a"] == 3 and payload["result"]["b"] == 0
    assert payload["result"]["determinant"] == 8
    assert payload["pass"] is True

    # 2^b(22) of D4^3 has 4412 digits, past Python's default limit of 4300
    # for int-to-str conversion; it is printed in full in both formats.
    det = 2 ** exponent_totals(parse_type("D4^3"), 22)[1]
    assert det.bit_length() > 4300 * 3.33
    code, payload = run_json(capsys, "exponents", "D4^3", "-d", "22")
    assert code == 0 and payload["result"]["determinant"] == det
    code, out = run(capsys, "exponents", "D4^3", "-d", "22")
    assert code == 0 and "det = %d\n" % det in out


def test_series_type_and_p(capsys):
    code, payload = run_json(capsys, "series", "A1^1", "--max-degree", "4")
    assert code == 0
    assert payload["result"]["a"] == [0, 1, 3, 6, 12]

    code, payload = run_json(capsys, "series", "-p", "3", "--spin",
                             "--max-degree", "4")
    assert code == 0
    assert payload["result"]["N"] == [0, 1, 2, 5, 8]
    assert payload["pass"] is True

    assert main(["series", "A1^1", "-p", "2"]) == 2
    assert main(["series"]) == 2


def test_series_csv(capsys):
    code, out = run(capsys, "series", "-p", "2", "--max-degree", "3",
                    "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["d,N", "0,0", "1,1", "2,3", "3,6"]


def test_csv_rejected_elsewhere(capsys):
    assert main(["info", "A1^1", "--format", "csv"]) == 2


def test_csv_refused_before_any_work(capsys, monkeypatch):
    def failing(*args):
        raise AssertionError("verify ran before csv was refused")

    monkeypatch.setattr(cli, "verify", failing)
    assert main(["gram", "E6^1", "-d", "3", "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: csv output is only available for series and "
                   "exponent tables\n")


def test_default_degree_ignores_environment(capsys, monkeypatch):
    monkeypatch.setenv("SHAPDET_MAX_DEGREE", "3")
    code, payload = run_json(capsys, "series", "-p", "2")
    assert code == 0
    assert len(payload["result"]["N"]) == 21


def test_gram_check(capsys):
    code, payload = run_json(capsys, "gram", "A1^1", "-d", "2", "--check")
    assert code == 0
    r = payload["result"]
    assert r["det_M"] == 8 and r["predicted"]["determinant"] == 8
    assert r["identity_ok"] is True and r["det_N"] == 1
    assert payload["pass"] is True


def test_gram_json_round_trip(capsys):
    code, payload = run_json(capsys, "gram", "A2^2", "-d", "3", "--check")
    assert code == 0
    r = payload["result"]
    # re-run the embedded check from the payload alone
    a, b = r["predicted"]["a"], r["predicted"]["b"]
    alpha, beta = r["predicted"]["alpha"], r["predicted"]["beta"]
    verdict = (r["det_M"] == alpha ** a * beta ** b
               and r["identity_ok"] and r["det_N"] == 1)
    assert verdict == payload["pass"] is True


def test_gram_matrices_payload(capsys):
    code, payload = run_json(capsys, "gram", "A1^1", "-d", "2", "--matrices")
    assert code == 0
    assert payload["result"]["M"] == [["3", "4"], ["4", "8"]]
    assert payload["result"]["P"] == [["1", "1/2"], ["0", "1"]]


def test_gram_roster_capped(capsys):
    code, payload = run_json(capsys, "gram", "--roster", "--check", "-d", "1")
    assert code == 0
    assert payload["pass"] is True
    assert len(payload["result"]) == 24  # 12 types, d in {0, 1}


@pytest.mark.parametrize("extra", [[], ["--matrices"]])
def test_gram_roster_builds_each_a_matrix_and_pure_det_once(capsys,
                                                           monkeypatch, extra):
    # gram --roster holds one FormEngine per type over its degrees, and
    # --matrices builds M, N, P and Q on the engine verify used: A^(n) is
    # built once per (type, n), and _pure_det runs once per (type, run n^m).
    built, dets, tables = [], [], {}  # tables: id(S'): ((type, n, m), S')
    a_matrix, pure_det, pure_s = gram.a_matrix, gram._pure_det, \
        gram.FormEngine.pure_s

    def counting_a(t, n, g=None):
        built.append((t.name, n))
        return a_matrix(t, n, g)

    def naming_pure_s(self, n, m):
        rows, S = pure_s(self, n, m)
        tables[id(S)] = (self.type.name, n, m), S
        return rows, S

    def counting_det(S):
        dets.append(tables[id(S)][0])
        return pure_det(S)

    monkeypatch.setattr(gram, "a_matrix", counting_a)
    monkeypatch.setattr(gram.FormEngine, "pure_s", naming_pure_s)
    monkeypatch.setattr(gram, "_pure_det", counting_det)
    code, payload = run_json(capsys, "gram", "--roster", "--check", *extra)
    assert code == 0 and len(payload["result"]) == 61
    assert all(("M" in r) == bool(extra) for r in payload["result"])
    runs = {(name, *run) for name, top in cli.ROSTER_DEGREES.items()
            for d in range(top + 1)
            for y in enumerate_basis(parse_type(name), d)
            for run in _runs(tuple(n for n, _ in y))}
    assert sorted(dets) == sorted(runs) and len(runs) == 99
    assert sorted(built) == sorted({(name, n) for name, n, _ in runs})


def test_gram_roster_decides_phi_integral_once_per_type(capsys,
                                                       monkeypatch):
    # verify keeps the verdict of _phi_integral on the FormEngine, which
    # gram --roster holds over each type's degrees: 12 calls for 61 cases.
    calls, phi_integral = [], gram._phi_integral

    def counting(engine):
        calls.append(engine.type.name)
        return phi_integral(engine)

    monkeypatch.setattr(gram, "_phi_integral", counting)
    code, payload = run_json(capsys, "gram", "--roster", "--check")
    assert code == 0 and len(payload["result"]) == 61
    assert calls == list(cli.ROSTER_DEGREES) and len(calls) == 12


def test_gram_corrupted_fixture_exits_1(capsys, tmp_path):
    fixture = tmp_path / "bad.json"
    fixture.write_text(json.dumps({"gram": [[3, -1], [-1, 2]]}))
    code, payload = run_json(capsys, "gram", "A2^2", "-d", "2", "--check",
                             "--root-data", str(fixture))
    assert code == 1
    assert payload["pass"] is False

    fixture2 = tmp_path / "bad2.json"
    fixture2.write_text(json.dumps({"gram": [[3]]}))
    assert main(["gram", "A1^1", "-d", "2", "--check",
                 "--root-data", str(fixture2)]) == 1


@pytest.mark.parametrize("d", [1, 2])
def test_gram_asymmetric_fixture_reports_no_det_m(capsys, tmp_path, d):
    fixture = tmp_path / "asym.json"
    fixture.write_text(json.dumps({"gram": [[2, -1], [-2, 2]]}))
    code, payload = run_json(capsys, "gram", "A2^1", "-d", str(d), "--check",
                             "--root-data", str(fixture))
    assert code == 1 and payload["pass"] is False
    result = payload["result"]
    assert result["det_M"] is None and result["identity_ok"] is False
    assert result["failures"][1] == ("det M not certified: G_y is not "
                                     "symmetric, so M != P G_y P^T")


def test_blocks(capsys):
    code, payload = run_json(capsys, "blocks", "--n", "4", "--p", "2")
    assert code == 0
    assert len(payload["result"]) == 1
    assert payload["result"][0]["cartan_det"] == 8
    assert payload["pass"] is True

    code, payload = run_json(capsys, "blocks", "--n", "4", "--p", "3")
    assert code == 0
    assert [b["weight"] for b in payload["result"]] == [1, 0, 0]


def test_out_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code = main(["info", "A1^1", "--format", "json", "--out", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["type"] == "A1^1"


def test_missing_arguments(capsys):
    assert main(["gram", "A1^1"]) == 2
    assert main(["detA", "A1^1"]) == 2
    assert main(["gram", "A1^1", "--roster", "-d", "1"]) == 2



GRAM_A1 = ["gram", "A1^1", "-d", "2", "--root-data", "{fixture}"]


@pytest.mark.parametrize("fixture, argv", [
    (None, GRAM_A1),
    ("[[2]]", GRAM_A1),
    ("not json", GRAM_A1),
    ('{"gram": [[2, -1], [-1, 2]]}', GRAM_A1),
    ('{"gram": [[2, -1], [-1]]}', ["gram", "A2^1", "-d", "2",
                                   "--root-data", "{fixture}"]),
    ('{"gram": [["a"]]}', GRAM_A1),
    ('{"gram": [[true]]}', GRAM_A1),
    (None, ["info", "A1^1", "--out", "{tmp}/no/such/dir/x.json"]),
    (None, ["series", "A1^1", "--max-degree", "-2"]),
    (None, ["gram", "--roster", "-d", "-1"]),
    (None, ["detA", "--roster", "--n", "3"]),
    (None, ["series", "A1^1", "--spin"]),
    ('{"Gram": [[3]]}', GRAM_A1),
    ("{}", GRAM_A1),
    (None, ["info"]),
    (None, ["gram", "A1^1", "--roster", "-d", "1"]),
    (None, ["detA", "A1^1", "--n", "2", "--format", "csv"]),
    (None, ["detA", "A1^1", "--n", "-1"]),
    (None, ["exponents", "A1^1", "-d", "-1"]),
    (None, ["blocks", "--n", "-1", "--p", "2"]),
    (None, ["blocks", "--n", "4", "--p", "1"]),
    (None, ["gram", "A1^1", "-d", "-1"]),
    (None, ["series", "-p", "4", "--spin"]),
    (None, ["series", "-p", "1"]),
    (None, ["info", "E8^2"]),
], ids=["missing-file", "json-list", "not-json", "wrong-size", "ragged",
        "non-int", "bool", "unwritable-out", "negative-max-degree",
        "roster-negative-degree", "deta-roster-n", "series-type-spin",
        "misspelled-gram-key", "no-gram-key", "missing-type",
        "roster-and-type", "csv-outside-tables", "deta-negative-n",
        "exponents-negative-degree", "blocks-negative-n", "blocks-p-1",
        "gram-negative-degree", "series-spin-even-p", "series-p-1",
        "unsupported-type"])
def test_invalid_input_exits_2_with_one_line(capsys, tmp_path, fixture, argv):
    path = tmp_path / "fixture.json"
    if fixture is not None:
        path.write_text(fixture)
    assert main([a.format(tmp=tmp_path, fixture=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["info", "A1^1", "--format", "csv"],
    ["gram", "A1^1", "-d", "2", "--root-data", "{tmp}/missing.json"],
    ["info"],
    ["gram", "A1^1", "--roster", "-d", "1"],
], ids=["csv-rejected", "missing-root-data", "missing-type",
        "roster-and-type"])
def test_refused_command_leaves_out_file_unchanged(capsys, tmp_path, argv):
    target = tmp_path / "keep.json"
    target.write_text('{"kept": true}\n')
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv + ["--out", str(target)]) == 2
    assert target.read_text() == '{"kept": true}\n'


def test_stray_internal_check_error_exits_1_with_one_line(capsys, monkeypatch):
    # An InternalCheckError raised outside verify's recorded checks, in the
    # dense P and Q that only --matrices builds.
    def failing(t, d, engine=None):
        raise InternalCheckError("planted")

    monkeypatch.setattr(cli, "transition_matrices", failing)
    assert main(["gram", "A1^1", "-d", "2", "--check", "--matrices"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: internal check failed: planted\n"
    assert captured.out == ""


def test_out_of_memory_exits_2_with_one_line(capsys, monkeypatch, tmp_path):
    # Work too large for memory is refused like oversized input, with exit
    # 2, not reported as a verification mismatch, and --out stays as it was.
    def exhausted(t, d, engine=None):
        raise MemoryError

    monkeypatch.setattr(cli, "verify", exhausted)
    target = tmp_path / "keep.json"
    target.write_text('{"kept": true}\n')
    assert main(["gram", "A1^1", "-d", "2", "--check"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory: the work is too large\n"
    assert captured.out == ""
    assert main(["gram", "A1^1", "-d", "2", "--out", str(target)]) == 2
    assert target.read_text() == '{"kept": true}\n'


SERIES_A4_2_PLAIN = """\
a(q) coefficients 0..6: [0, 0, 1, 2, 7, 14, 32]
b(q) coefficients 0..6: [0, 1, 3, 9, 20, 44, 87]
check coefficients_match_sums[d=0] expected=[0, 0] computed=[0, 0] ok
check coefficients_match_sums[d=1] expected=[0, 1] computed=[0, 1] ok
check coefficients_match_sums[d=2] expected=[1, 3] computed=[1, 3] ok
check coefficients_match_sums[d=3] expected=[2, 9] computed=[2, 9] ok
check coefficients_match_sums[d=4] expected=[7, 20] computed=[7, 20] ok
check coefficients_match_sums[d=5] expected=[14, 44] computed=[14, 44] ok
check coefficients_match_sums[d=6] expected=[32, 87] computed=[32, 87] ok
pass: True
"""

SERIES_P5_SPIN_PLAIN = """\
N(q) coefficients 0..6: [0, 1, 3, 9, 20, 44, 87]
check coefficient_matches_closed_form[d=0] expected=0 computed=0 ok
check coefficient_matches_closed_form[d=1] expected=1 computed=1 ok
check coefficient_matches_closed_form[d=2] expected=3 computed=3 ok
check coefficient_matches_closed_form[d=3] expected=9 computed=9 ok
check coefficient_matches_closed_form[d=4] expected=20 computed=20 ok
check coefficient_matches_closed_form[d=5] expected=44 computed=44 ok
check coefficient_matches_closed_form[d=6] expected=87 computed=87 ok
pass: True
"""


@pytest.mark.parametrize("argv, plain, csv", [
    (("series", "A4^2"), SERIES_A4_2_PLAIN,
     "d,a,b\n0,0,0\n1,0,1\n2,1,3\n3,2,9\n4,7,20\n5,14,44\n6,32,87\n"),
    (("series", "-p", "5", "--spin"), SERIES_P5_SPIN_PLAIN,
     "d,N\n0,0\n1,1\n2,3\n3,9\n4,20\n5,44\n6,87\n"),
])
def test_series_plain_and_csv_text(capsys, argv, plain, csv):
    argv = argv + ("--max-degree", "6")
    assert run(capsys, *argv) == (0, plain)
    assert run(capsys, *argv, "--format", "csv") == (0, csv)


@pytest.mark.parametrize("name, argv, line", [
    ("exponent_totals", ("series", "A4^2"),
     "check coefficients_match_sums[d=2] expected=[1, 3] computed=[2, 3] "
     "MISMATCH"),
    ("cartan_exponent", ("series", "-p", "5", "--spin"),
     "check coefficient_matches_closed_form[d=2] expected=4 computed=3 "
     "MISMATCH"),
])
def test_series_stops_at_the_first_mismatch(capsys, monkeypatch, name, argv,
                                            line):
    # The check loop stops at the first failing d and asks nothing past it.
    calls = []
    real = getattr(cli, name)

    def wrong_at_2(*args):
        calls.append(args[1])
        value = real(*args)
        if args[1] != 2:
            return value
        return (value[0] + 1, value[1]) if isinstance(value, tuple) else value + 1

    monkeypatch.setattr(cli, name, wrong_at_2)
    argv = argv + ("--max-degree", "6")
    code, payload = run_json(capsys, *argv)
    assert code == 1 and payload["pass"] is False
    assert [c["pass"] for c in payload["checks"]] == [True, True, False]
    assert calls == [0, 1, 2]
    code, out = run(capsys, *argv)
    assert code == 1
    assert line in out.splitlines() and out.endswith("pass: False\n")
