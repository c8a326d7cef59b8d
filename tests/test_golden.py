"""Golden CLI envelopes: every output and exit code stays byte-identical.

`golden/manifest.json` lists each command with its exit code.  Small
envelopes are stored whole as `golden/<name>.json`; the large `gram
--matrices` envelope is pinned by the sha256 of its canonical JSON.  The
`elapsed_seconds` key is removed before comparing.  Commands run from
`golden/`, so a fixture path in `argv` names a file stored beside the
envelopes, whatever the working directory of the test run.
"""

import hashlib
import json
from pathlib import Path

import pytest

from shapdet.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_envelope_matches_golden(capsys, monkeypatch, name):
    case = MANIFEST[name]
    monkeypatch.chdir(GOLDEN)
    code = main(case["argv"] + ["--format", "json"])
    envelope = json.loads(capsys.readouterr().out)
    del envelope["elapsed_seconds"]
    assert code == case["exit"]
    if "sha256" in case:
        canonical = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == case["sha256"]
    else:
        expected = (GOLDEN / (name + ".json")).read_text()
        assert json.dumps(envelope, indent=2) + "\n" == expected
