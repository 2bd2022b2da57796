"""`urp rate --json` and `urp validate tails` against their golden outputs.

`tests/data/README.md` says how the two files are written and when, if
ever, they may be written again.
"""
import json
from pathlib import Path

from urpayload.cli import main

DATA = Path(__file__).parent / "data"


def test_rate_records_equal_their_golden(capsys):
    # each line: the argv of one `urp rate ... --json`, its exit code, and
    # its stdout parsed; the stdout must be that object's json.dumps exactly
    moved = []
    for line in (DATA / "rate.jsonl").read_text().splitlines():
        record = json.loads(line)
        code = main(record["args"])
        out = capsys.readouterr().out
        if code != record["exit"] or out != json.dumps(record["output"]) + "\n":
            moved.append(" ".join(record["args"]))
    assert moved == []


def test_validate_tails_equals_its_golden(capsys):
    assert main(["validate", "tails"]) == 0
    assert capsys.readouterr().out == (DATA / "validate_tails.jsonl").read_text()
