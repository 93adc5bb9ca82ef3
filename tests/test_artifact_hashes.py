"""tools/artifact_hashes.py's verdict: which outputs it names and its exit code.

The script is the byte-identity gate between two checkouts. Its command set
is too slow for this suite, so hashes_of is replaced by canned dicts and only
the comparison in main runs.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "artifact_hashes.py"
OURS = {"gen.stdout": "aa", "train-default/checkpoint.blm": "bb", "eval-default.json": "cc"}


def _load_script():
    spec = importlib.util.spec_from_file_location("artifact_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _verdict(monkeypatch, capsys, theirs):
    script = _load_script()
    monkeypatch.setattr(script, "hashes_of", lambda tree: OURS if tree == script.ROOT else theirs)
    code = script.main(["--against", "parent"])
    return code, capsys.readouterr()


def test_equal_trees_print_no_name_and_exit_0(monkeypatch, capsys):
    code, out = _verdict(monkeypatch, capsys, dict(OURS))
    assert (code, out.out) == (0, "")
    assert out.err == "3 outputs, 0 differ\n"


@pytest.mark.parametrize("theirs, name", [
    ({**OURS, "train-default/checkpoint.blm": "b0"}, "train-default/checkpoint.blm"),  # changed
    ({k: v for k, v in OURS.items() if k != "eval-default.json"}, "eval-default.json"),  # added
    ({**OURS, "report-default.stdout": "dd"}, "report-default.stdout"),  # missing
], ids=["changed", "added", "missing"])
def test_each_differing_output_is_printed_and_exits_1(monkeypatch, capsys, theirs, name):
    code, out = _verdict(monkeypatch, capsys, theirs)
    assert (code, out.out) == (1, f"{name}\n")
    assert out.err.endswith(", 1 differ\n")
