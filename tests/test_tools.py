import importlib.util
import sys
from pathlib import Path

import pytest

AB_PY = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
LOC_PY = AB_PY.with_name("loc.py")


@pytest.mark.parametrize("differing, status", [([], 0), (["dn_1e3/0"], 1)])
def test_ab_exit_status_says_whether_outputs_differ(differing, status, monkeypatch,
                                                    capsys):
    spec = importlib.util.spec_from_file_location("ab", AB_PY)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(ab, "run", lambda *args: (
        "0" * 40, [0.9, 1.0, 1.1], {"work": 3.0, "base": 3.0}, differing))
    assert ab.main(["lsmc", "--against", "HEAD"]) == status
    assert f"outputs differing in bits: {len(differing)}" in capsys.readouterr().out


#: 19 lines: 7 of code (marked), 3 of module and function docstrings, 2 of a
#: bare string statement, comments and blank lines; a string inside an
#: expression counts on every line it spans
_SAMPLE = '''"""Module docstring,
on two lines."""

import math  # code

# a comment line


def f(x):  # code
    """One-line docstring."""
    y = """a string that
    is part of an expression"""  # code, 2 lines
    """a bare string
    statement"""
    return (x +  # code
            len(y))  # code


CONSTANT = math.pi  # code
'''


def test_loc_counts_code_lines_only(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("loc", LOC_PY)
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    assert loc.code_lines(_SAMPLE) == 7
    assert loc.code_lines("") == 0
    sample = tmp_path / "sample.py"
    sample.write_text(_SAMPLE, encoding="utf-8")
    assert loc.main([str(sample), str(sample)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].split() == ["7", "19", "sample.py"]
    assert rows[-1].split() == ["14", "38", "total"]
