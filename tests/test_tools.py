import importlib.util
import sys
from pathlib import Path

import pytest

AB_PY = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


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
