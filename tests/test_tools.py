"""tools/ab.py: the checks it makes before it runs anything."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _no_git(*args):
    raise AssertionError(f"git ran: {args}")


def test_ab_refuses_a_checkout_with_bytecode_under_src(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "src" / "tourval" / "__pycache__"
    cache.mkdir(parents=True)
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setattr(ab, "_git", _no_git)
    assert ab.main(["HEAD", "survey_2k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {cache} holds bytecode that only this checkout's runs "
                            "would read; delete it and run again\n")


def test_ab_finds_no_bytecode_in_a_clean_src(tmp_path):
    (tmp_path / "src" / "tourval").mkdir(parents=True)
    (tmp_path / "src" / "tourval" / "cli.py").write_text("", encoding="utf-8")
    (tmp_path / "__pycache__").mkdir()   # outside src/: not the package's bytecode
    assert ab._bytecode_cache(tmp_path) is None
