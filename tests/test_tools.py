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


PEAK_RSS = {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}


def test_ab_reports_a_small_peak_rss_change_as_heap_layout_noise():
    """A peak-RSS median 0.6 MiB higher is noise, neither a loss nor a gain;
    one 1 MiB lower is a change, and a gain when it beats the base's spread."""
    base = [67.6, 67.7, 67.8]
    noise = ab._metric_line(PEAK_RSS, base, [68.2, 68.3, 68.4])
    assert noise.split()[7:] == ["noise", "0/3", "no:", "heap-layout", "noise", "(under",
                                 "0.7", "MiB)"]
    gain = ab._metric_line(PEAK_RSS, base, [66.6, 66.7, 66.8])
    assert gain.split()[7:] == ["-1.5%", "3/3", "yes"]
    run_s = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}
    assert ab._metric_line(run_s, [1.0, 1.0, 1.0], [1.5, 1.5, 1.5]).split()[7:] == [
        "+50.0%", "0/3", "no"]
