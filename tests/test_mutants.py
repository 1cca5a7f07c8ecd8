"""tests/mutants.py's closing count, run on a module of two lines."""

import mutants


def test_summary_counts_the_mutants_it_could_not_test(tmp_path, monkeypatch, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "tiny.py").write_text('FIRST = ("a",)[0]\nTWO = 2\n', encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_tiny.py").write_text(
        "import tiny\n\n\ndef test_two():\n    assert tiny.TWO == 2\n", encoding="utf-8"
    )
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")  # the tiny suite needs no plugin; each run starts faster
    assert mutants.main(["src/tiny.py", "--tests", "tests/test_tiny.py"]) == 0
    out, err = capsys.readouterr()
    assert out == "src/tiny.py:1  constant 0 -> -1\n"  # ("a",)[-1] is "a" too
    assert err.splitlines() == [
        "src/tiny.py:1  constant 0 -> 1: error 2",  # ("a",)[1] fails when pytest imports the module
        "4 mutants, 1 untested, 1 survived the named tests",
    ]
