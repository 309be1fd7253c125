"""The mutation gate's list (tests/mutants.py) stays in step with the library."""

import mutants


def test_every_mutant_old_text_occurs_exactly_once():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
    for m in mutants.MUTANTS:
        text = (mutants.ROOT / "src" / "sdmm" / m.file).read_text()
        assert text.count(m.old) == 1 and m.old != m.new, m.name
        assert m.guarantee and m.tests, m.name


def test_a_stale_old_text_fails_the_gate(monkeypatch, capsys):
    stale = mutants.MUTANTS[0]._replace(old="a text the file does not hold")
    monkeypatch.setattr(mutants, "MUTANTS", [stale])
    assert mutants.main() == 1
    assert "STALE" in capsys.readouterr().out
