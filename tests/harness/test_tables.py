"""Table-rendering tests."""

import pytest

from repro.harness import Table, render


def _table():
    table = Table(title="Demo", columns=["threshold", "value"])
    table.add_row("100", 0.123456)
    table.add_row("1k", None)
    table.add_row("4M", 2)
    table.notes.append("a note")
    return table


def test_render_contains_everything():
    text = render(_table())
    assert "Demo" in text
    assert "threshold" in text and "value" in text
    assert "0.123" in text
    assert " - " in text or text.rstrip().endswith("-") or "-\n" in text
    assert "note: a note" in text


def test_rows_must_match_columns():
    table = Table(title="t", columns=["a", "b"])
    with pytest.raises(ValueError):
        table.add_row("only-one")


def test_column_extraction():
    table = _table()
    assert table.column("value") == [0.123456, None, 2]
    with pytest.raises(ValueError):
        table.column("nope")


def test_alignment_is_consistent():
    text = render(_table())
    lines = text.splitlines()
    header = lines[2]
    data = lines[4]
    assert len(header) == len(data)


def test_to_csv():
    from repro.harness import to_csv
    table = _table()
    csv_text = to_csv(table)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "threshold,value"
    assert lines[1] == "100,0.123456"
    assert lines[2] == "1k,"          # None -> empty cell
    assert lines[3] == "4M,2"
