"""The one writer of every output CSV, and a scan of the package that keeps
it the only one."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import veritag
from veritag.errors import CSV_FLOAT_FORMAT, DataError, write_csv
from veritag.evaluation import TermFrequencyReport, write_term_report_csv

SRC = Path(veritag.__file__).resolve().parent


class TestWriteCsv:
    def test_file_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["id", "x", "n", "note"],
                  [["a", 0.1 + 0.2, 3, "b,c"], ["d", 1.0, -1, 'say "hi"']],
                  {"seed": 2, "groups": ["R"]})
        assert path.read_bytes() == (
            b'# config: {"groups": ["R"], "seed": 2}\n'
            b"id,x,n,note\r\n"
            b'a,0.3,3,"b,c"\r\n'
            b'd,1,-1,"say ""hi"""\r\n'
        )

    def test_no_config_no_comment_line(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a"], [[1.5]])
        assert path.read_bytes() == b"a\r\n1.5\r\n"

    def test_floats_carry_nine_significant_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["x"], [[1 / 3], [123456789012.0], [1e-12]])
        assert CSV_FLOAT_FORMAT == "%.9g"
        assert path.read_bytes() == b"x\r\n0.333333333\r\n1.23456789e+11\r\n1e-12\r\n"

    @pytest.mark.parametrize("path", [None, "-"])
    def test_stdout(self, tmp_path, capsys, monkeypatch, path):
        monkeypatch.chdir(tmp_path)
        write_csv(path, ["a", "b"], [["x", 0.5]], {"k": 1})
        assert capsys.readouterr().out == '# config: {"k": 1}\na,b\r\nx,0.5\r\n'
        assert list(tmp_path.iterdir()) == []

    def test_rows_stream_until_a_failure(self, tmp_path):
        def rows():
            yield ["a"]
            raise DataError("bad page")

        path = tmp_path / "out.csv"
        with pytest.raises(DataError, match="bad page"):
            write_csv(path, ["doc_id"], rows())
        assert path.read_bytes() == b"doc_id\r\na\r\n"


def test_term_report_without_config_writes_no_config_line(tmp_path):
    path = tmp_path / "terms.csv"
    write_term_report_csv(path, TermFrequencyReport(per_year={2016: [("alpha", 3)]}))
    assert path.read_bytes() == b"year,rank,term,count\r\n2016,1,alpha,3\r\n"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def _functions_calling_csv_writer(tree):
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "writer" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "csv"
        ):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


class TestOneWriter:
    """No output can grow its own writer block: ``csv.writer`` is called in
    ``errors.write_csv`` alone, and the float format is spelled once."""

    def test_csv_writer_is_called_only_by_write_csv(self):
        calls = [
            (module, function)
            for module, tree in _modules()
            for function in _functions_calling_csv_writer(tree)
        ]
        assert calls == [("errors.py", "write_csv")]

    def test_float_format_is_spelled_once(self):
        spelled = [
            module
            for module, tree in _modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value == "%.9g"
        ]
        assert spelled == ["errors.py"]

    def test_the_scan_sees_a_writer_block(self):
        tree = ast.parse("import csv\ndef report(fh):\n    csv.writer(fh).writerow([1])\n")
        assert _functions_calling_csv_writer(tree) == ["report"]
