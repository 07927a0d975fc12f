"""The table text format: ``read_table`` reads back exactly what
``write_table`` wrote, and names the file and the line of any defect."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deferlab.errors import DatasetParseError
from deferlab.tables import read_table, write_table

floats = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308]),
)
# st.text() draws commas, quotes, \n, \r, NUL and any other non-surrogate
cells = st.one_of(floats, st.integers(), st.text())


@st.composite
def tables(draw):
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.text(), min_size=width, max_size=width))
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), max_size=6))
    return header, rows


def line_breaks(cells) -> int:
    """Line ends inside the cells: \\r\\n, a lone \\r and a lone \\n count once."""
    text = "".join(c for c in cells if isinstance(c, str))
    return text.count("\n") + text.count("\r") - text.count("\r\n")


class TestRoundTrip:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tables())
    def test_every_cell_reads_back_exactly(self, tmp_path, table):
        header, rows = table
        path = tmp_path / "t.csv"
        write_table(path, header, rows)
        got_header, got_rows = read_table(path)
        assert got_header == header
        assert len(got_rows) == len(rows)
        line = 1 + line_breaks(header) + 1
        for row, (lineno, got) in zip(rows, got_rows):
            assert lineno == line
            line += line_breaks(row) + 1
            for cell, text in zip(row, got):
                if isinstance(cell, float):
                    assert np.float64(float(text)).tobytes() == np.float64(cell).tobytes()
                elif isinstance(cell, int):
                    assert int(text) == cell
                else:
                    assert text == cell

    def test_float_cells_are_shortest_repr_and_lines_end_in_newline(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["x", "y"], [[0.1 + 0.2, -0.0], [np.float64(1e308), 7], ["a,b", 'say "hi"']])
        assert path.read_bytes() == (
            b'x,y\n0.30000000000000004,-0.0\n1e+308,7\n"a,b","say ""hi"""\n'
        )

    def test_lone_carriage_returns_end_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\r1,2\r3,4\r")
        assert read_table(path) == (["a", "b"], [(2, ["1", "2"]), (3, ["3", "4"])])


class TestDefects:
    def read(self, tmp_path, data: bytes):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        return read_table(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DatasetParseError, match=r"t\.csv: line 1: empty file"):
            self.read(tmp_path, b"")

    def test_row_width_differs_from_header(self, tmp_path):
        with pytest.raises(DatasetParseError, match=r"t\.csv: line 3: expected 2 fields, got 3"):
            self.read(tmp_path, b"a,b\n1,2\n1,2,3\n")

    def test_bytes_that_are_not_utf8(self, tmp_path):
        with pytest.raises(DatasetParseError, match=r"t\.csv: line 3: not UTF-8"):
            self.read(tmp_path, b"a,b\n1,2\n1,caf\xe9\n")

    def test_field_over_the_csv_size_limit(self, tmp_path):
        with pytest.raises(DatasetParseError, match=r"t\.csv: line 2: field larger than"):
            self.read(tmp_path, b"a,b\n1," + b"9" * 200_000 + b"\n")

    def test_lines_count_inside_quoted_cells(self, tmp_path):
        header, rows = self.read(tmp_path, b'a,b\n1,"x\ny"\n2,z\n')
        assert [lineno for lineno, _ in rows] == [2, 4]
        with pytest.raises(DatasetParseError, match=r"t\.csv: line 4: expected 2 fields"):
            self.read(tmp_path, b'a,b\n1,"x\r\ny"\n2\n')
