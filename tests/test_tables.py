"""The table text format: ``read_table`` reads back exactly what
``write_table`` wrote, and the readers of every table file name the file
and the line of any defect."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from deferlab.errors import DatasetParseError
from deferlab.experts import PriorElicitation, load_prior_file, write_prior_file
from deferlab.simulate import Dataset, load_csv_dataset, save_csv_dataset
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


def corrupted(path, data, defect, candidates):
    """Rewrite one data line of ``path``, drawn from the line numbers
    ``candidates``, with ``defect(fields)`` on its cells; returns its line
    number. Every cell of the files written here is a number, so a line is
    its cells joined by commas."""
    lines = path.read_text().splitlines()
    n = data.draw(st.sampled_from(candidates), label="line")
    lines[n - 1] = ",".join(defect(lines[n - 1].split(",")))
    path.write_text("\n".join(lines) + "\n")
    return n


def set_cell(index, text):
    def change(fields):
        fields[index] = text
        return fields

    return change


def wrong_field_count(data):
    """A defect that drops the last cell or adds one."""
    if data.draw(st.booleans(), label="drop"):
        return lambda fields: fields[:-1]
    return lambda fields: [*fields, "0"]


class TestMalformedLine:
    """One corrupted data line of a valid prior file or dataset CSV raises
    ``DatasetParseError`` starting with the file and that line's number."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.data(),
        defect=st.sampled_from([
            "non-numeric", "class out of range", "p, c or s out of range", "duplicate",
            "inconsistent s", "field count",
        ]),
    )
    def test_prior_file(self, tmp_path, data, defect):
        num_classes = data.draw(st.integers(2, 4))
        unit = st.lists(st.floats(0.0, 1.0), min_size=num_classes, max_size=num_classes)
        ids = data.draw(st.sets(st.integers(0, 50), min_size=1, max_size=3))
        priors = {
            i: PriorElicitation(
                np.array(data.draw(unit)), np.array(data.draw(unit)),
                data.draw(st.floats(2.0, 100.0)),
            )
            for i in ids
        }
        path = tmp_path / "priors.csv"
        write_prior_file(path, priors)
        lines = range(2, 2 + len(ids) * num_classes)
        if defect == "non-numeric":
            text = data.draw(st.sampled_from(["x", "", "0x1"]))
            change = set_cell(data.draw(st.integers(0, 4)), text)
        elif defect == "class out of range":
            bad = data.draw(st.sampled_from([num_classes, num_classes + 5, -1]))
            change = set_cell(1, str(bad))
        elif defect == "p, c or s out of range":
            column = data.draw(st.sampled_from([2, 3, 4]))
            bad = ["-0.5", "1.5", "nan", "-inf"] if column < 4 else ["1.5", "inf", "nan", "-2"]
            change = set_cell(column, data.draw(st.sampled_from(bad)))
        elif defect == "field count":
            change = wrong_field_count(data)
        else:
            # an expert's class 0 line comes first, so a line of a later
            # class can repeat an earlier class or change the expert's s
            lines = [n for n in lines if (n - 2) % num_classes]

            def change(fields):
                if defect == "duplicate":
                    fields[1] = str(data.draw(st.integers(0, int(fields[1]) - 1)))
                else:
                    fields[4] = repr(float(fields[4]) + 1.0)
                return fields

        n = corrupted(path, data, change, lines)
        with pytest.raises(DatasetParseError) as err:
            load_prior_file(path, num_classes)
        assert str(err.value).startswith(f"{path}: line {n}:")

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.data(),
        defect=st.sampled_from(
            ["non-numeric", "negative label", "non-finite feature", "field count"]
        ),
    )
    def test_dataset_csv(self, tmp_path, data, defect):
        rows, dim = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 3))
        labels = data.draw(hnp.arrays(np.int64, rows, elements=st.integers(0, 4)))
        features = data.draw(hnp.arrays(np.float64, (rows, dim), elements=st.floats(-1e6, 1e6)))
        path = tmp_path / "data.csv"
        save_csv_dataset(path, Dataset(features, labels))
        if defect == "non-numeric":
            text = data.draw(st.sampled_from(["x", "", "1.5j"]))
            change = set_cell(data.draw(st.integers(0, dim)), text)
        elif defect == "negative label":
            change = set_cell(0, str(-data.draw(st.integers(1, 9))))
        elif defect == "non-finite feature":
            text = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
            change = set_cell(data.draw(st.integers(1, dim)), text)
        else:
            change = wrong_field_count(data)
        n = corrupted(path, data, change, range(2, 2 + rows))
        with pytest.raises(DatasetParseError) as err:
            load_csv_dataset(path)
        assert str(err.value).startswith(f"{path}: line {n}:")
