import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import read_matrix_lines, write_matrix_lines
from sensorplace import cli, fileio
from sensorplace.fileio import (
    ParseError,
    read_matrix,
    read_selection,
    write_matrix,
    write_selection,
)
from sensorplace.selection import SensorSelection


class TestMatrixFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(80)
        m = rng.standard_normal((7, 5))
        # throw in awkward magnitudes and signed zero
        m[0, 0] = 1e-300
        m[1, 1] = -1e300
        m[2, 2] = -0.0
        m[3, 3] = 1.0 / 3.0
        path = tmp_path / "m.csv"
        write_matrix(path, m)
        back = read_matrix(path)
        assert np.array_equal(
            m.view(np.uint64), back.view(np.uint64)
        ), "doubles must survive the text round trip bit-exactly"

    def test_header_skipped_when_requested(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        out = read_matrix(path, header=True)
        np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ParseError) as info:
            read_matrix(path)
        assert info.value.line == 2

    def test_non_numeric_field_names_line_and_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError) as info:
            read_matrix(path)
        assert info.value.line == 2
        assert info.value.column == 2

    def test_non_finite_field_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,inf\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_matrix(path)


# Awkward doubles: smallest subnormals, the smallest normal, signed zeros,
# magnitudes near the exponent limits and a value with a long expansion.
AWKWARD = [5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0, 1e300, -1e300, 1.0 / 3.0]
LOSSLESS_FORMATS = [repr, "{:.17g}".format, "{:+.17g}".format, "{:.16e}".format, "{:.16E}".format]
PADDING = ["", " ", "\t", "  "]
FILLER_LINES = ["", " ", "\t ", "   "]
BAD_TOKENS = ["oops", "nan", "NaN", "inf", "-inf", "infinity", "1e400", "", "1_000", "\uff11\uff12", "#"]

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def finite_matrices(elements=FINITE):
    return arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)),
                  elements=elements)


settings_for_files = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def assert_matches_reference(path, header):
    """``read_matrix`` returns the reference's bits or raises its exact error."""
    expected = read_matrix_lines(path, header)
    if expected[0] == "ok":
        got = read_matrix(path, header=header)
        assert got.dtype == np.float64
        assert got.shape == expected[1].shape
        assert np.array_equal(got.view(np.uint64), expected[1].view(np.uint64))
        return got
    _, line, column, message = expected
    with pytest.raises(ParseError) as info:
        read_matrix(path, header=header)
    assert (info.value.line, info.value.column) == (line, column)
    where = f"line {line}" if column is None else f"line {line}, column {column}"
    assert str(info.value) == f"{message} ({where})"
    return None


@st.composite
def csv_rows(draw):
    """A valid matrix and its CSV data lines, each field written losslessly."""
    m = draw(finite_matrices(st.one_of(FINITE, st.sampled_from(AWKWARD))))
    lines = []
    for row in m:
        fields = []
        for x in row:
            fmt = draw(st.sampled_from(LOSSLESS_FORMATS))
            fields.append(draw(st.sampled_from(PADDING)) + fmt(float(x))
                          + draw(st.sampled_from(PADDING)))
        lines.append(",".join(fields))
    return m, lines


@st.composite
def csv_layout(draw, lines):
    """Join data lines with a header, filler lines and a line ending."""
    header = draw(st.booleans())
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    out = [draw(st.sampled_from(["c0,c1", "0", "1,2", ""]))] if header else []
    for line in lines:
        out.extend(draw(st.lists(st.sampled_from(FILLER_LINES), max_size=2)))
        out.append(line)
    trailing = eol if draw(st.booleans()) else ""
    return eol.join(out) + trailing, header


class TestReadMatrixAgainstLineParser:
    @settings_for_files
    @given(data=st.data())
    def test_valid_files_read_bit_exactly(self, tmp_path, data):
        m, lines = data.draw(csv_rows())
        text, header = data.draw(csv_layout(lines))
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        got = assert_matches_reference(path, header)
        assert got is not None
        assert np.array_equal(got.view(np.uint64), m.view(np.uint64))

    @settings_for_files
    @given(data=st.data())
    def test_malformed_files_raise_the_reference_error(self, tmp_path, data):
        _, lines = data.draw(csv_rows())
        i = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        defect = data.draw(st.sampled_from(["token", "extra", "missing", "comma", "comment"]))
        if defect == "token":
            j = data.draw(st.integers(0, len(fields) - 1))
            fields[j] = data.draw(st.sampled_from(BAD_TOKENS))
            lines[i] = ",".join(fields)
        elif defect == "extra":
            lines[i] += ",1"
        elif defect == "missing":
            lines[i] = ",".join(fields[:-1])
        elif defect == "comma":
            lines[i] += ","
        else:
            lines.insert(i, "# comment")
        text, header = data.draw(csv_layout(lines))
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_matches_reference(path, header)

    @settings_for_files
    @given(text=st.text(alphabet="0123456789.,-+eE _#nafiINF\t\r\n\uff11", max_size=60),
           header=st.booleans())
    def test_arbitrary_text_matches_reference(self, tmp_path, text, header):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_matches_reference(path, header)

    @pytest.mark.parametrize("text, header", [
        ("", False),
        ("", True),
        ("a,b\n", True),
        ("\n  \n\t\n", False),
        ("1,2\n3\n", False),
        ("1,2\n3,oops\n", False),
        ("1,nan\n", False),
        ("1,inf\n", False),
        ("1,Infinity\n", False),
        ("# note\n1,2\n", False),
        ("1,2,\n", False),
        ("1_000,2\n", False),
        ("\uff11,2\n", False),
        ("1,2\r\n \r\n3,4\r\n", False),
        ("x\n1\n2\n", True),
    ])
    def test_edge_cases_match_reference(self, tmp_path, text, header):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_matches_reference(path, header)

    def test_plain_file_takes_the_fast_path(self, tmp_path, monkeypatch):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")

        def fail(*args):
            raise AssertionError("fallback parser used on a plain file")

        monkeypatch.setattr(fileio, "_read_matrix_lines", fail)
        np.testing.assert_array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


class TestWriteMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_before_writing(self, tmp_path, bad):
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError):
            write_matrix(path, [[1.0, bad]])
        assert not path.exists()

    def test_bytes_match_per_element_formatting(self, tmp_path):
        rng = np.random.default_rng(80)
        m = rng.standard_normal((7, 5))
        m[0, 0] = 1e-300
        m[1, 1] = -1e300
        m[2, 2] = -0.0
        m[3, 3] = 1.0 / 3.0
        m[4, 4] = 5e-324
        write_matrix(tmp_path / "new.csv", m)
        write_matrix_lines(tmp_path / "ref.csv", m)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @settings_for_files
    @given(m=finite_matrices())
    def test_bytes_match_per_element_formatting_for_any_finite_matrix(self, tmp_path, m):
        write_matrix(tmp_path / "new.csv", m)
        write_matrix_lines(tmp_path / "ref.csv", m)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_vector_written_as_one_row(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix(path, [1.0, 2.5])
        assert path.read_text() == "1,2.5\n"


class TestSelectionFiles:
    def test_round_trip(self, tmp_path):
        sel = SensorSelection(locations=(4, 0, 2), components=2,
                              dof_per_component=6, method="vector-greedy")
        path = tmp_path / "sel.csv"
        write_selection(path, sel)
        entries = read_selection(path)
        assert [loc for loc, _ in entries] == [4, 0, 2]
        assert entries[0][1] == [4, 10]

    def test_written_bytes(self, tmp_path):
        sel = SensorSelection(locations=(4, 0, 2), components=2,
                              dof_per_component=6, method="vector-greedy")
        path = tmp_path / "sel.csv"
        write_selection(path, sel)
        assert path.read_bytes() == (
            b"rank,location,row_indices\r\n1,4,4;10\r\n2,0,0;6\r\n3,2,2;8\r\n"
        )

    @pytest.mark.parametrize("text", [
        "\n \t\nrank,location,row_indices\n1,4,4;10\n\n  \n2,0,0;6\n\n",
        "rank,location,row_indices\r\n1,4,4;10\r\n\r\n2,0,0;6\r\n",
        "rank,location,row_indices\r1,4,4;10\r\r2,0,0;6",
    ], ids=["blank-lines", "crlf", "lone-cr"])
    def test_blank_lines_and_line_ends(self, tmp_path, text):
        path = tmp_path / "sel.csv"
        path.write_bytes(text.encode("utf-8"))
        assert read_selection(path) == [(4, [4, 10]), (0, [0, 6])]

    def test_header_required(self, tmp_path):
        path = tmp_path / "sel.csv"
        path.write_text("1,0,0\n")
        with pytest.raises(ParseError):
            read_selection(path)

    def test_ranks_must_be_consecutive(self, tmp_path):
        path = tmp_path / "sel.csv"
        path.write_text("rank,location,row_indices\n1,0,0\n3,1,1\n")
        with pytest.raises(ParseError) as info:
            read_selection(path)
        assert info.value.line == 3

    def test_duplicate_locations_rejected(self, tmp_path):
        path = tmp_path / "sel.csv"
        path.write_text("rank,location,row_indices\n1,0,0\n2,0,0\n")
        with pytest.raises(ParseError):
            read_selection(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "sel.csv"
        path.write_text("rank,location,row_indices\n1,0.5,0\n")
        with pytest.raises(ParseError):
            read_selection(path)

    @pytest.mark.parametrize("text, message, line", [
        ("", "file is empty", 1),
        ("rank,location,row_indices\n1,0,0\n2,1\n", "expected 3 fields", 3),
        ("rank,location,row_indices\n\n", "no selections", 2),
        ("rank,location,row_indices\n1,0,0;5\n2,1,1\n", "differ in length", 3),
        ("rank,location,row_indices\n1,0,0\n2,1,1\n3,2,2\n4,0,0\n", "must be distinct", 5),
        # CSV quoting is not part of the format.
        ('rank,location,row_indices\n"1","0","0"\n', "must be integers", 2),
        ("\n\nrank,location\n1,0,0\n", "expected header", 3),
        ("\n\nrank,location,row_indices\n", "no selections", 4),
        ("rank,location,row_indices\r1,0,0\r\r2,1\r", "expected 3 fields", 4),
    ], ids=["empty", "short-row", "no-rows", "ragged-widths", "repeated-location",
            "quoted-fields", "header-after-blank-lines", "no-rows-after-blank-lines",
            "lone-cr-line-ends"])
    def test_malformed_file_names_problem_and_line(self, tmp_path, text, message, line):
        path = tmp_path / "sel.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message) as info:
            read_selection(path)
        assert info.value.line == line


@pytest.mark.parametrize("read, data, line", [
    (read_matrix, b"1,2\n\xff,3\n", 2),
    (read_selection, b"rank,location,row_indices\n1,0,0\n2,1,1\n3,\xff,2\n", 4),
    (cli._parse_benchmark_config, b"r_values = 4\nba\xffse_seed = 1\n", 2),
], ids=["matrix", "selection", "config"])
def test_byte_that_is_not_utf8_names_its_line(tmp_path, read, data, line):
    path = tmp_path / "bad"
    path.write_bytes(data)
    with pytest.raises(ParseError, match="not UTF-8") as info:
        read(path)
    assert info.value.line == line
