"""Matrix file round-trip and malformed-input tests."""

import numpy as np
import pytest

from seminmf.linalg import random_gaussian
from seminmf.matio import read_csv, read_matrix, read_mm, write_csv, write_matrix, write_mm


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        M = random_gaussian(5, 7, seed=0) * 1e3
        p = tmp_path / "m.csv"
        write_csv(p, M)
        back = read_csv(p)
        assert np.array_equal(back, M)

    def test_single_entry(self, tmp_path):
        p = tmp_path / "one.csv"
        write_csv(p, np.array([[3.5]]))
        assert read_csv(p).shape == (1, 1)

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="expected 3 values"):
            read_csv(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,apple\n")
        with pytest.raises(ValueError):
            read_csv(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_csv(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("1,2\n\n3,4\n\n")
        np.testing.assert_array_equal(read_csv(p), [[1.0, 2.0], [3.0, 4.0]])

    def test_nan_rejected(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("1,nan\n2,3\n")
        with pytest.raises(ValueError, match="NaN or Inf"):
            read_csv(p)


class TestMatrixMarket:
    def test_array_round_trip(self, tmp_path):
        M = random_gaussian(4, 6, seed=1)
        p = tmp_path / "m.mtx"
        write_mm(p, M)
        assert np.array_equal(read_mm(p), M)

    def test_coordinate_densified(self, tmp_path):
        p = tmp_path / "c.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "3 4 2\n"
            "1 2 5.0\n"
            "3 4 -1.5\n"
        )
        M = read_mm(p)
        expected = np.zeros((3, 4))
        expected[0, 1] = 5.0
        expected[2, 3] = -1.5
        assert np.array_equal(M, expected)

    def test_symmetric_coordinate(self, tmp_path):
        p = tmp_path / "s.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n"
            "1 1 1.0\n"
            "2 1 3.0\n"
        )
        M = read_mm(p)
        np.testing.assert_array_equal(M, [[1.0, 3.0], [3.0, 0.0]])

    def test_symmetric_array(self, tmp_path):
        # the lower triangle, column by column
        p = tmp_path / "s.mtx"
        p.write_text("%%MatrixMarket matrix array real symmetric\n3 3\n1\n2\n3\n4\n5\n6\n")
        np.testing.assert_array_equal(read_mm(p), [[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])

    @pytest.mark.parametrize("fmt, body", [("array", "2 3\n1\n2\n3\n"), ("coordinate", "3 2 1\n2 1 1.0\n")])
    def test_symmetric_must_be_square(self, tmp_path, fmt, body):
        p = tmp_path / "s.mtx"
        p.write_text(f"%%MatrixMarket matrix {fmt} real symmetric\n{body}")
        with pytest.raises(ValueError, match="must be square"):
            read_mm(p)

    def test_integer_array(self, tmp_path):
        p = tmp_path / "i.mtx"
        p.write_text("%%MatrixMarket matrix array integer general\n2 2\n1\n2\n3\n4\n")
        np.testing.assert_array_equal(read_mm(p), [[1.0, 3.0], [2.0, 4.0]])

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("%%NotMatrixMarket\n1 1\n1\n")
        with pytest.raises(ValueError, match="not a MatrixMarket"):
            read_mm(p)

    def test_wrong_count_rejected(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n")
        with pytest.raises(ValueError, match="malformed"):
            read_mm(p)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("vector real general\n1 1\n1\n", "unsupported MatrixMarket format 'vector'"),
            ("array complex general\n1 1\n1 0\n", "unsupported MatrixMarket field 'complex'"),
            ("array real hermitian\n1 1\n1\n", "unsupported MatrixMarket symmetry 'hermitian'"),
            ("array real general\n% a comment\n", "missing size line"),
            ("array real general\n2 2\n1\n2\n3\n", "entry count does not match dimensions"),
        ],
        ids=["format", "field", "symmetry", "size-line", "array-count"],
    )
    def test_rejected_with_message(self, tmp_path, text, message):
        p = tmp_path / "bad.mtx"
        p.write_text("%%MatrixMarket matrix " + text)
        with pytest.raises(ValueError, match=message):
            read_mm(p)

    def test_out_of_bounds_rejected(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
        with pytest.raises(ValueError, match="malformed"):
            read_mm(p)


class TestSniffing:
    def test_reads_mm_by_header_without_extension(self, tmp_path):
        M = random_gaussian(3, 3, seed=2)
        p = tmp_path / "noext"
        write_mm(p, M)
        assert np.array_equal(read_matrix(p), M)

    def test_reads_csv_by_default(self, tmp_path):
        M = random_gaussian(3, 3, seed=3)
        p = tmp_path / "data.txt"
        write_csv(p, M)
        assert np.array_equal(read_matrix(p), M)

    def test_write_matrix_infers_format(self, tmp_path):
        M = random_gaussian(2, 2, seed=4)
        pm = tmp_path / "x.mtx"
        pc = tmp_path / "x.csv"
        write_matrix(pm, M)
        write_matrix(pc, M)
        assert pm.read_text().startswith("%%MatrixMarket")
        assert "," in pc.read_text()

    def test_reads_mm_by_extension(self, tmp_path):
        # a .mtx path is read as MatrixMarket without opening it to sniff
        M = random_gaussian(2, 3, seed=5)
        p = tmp_path / "m.mtx"
        write_mm(p, M)
        assert np.array_equal(read_matrix(p), M)

    def test_unreadable_path_is_not_sniffed_as_mm(self, tmp_path):
        # a directory exists but cannot be opened: the sniff answers no and
        # the CSV reader reports the operating system's error
        with pytest.raises(IsADirectoryError, match="Is a directory"):
            read_matrix(tmp_path)

    def test_missing_file(self):
        with pytest.raises(ValueError, match="no such file"):
            read_matrix("/nonexistent/path.csv")
