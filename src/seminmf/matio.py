"""Matrix file I/O: header-free dense CSV and MatrixMarket.

CSV files are comma-separated rows with no header; values are written in
scientific notation with 17 significant digits, which round-trips
float64 exactly.

MatrixMarket support covers ``array`` and ``coordinate`` formats with
``real`` or ``integer`` fields and ``general`` or ``symmetric``
symmetry; coordinate files are densified on load.  Written files use
the array format, whose entry order is column-major.
"""

from __future__ import annotations

import os

import numpy as np

from .linalg import as_matrix

__all__ = ["read_matrix", "write_matrix", "read_csv", "write_csv", "read_mm", "write_mm"]

_FMT = "%.16e"  # 17 significant digits
_MM_SUFFIXES = (".mtx", ".mm")


def read_csv(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} values, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    return as_matrix(rows, str(path))


def write_csv(path, M) -> None:
    M = as_matrix(M, "matrix")
    with open(path, "w", encoding="utf-8") as fh:
        for row in M:
            fh.write(",".join(_FMT % v for v in row))
            fh.write("\n")


def _mm_header(line: str, path) -> tuple[str, str, str]:
    parts = line.split()
    if (
        len(parts) < 5
        or parts[0] != "%%MatrixMarket"
        or parts[1].lower() != "matrix"
    ):
        raise ValueError(f"{path}: not a MatrixMarket matrix file")
    fmt, field, symmetry = (p.lower() for p in parts[2:5])
    if fmt not in ("array", "coordinate"):
        raise ValueError(f"{path}: unsupported MatrixMarket format {fmt!r}")
    if field not in ("real", "integer"):
        raise ValueError(f"{path}: unsupported MatrixMarket field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise ValueError(f"{path}: unsupported MatrixMarket symmetry {symmetry!r}")
    return fmt, field, symmetry


def read_mm(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        fmt, _, symmetry = _mm_header(header, path)
        tokens: list[str] = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            tokens.append(line)
    if not tokens:
        raise ValueError(f"{path}: missing size line")

    size = tokens[0].split()
    body = tokens[1:]
    try:
        if fmt == "array":
            m, n = int(size[0]), int(size[1])
            vals = [float(t.split()[0]) for t in body]
            if len(vals) != (m * n if symmetry == "general" else m * (m + 1) // 2):
                raise ValueError("entry count does not match dimensions")
            if symmetry == "general":
                M = np.array(vals).reshape((n, m)).T  # column-major on disk
            else:
                M = np.zeros((m, n))
                it = iter(vals)
                for j in range(n):
                    for i in range(j, m):
                        v = next(it)
                        M[i, j] = v
                        M[j, i] = v
        else:
            m, n, nnz = int(size[0]), int(size[1]), int(size[2])
            if len(body) != nnz:
                raise ValueError(f"expected {nnz} entries, found {len(body)}")
            M = np.zeros((m, n))
            for t in body:
                i_s, j_s, v_s = t.split()[:3]
                i, j = int(i_s) - 1, int(j_s) - 1
                if not (0 <= i < m and 0 <= j < n):
                    raise ValueError(f"index ({i_s}, {j_s}) out of bounds")
                M[i, j] = float(v_s)
                if symmetry == "symmetric":
                    M[j, i] = float(v_s)
    except (ValueError, IndexError, StopIteration) as exc:
        raise ValueError(f"{path}: malformed MatrixMarket data: {exc}") from exc
    return as_matrix(M, str(path))


def write_mm(path, M) -> None:
    M = as_matrix(M, "matrix")
    m, n = M.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{m} {n}\n")
        for j in range(n):
            for i in range(m):
                fh.write(_FMT % M[i, j])
                fh.write("\n")


def _is_mm(path) -> bool:
    if str(path).lower().endswith(_MM_SUFFIXES):
        return True
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readline().startswith("%%MatrixMarket")
    except OSError:
        return False


def read_matrix(path) -> np.ndarray:
    """Read a matrix file, sniffing MatrixMarket by extension or header."""
    if not os.path.exists(path):
        raise ValueError(f"{path}: no such file")
    return read_mm(path) if _is_mm(path) else read_csv(path)


def write_matrix(path, M) -> None:
    """Write MatrixMarket for a .mtx or .mm path, CSV otherwise."""
    if str(path).lower().endswith(_MM_SUFFIXES):
        write_mm(path, M)
    else:
        write_csv(path, M)
