"""MatrixMarket coordinate-format graph I/O.

The paper's datasets come from the SuiteSparse Matrix Collection, which
distributes graphs as ``.mtx`` files.  We support the coordinate format
with ``pattern`` / ``real`` / ``integer`` fields and ``general`` /
``symmetric`` symmetry, which covers every graph in Table 2.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TextIO, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import build_csr_from_edges
from repro.graph.csr import CSRGraph
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE

PathOrFile = Union[str, Path, TextIO]

_VALID_FIELDS = {"pattern", "real", "integer", "double"}
_VALID_SYMMETRY = {"general", "symmetric"}


def read_mtx(source: PathOrFile, *, symmetrize: bool = True) -> CSRGraph:
    """Parse a MatrixMarket coordinate file into a CSR graph.

    Vertex ids in the file are 1-based (MatrixMarket convention) and are
    shifted to 0-based.  Rectangular matrices are rejected — a graph
    adjacency matrix must be square.  A malformed line or a non-finite
    weight raises :class:`GraphFormatError` naming the file and line.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _read_mtx_stream(fh, str(source), symmetrize=symmetrize)
    return _read_mtx_stream(source, getattr(source, "name", "<stream>"),
                            symmetrize=symmetrize)


def _read_mtx_stream(fh: TextIO, where: str, *,
                     symmetrize: bool) -> CSRGraph:
    header = fh.readline()
    if not header.startswith("%%MatrixMarket"):
        raise GraphFormatError(f"{where}:1: missing %%MatrixMarket header")
    parts = header.strip().split()
    if len(parts) < 5:
        raise GraphFormatError(f"{where}:1: malformed header: "
                               f"{header.strip()!r}")
    _, obj, fmt, field, symmetry = parts[:5]
    if obj.lower() != "matrix" or fmt.lower() != "coordinate":
        raise GraphFormatError("only 'matrix coordinate' files are supported")
    field = field.lower()
    symmetry = symmetry.lower()
    if field not in _VALID_FIELDS:
        raise GraphFormatError(f"unsupported field type {field!r}")
    if symmetry not in _VALID_SYMMETRY:
        raise GraphFormatError(f"unsupported symmetry {symmetry!r}")

    def content(lines):
        for lineno, line in lines:
            text = line.strip()
            if text and not text.startswith("%"):
                yield lineno, text

    lines = content(enumerate(fh, start=2))
    # The first content line is the size line.
    lineno, size_line = next(lines, (None, None))
    if size_line is None:
        raise GraphFormatError(f"{where}: missing size line")
    try:
        rows, cols, nnz = (int(x) for x in size_line.split())
    except ValueError:
        raise GraphFormatError(
            f"{where}:{lineno}: malformed size line: {size_line!r}") from None
    if rows != cols:
        raise GraphFormatError("adjacency matrix must be square")

    pattern = field == "pattern"
    src = np.empty(nnz, dtype=VERTEX_DTYPE)
    dst = np.empty(nnz, dtype=VERTEX_DTYPE)
    wgt = np.ones(nnz, dtype=WEIGHT_DTYPE)
    count = 0
    for lineno, text in lines:
        if count >= nnz:
            raise GraphFormatError(
                f"{where}:{lineno}: more entries than declared nnz")
        parts = text.split()
        try:
            u, v = int(parts[0]), int(parts[1])
            w = 1.0 if pattern else float(parts[2])
        except (ValueError, IndexError):
            raise GraphFormatError(
                f"{where}:{lineno}: bad {'pattern' if pattern else 'weighted'}"
                f" entry: {text!r}") from None
        if not math.isfinite(w):
            raise GraphFormatError(
                f"{where}:{lineno}: non-finite weight in entry {text!r}")
        if not (1 <= u <= rows and 1 <= v <= cols):
            raise GraphFormatError(
                f"{where}:{lineno}: entry out of bounds: {text!r}")
        src[count] = u - 1
        dst[count] = v - 1
        wgt[count] = w
        count += 1
    if count != nnz:
        raise GraphFormatError(
            f"{where}: declared {nnz} entries but found {count}")

    # 'symmetric' files store one triangle; mirroring is exactly the
    # symmetrize step of the build pipeline.
    do_symmetrize = symmetrize or symmetry == "symmetric"
    return build_csr_from_edges(
        src, dst, wgt, num_vertices=rows, symmetrize=do_symmetrize
    )


def write_mtx(graph: CSRGraph, target: PathOrFile, *, field: str = "real") -> None:
    """Write a CSR graph as a general MatrixMarket coordinate file.

    All stored (directed) edges are emitted, so reading the file back with
    ``symmetrize=False`` reproduces the same graph.
    """
    if field not in {"real", "pattern"}:
        raise GraphFormatError(f"unsupported output field {field!r}")
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            _write_mtx_stream(graph, fh, field)
    else:
        _write_mtx_stream(graph, target, field)


def _write_mtx_stream(graph: CSRGraph, fh: TextIO, field: str) -> None:
    src, dst, wgt = graph.to_coo()
    fh.write(f"%%MatrixMarket matrix coordinate {field} general\n")
    fh.write(f"% written by repro (GVE-Leiden reproduction)\n")
    n = graph.num_vertices
    fh.write(f"{n} {n} {src.shape[0]}\n")
    if field == "pattern":
        for u, v in zip(src.tolist(), dst.tolist()):
            fh.write(f"{u + 1} {v + 1}\n")
    else:
        for u, v, w in zip(src.tolist(), dst.tolist(), wgt.tolist()):
            fh.write(f"{u + 1} {v + 1} {w:.9g}\n")
