"""LIBSVM text format: chunked loader and writer.

Line grammar: ``label index:value index:value ...`` with 1-based, strictly
increasing feature indices.  The dimension is inferred as the largest index
seen; an empty feature list is a valid zero row, and ``#`` starts a
comment that runs to the end of the line.  Malformed lines are
reported with their 1-based line number.  Values are written with Python's
shortest round-trip float repr, so a write/read cycle is bit-exact.

The loader reads the file in universal-newline mode, in chunks of whole
lines sized from the file (1/32 of it, between 8 KiB and 256 KiB).  A chunk
in the plain form that writers produce is tokenized and converted with
numpy, a chunk at a time; any other chunk goes through the per-line parser,
which is the reference for what the format accepts and reports every
error, with line numbers counted across chunks.
"""

import os
from array import array

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import LibSVMFormatError

# Feature indices are held as int64; a larger one cannot be stored.
_MAX_INDEX = np.iinfo(np.int64).max

_MIN_CHUNK, _MAX_CHUNK = 8 << 10, 256 << 10

# What the numpy path accepts: indices of at most 18 digits (below 2**63),
# and labels and values of at most _MAX_WIDTH characters, which bounds the
# fixed-width string array they are converted from.
_MAX_INDEX_DIGITS = 18
_MAX_WIDTH = 32

# The bytes of the numpy path.  Its blanks (space, tab, newline) are the
# only ones at or below ord(" ").
_ALPHABET = b"0123456789.+-eE: \t\n"


def load_libsvm(path, sparse=False):
    """Parse a LIBSVM file into (A, b).

    A : (n, d) float64 ndarray, or CSR when sparse=True.
    b : (n,) float64 labels, used as loaded (no remapping).

    The file is read in chunks of whole lines into buffers of int64
    feature indices, float64 values and labels, and int64 row pointers.
    Each buffer is sized from the share of the file read so far, with 1/16
    to spare, and trimmed in place at the end, so it rarely moves.  While
    parsing, the loader holds those buffers plus one chunk of text and its
    temporaries.  Its peak is 21 to 24 bytes per stored value, of which
    the returned CSR keeps 12 (the value and its int32 column index).

    A chunk takes the numpy path when it is ASCII made only of digits,
    ``. + - e E :``, spaces, tabs and newlines; no label holds a ``:``;
    every feature has one ``:`` with text on both sides; every index is 1
    to 18 digits, at least 1 and increasing along its line; and numpy's
    string-to-float64 cast, bit-identical to ``float()`` on such text,
    accepts every label and value, each at most 32 characters.  Any other
    chunk (comments, ``_`` in a number, ``+`` in an index, other
    whitespace, longer numbers, errors) is parsed line by line, which
    gives the same arrays and raises the errors below.

    A dense A that cannot be allocated raises MemoryError; so does one
    whose byte size numpy refuses outright (past 2**63 bytes, as for a
    feature index of 2**62), before any allocation.  sparse=True holds
    such a file in CSR form.

    Raises LibSVMFormatError naming the line of a byte that is not UTF-8,
    else the first bad line in file order: a label that is not a number, a
    feature without ``:``, a feature whose index or value does not parse,
    an index below 1, indices that do not strictly increase along the
    line, or an index above 2**63 - 1 (it would not fit the int64 index
    buffer).  A file without data lines raises it without a line number.
    """
    rows = _Rows()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            nbytes = os.fstat(fh.fileno()).st_size
            size = _chunk_size(nbytes)
            lineno, read = 1, 0
            while True:
                text = fh.read(size)
                if not text:
                    break
                if text[-1] != "\n":
                    text += fh.readline()
                read += len(text)
                parsed = _parse_chunk(text)
                if parsed is None:
                    parsed = _parse_lines(_lines(text), lineno)
                rows.append(*parsed, share=read / max(nbytes, read))
                lineno += text.count("\n")
    except UnicodeDecodeError as exc:  # its position counts from a decoder block
        bad = "byte 0x%02x is not UTF-8 (%s)" % (exc.object[exc.start], exc.reason)
        raise LibSVMFormatError(bad, _undecodable_line(path)) from None
    return rows.matrices(path, sparse)


def _undecodable_line(path):
    """The 1-based number of the first line of `path` with a byte that is
    not UTF-8, lines split as load_libsvm splits them."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:  # a byte escaped as a lone surrogate
                return lineno


def _chunk_size(nbytes):
    """Characters per read for a file of `nbytes`: 1/32 of it, within
    [_MIN_CHUNK, _MAX_CHUNK]; a read is then completed to a whole line."""
    return min(max(nbytes // 32, _MIN_CHUNK), _MAX_CHUNK)


def _lines(text):
    """The lines of `text`, each with its newline, as a file yields them."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _parse_lines(lines, lineno):
    """The per-line parser, the reference for what the format accepts and
    the error reporter; `lines` are numbered from `lineno`.

    Returns (labels, row ends, indices, values, largest index), the row
    ends counted from the first of these indices, in typed arrays.
    """
    labels, ends, indices, data = array("d"), array("q"), array("q"), array("d")
    max_index = 0
    for lineno, raw in enumerate(lines, start=lineno):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        try:
            label = float(parts[0])
        except ValueError:
            raise LibSVMFormatError(
                "label %r is not a number" % parts[0], lineno
            ) from None
        prev = 0
        for token in parts[1:]:
            idx_s, sep, val_s = token.partition(":")
            if not sep:
                raise LibSVMFormatError(
                    "feature %r lacks an index:value separator" % token, lineno
                )
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise LibSVMFormatError(
                    "cannot parse feature %r" % token, lineno
                ) from None
            if not prev < idx <= _MAX_INDEX:
                if idx < 1:
                    raise LibSVMFormatError(
                        "feature index %d is not 1-based" % idx, lineno
                    )
                if idx <= prev:
                    raise LibSVMFormatError(
                        "feature indices must be strictly increasing "
                        "(%d after %d)" % (idx, prev),
                        lineno,
                    )
                raise LibSVMFormatError(
                    "feature index %d exceeds the largest supported index %d"
                    % (idx, _MAX_INDEX),
                    lineno,
                )
            prev = idx
            indices.append(idx)
            data.append(val)
        labels.append(label)
        ends.append(len(indices))
        if prev > max_index:
            max_index = prev
    return labels, ends, indices, data, max_index


def _parse_chunk(text):
    """Parse `text`, whole lines, with numpy, returning what _parse_lines
    returns, or None when the chunk is outside the numpy path."""
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    if raw.translate(None, _ALPHABET):  # the bytes outside the alphabet
        return None
    # One newline before the text and a run after it: every token then
    # starts after a separator, and every window below fits.
    n = len(raw)
    buf = np.full(n + 1 + _MAX_WIDTH, ord("\n"), dtype=np.uint8)
    buf[1:n + 1] = np.frombuffer(raw, dtype=np.uint8)
    del raw
    colons = np.flatnonzero(buf == ord(":"))
    newlines = np.flatnonzero(buf == ord("\n"))
    # Tokens are the runs of non-blank bytes.  buf starts and ends blank, so
    # its edges alternate between a token's start and its end.
    edges = np.flatnonzero(np.diff((buf <= ord(" ")).view(np.int8)))
    if not edges.size:
        return _NO_ROWS
    edges += 1
    starts, ends = edges[0::2], edges[1::2]
    # The first token after each newline is its line's label.
    is_label = np.zeros(starts.size + 1, dtype=bool)
    is_label[np.searchsorted(starts, newlines)] = True
    is_label = is_label[:-1]
    feats = np.flatnonzero(~is_label)
    # Tokens are disjoint and in order.  As many colons as features, each
    # preceded in its feature by digits alone, leave one colon in each
    # feature and none in a label.  An index without digits reads as 0,
    # which the index check declines; an empty value the cast declines.
    if colons.size != feats.size:
        return None
    digits = colons - starts[feats]
    if digits.max(initial=0) > _MAX_INDEX_DIGITS:
        return None

    index = np.zeros(feats.size, dtype=np.int64)
    place = np.int64(1)
    for k in range(1, digits.max(initial=0) + 1):
        digit = buf[colons - k] - ord("0")  # uint8, so non-digits wrap past 9
        outside = digits < k
        if (digit > 9).any(where=~outside):
            return None
        digit[outside] = 0
        index += place * digit
        place *= 10
    del digits
    if not (index.min(initial=1) >= 1
            and (index[1:] > index[:-1]).all(where=np.diff(feats) == 1)):
        return None

    # Labels and values as one fixed-width string array, each padded with
    # NULs, which the bytes dtype strips.  A value starts after its colon.
    starts[feats] = colons + 1
    width = ends - starts
    span = int(width.max())
    if span > _MAX_WIDTH:
        return None
    windows = sliding_window_view(buf, span)[starts]
    del buf, edges, starts, ends, colons
    windows *= np.arange(span, dtype=np.uint8) < width.astype(np.uint8)[:, None]
    del width
    try:
        numbers = windows.view("S%d" % span).ravel().astype(np.float64)
    except ValueError:
        return None
    del windows

    labels = np.flatnonzero(is_label)
    # Row r ends before label r + 1, after labels[r + 1] - (r + 1) features.
    row_ends = np.empty(labels.size, dtype=np.int64)
    row_ends[:-1] = labels[1:] - np.arange(1, labels.size)
    row_ends[-1] = feats.size
    return numbers[labels], row_ends, index, numbers[feats], index.max(initial=0)


_NO_ROWS = (np.empty(0), np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), 0)


class _Rows:
    """The loader's buffers, each with room to grow: labels, row pointers,
    the file's 1-based feature indices and their values."""

    def __init__(self):
        self.labels = np.empty(0)
        self.indptr = np.zeros(1, dtype=np.int64)
        self.indices = np.empty(0, dtype=np.int64)
        self.data = np.empty(0)
        self.rows = self.nnz = self.max_index = 0

    def _buffers(self, rows, nnz):
        return ((self.labels, rows), (self.indptr, rows + 1),
                (self.indices, nnz), (self.data, nnz))

    def append(self, labels, ends, indices, data, max_index, share):
        """Add what a parser returned, `share` being the part of the file
        read so far.  A buffer short of room is reallocated to what the
        whole file needs if the rest is like that part, with 1/16 to spare;
        a buffer grown often by small steps leaves holes in the heap."""
        r, k = self.rows, self.nnz
        rows, nnz = r + len(labels), k + len(indices)
        for buf, need in self._buffers(rows, nnz):
            if buf.size < need:
                buf.resize(int(need / share * 17 / 16) + 1, refcheck=False)
        self.labels[r:rows] = labels
        np.add(ends, k, out=self.indptr[r + 1:rows + 1])
        self.indices[k:nnz] = indices
        self.data[k:nnz] = data
        self.rows, self.nnz = rows, nnz
        self.max_index = max(self.max_index, int(max_index))

    def matrices(self, path, sparse):
        """(A, b) from the buffers, as load_libsvm returns them."""
        if not self.rows:
            raise LibSVMFormatError("file %r contains no data lines" % str(path))
        for buf, size in self._buffers(self.rows, self.nnz):
            buf.resize(size, refcheck=False)
        cols = self.indices
        cols -= 1  # the buffer holds the file's 1-based indices
        A = sp.csr_matrix(
            (self.data, cols, self.indptr),
            shape=(self.rows, max(self.max_index, 1)),
        )
        b = self.labels
        if sparse:
            return A, b
        try:
            return A.toarray(), b
        except ValueError:
            # numpy refuses a byte size past the address space before it
            # allocates anything; a size it tries and fails raises MemoryError.
            raise MemoryError(
                "a dense %d x %d float64 matrix exceeds the address space" % A.shape
            ) from None


def dump_libsvm(path, A, b):
    """Write (A, b) in LIBSVM format; zeros are omitted.

    Rows are written with sorted, merged feature indices, whatever the
    storage order of a sparse A; A itself is left unchanged.
    """
    A_sp = sp.csr_matrix(A, copy=True)
    A_sp.sum_duplicates()
    b = np.asarray(b, dtype=np.float64)
    if A_sp.shape[0] != b.shape[0]:
        raise ValueError("row/label count mismatch")
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(A_sp.shape[0]):
            start, end = A_sp.indptr[i], A_sp.indptr[i + 1]
            feats = " ".join(
                "%d:%s" % (j + 1, repr(float(v)))
                for j, v in zip(A_sp.indices[start:end], A_sp.data[start:end])
            )
            fh.write(repr(float(b[i])) + (" " + feats if feats else "") + "\n")
