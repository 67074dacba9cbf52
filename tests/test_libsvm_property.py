"""load_libsvm against the per-line reference parser on generated text.

The text mixes well-formed rows with the spellings only the per-line
parser takes (comments, ``+``, ``_``, CR line endings, vertical tabs) and
with malformed tokens and control characters, and is read in chunks of every size down to one character, so
chunk boundaries fall inside lines and between every pair of paths.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from unittest import mock  # noqa: E402

from helpers import load_libsvm_per_line  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ntcg import LibSVMFormatError, libsvm, load_libsvm  # noqa: E402

NUMERIC = "0123456789.+-eE"
BLANKS = st.sampled_from([" ", "  ", "\t"])

plain_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
)
valid_numbers = st.one_of(
    plain_numbers, st.sampled_from(["+1", "-0", "1_0", "+.5e-3", "1E5", "007"]))
numbers = st.one_of(valid_numbers, st.text(NUMERIC + "_", min_size=1, max_size=8))
indices = st.one_of(
    st.integers(0, 40).map(str),
    st.integers(1, 2**64).map(str),
    st.text("0123456789+-_", max_size=4),
)


@st.composite
def rows(draw, clean):
    """A row with increasing indices, its numbers in plain spellings or,
    one row in four, in any valid one; unless `clean`, a token is sometimes
    replaced by another feature or by junk."""
    value = valid_numbers if draw(st.integers(0, 3)) == 0 else plain_numbers
    if not clean:
        value = numbers
    cols = draw(st.lists(st.integers(1, 3000), unique=True, max_size=6).map(sorted))
    tokens = [draw(value)] + ["%d:%s" % (j, draw(value)) for j in cols]
    if not clean and draw(st.booleans()):
        token = draw(st.one_of(
            st.builds("{}:{}".format, indices, numbers),
            st.text(NUMERIC + ":_#", min_size=1, max_size=8),
        ))
        tokens[draw(st.integers(0, len(tokens) - 1))] = token
    line = "".join(draw(BLANKS) + token for token in tokens)
    if draw(st.booleans()):
        line = line.lstrip()
    if draw(st.integers(0, 4)) == 0:
        line += " #" + draw(st.text(NUMERIC + ": ", max_size=6))
    return line


@st.composite
def libsvm_texts(draw):
    """Text that is valid about half the time, else has junk lines or
    tokens among its rows."""
    clean = draw(st.booleans())
    line = rows(clean) if clean else st.one_of(
        rows(clean), st.just(""), st.text(NUMERIC + ":# \t_\r\x01\x0b", max_size=12))
    body = draw(st.lists(line, max_size=12))
    ends = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in body)
    if body and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def outcome(loader, path):
    try:
        A, b = loader(path, sparse=True)
    except LibSVMFormatError as err:
        return "error", str(err), err.lineno
    return "ok", A.shape, [(a.dtype.str, a.tobytes())
                           for a in (A.data, A.indices, A.indptr, b)]


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("libsvm") / "p.txt"


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(text=libsvm_texts(), chunk=st.sampled_from([1, 7, 64, 1 << 20]))
def test_chunked_loader_matches_the_per_line_reference(path, text, chunk):
    path.write_bytes(text.encode("ascii"))
    want = outcome(load_libsvm_per_line, path)
    with mock.patch.object(libsvm, "_MIN_CHUNK", chunk), \
            mock.patch.object(libsvm, "_MAX_CHUNK", chunk):
        assert outcome(load_libsvm, path) == want
