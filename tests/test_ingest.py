import contextlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from claimsplice import _fork, ingest
from claimsplice.ingest import (
    ClaimPairSample,
    IngestError,
    histogram_export,
    load_csv,
    summarize,
    summarize_sample,
    write_csv,
)
from tests.test_estimation import assert_no_child_left, needs_fork


def write(tmp_path, text, name="claims.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_well_formed(tmp_path):
    p = write(tmp_path, "tcost_bi,tcost_pd\n100.5,20\n2e3,30.25\n4.0,1e-1\n")
    s = load_csv(p, cols="tcost_bi,tcost_pd")
    assert s.n == 3
    assert s.claim1.tolist() == [100.5, 2000.0, 4.0]
    assert s.claim2.tolist() == [20.0, 30.25, 0.1]


def test_load_by_index_without_header(tmp_path):
    p = write(tmp_path, "1,2\n3,4\n")
    s = load_csv(p, cols="0,1")
    assert s.n == 2


def test_strict_mode_names_bad_row(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n0,5\n")
    with pytest.raises(IngestError, match="row 3"):
        load_csv(p, cols="a,b", strict=True)


def test_lenient_mode_rejects_with_diagnostics(tmp_path):
    p = write(tmp_path, "a,b\n1,2\nx,5\n-3,5\n4,4\n")
    s = load_csv(p, cols="a,b")
    assert s.n == 2
    assert len(s.rejected_rows) == 2
    assert "row 3" in s.rejected_rows[0]


@pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "-inf", "1e400"])
def test_strict_mode_rejects_non_finite(tmp_path, bad):
    p = write(tmp_path, f"a,b\n1,2\n3,{bad}\n")
    with pytest.raises(IngestError, match="row 3: non-finite"):
        load_csv(p, cols="a,b", strict=True)


def test_lenient_mode_rejects_non_finite(tmp_path):
    p = write(tmp_path, "a,b\n1,2\nnan,5\n4,inf\n1e400,3\n4,4\n")
    s = load_csv(p, cols="a,b")
    assert s.claim1.tolist() == [1.0, 4.0]
    assert [r.split(":")[0] for r in s.rejected_rows] == ["row 3", "row 4", "row 5"]
    assert all("non-finite" in r for r in s.rejected_rows)


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_diagnostics_name_the_line_in_the_file(tmp_path, eol):
    p = write(tmp_path, eol.join(["# m", "# m", "claim1,claim2", "", "1,2", "x,3", ""]), name="lines.csv")
    assert load_csv(p, cols="claim1,claim2").rejected_rows == ["row 6: unparseable values ['x', '3']"]
    with pytest.raises(IngestError, match="row 6: unparseable"):
        load_csv(p, cols="claim1,claim2", strict=True)


@pytest.mark.parametrize("text, cols", [("a,b\n1,2\n3,4\n", "a,b"), ("1,2\n3,4\n", "0,1")])
def test_utf8_byte_order_mark_is_ignored(tmp_path, text, cols):
    # an Excel "CSV UTF-8" export starts with a byte order mark
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    s = load_csv(p, cols=cols)
    assert s.claim1.tolist() == [1.0, 3.0] and s.claim2.tolist() == [2.0, 4.0]


@pytest.mark.parametrize("path", ["loadtxt", "row-loop"])
@pytest.mark.parametrize("rows", [1, 5000], ids=["first-buffer", "later-buffer"])
def test_non_utf8_input_is_an_ingest_error_naming_the_byte_offset(tmp_path, path, rows):
    # a Latin-1 export: 0xe9 is "é"; past the text reader's first buffer the offset still counts from the file start
    head = b"\xef\xbb\xbfa,b\n" + b"".join(b"%d,%d\n" % (i + 1, i + 2) for i in range(rows))
    p = tmp_path / "latin1.csv"
    p.write_bytes(head + b"caf\xe9\n")
    # the header's sniff decodes the first buffer, and the fast path reads the whole text before it looks for a '#'
    # row: only a declined fast path reaches the row loop, and only past the first buffer
    declined = mock.patch.object(ingest, "_columns_by_loadtxt", return_value=None)
    with declined if path == "row-loop" else contextlib.nullcontext(), \
            mock.patch.object(ingest, "_rows_by_csv", wraps=ingest._rows_by_csv) as row_loop, \
            pytest.raises(IngestError, match=rf"latin1.csv: not UTF-8: byte 0xe9 at offset {len(head) + 3} "):
        load_csv(p, cols="a,b")
    assert row_loop.called == (path == "row-loop" and rows > 1)


def test_missing_column(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(IngestError, match="not found"):
        load_csv(p, cols="a,c")


def test_missing_file(tmp_path):
    with pytest.raises(IngestError, match="cannot read"):
        load_csv(tmp_path / "nope.csv")


def test_no_valid_rows(tmp_path):
    p = write(tmp_path, "a,b\n0,0\n")
    with pytest.raises(IngestError, match="no valid rows"):
        load_csv(p, cols="a,b")


SEMICOLON_EXPORTS = {
    "header": ("tcost_bi;tcost_pd\n1500,5;220,25\n3000;400\n12,5;7\n", ["tcost_bi,tcost_pd", "0,1", "1,0"]),
    "no-header": ("1500,5;220,25\n3000;400\n12,5;7\n12;7,25\n", ["0,1", "1,0"]),
    "integers": ("1500;220\n3000;400\n", ["0,1"]),
    # the first row reads as a header (its middle cell "5;220" does not parse), and by columns 0 and 2 the other
    # rows would load as (3000, 75) and (12, 5)
    "three-cells": ("1500,5;220,25\n3000,5;400,75\n12,5;7,5\n", ["0,2", "2,0"]),
}


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("export", SEMICOLON_EXPORTS)
def test_semicolon_decimal_comma_export_is_an_ingest_error(tmp_path, export, strict):
    # files are comma-delimited with '.' decimals: a cell of numbers joined by ';' in the first row that holds values
    # marks an export to convert; the header export's one cell "tcost_bi;tcost_pd" is a name, which no spec finds
    text, specs = SEMICOLON_EXPORTS[export]
    p = write(tmp_path, text)
    for cols in specs:
        with pytest.raises(IngestError, match=None if export == "header" else "row 1 holds a ';'.*convert"):
            load_csv(p, cols=cols, strict=strict)


@pytest.mark.parametrize("cols", ["loss; BI,loss_PD", "0,1"])
def test_semicolon_in_a_quoted_header_name_loads(tmp_path, cols):
    p = write(tmp_path, '"loss; BI",loss_PD\n1500.5,220.25\n3000,400\n')
    s = load_csv(p, cols=cols)
    assert s.claim1.tolist() == [1500.5, 3000.0] and s.claim2.tolist() == [220.25, 400.0]


def test_round_trip_full_precision(tmp_path, rng):
    vals1 = rng.lognormal(7, 2, size=50)
    vals2 = rng.lognormal(6, 1.5, size=50)
    s = ClaimPairSample(vals1, vals2)
    out = tmp_path / "out.csv"
    write_csv(s, out, metadata=["seed=1"])
    with mock.patch.object(ingest, "_rows_by_csv") as row_loop:
        s2 = load_csv(out, cols="claim1,claim2")
    row_loop.assert_not_called()  # a clean file is read by loadtxt alone
    assert np.array_equal(s.claim1, s2.claim1)
    assert np.array_equal(s.claim2, s2.claim2)


def test_summarize_basic():
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s["median"] == 3.0
    assert s["mean"] == 3.0
    assert s["min"] == 1.0 and s["max"] == 5.0
    assert s["min"] <= s["q1"] <= s["median"] <= s["q3"] <= s["max"]


def test_summarize_symmetric_zero_skew():
    vals = np.concatenate([np.arange(-10.0, 11.0)]) + 100.0
    assert summarize(vals)["skewness"] == pytest.approx(0.0, abs=1e-12)


def test_summarize_is_permutation_invariant(rng):
    vals = rng.lognormal(size=101)
    a, b = summarize(vals), summarize(vals[::-1])
    assert a == pytest.approx(b, rel=1e-12)


def test_summarize_constant_data_errors():
    with pytest.raises(ValueError, match="skewness undefined"):
        summarize([2.0, 2.0, 2.0])


def test_summarize_kurtosis_not_excess(rng):
    vals = rng.normal(size=200_000)
    assert summarize(vals)["kurtosis"] == pytest.approx(3.0, abs=0.1)


def _unscaled_skewness_and_kurtosis(vals):
    """The moments from the deviations as they are, which summarize took until it scaled them (oracle)."""
    m2 = np.mean((vals - vals.mean()) ** 2)
    return np.mean((vals - vals.mean()) ** 3) / m2**1.5, np.mean((vals - vals.mean()) ** 4) / m2**2


@pytest.mark.parametrize("power", [-400, 400])
def test_summarize_moments_do_not_depend_on_the_claim_scale(rng, power):
    # at 2^+-400 (about 1e+-120) the cubes and fourth powers of the deviations overflow or underflow unscaled.
    # Scaled by a power of two, the deviations of vals and of 2^400 vals are the same doubles, so their moments
    # are equal; against the unscaled ones, m2^1.5 and m2^2 (libm pow, not correctly rounded) may differ by an ulp
    vals = rng.lognormal(mean=8.0, sigma=1.5, size=2000)
    s = summarize(vals)
    assert (s["skewness"], s["kurtosis"]) == pytest.approx(_unscaled_skewness_and_kurtosis(vals), rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = summarize(np.ldexp(vals, power))
    assert (scaled["skewness"], scaled["kurtosis"]) == (s["skewness"], s["kurtosis"])
    assert scaled["mean"] == np.ldexp(s["mean"], power)


def test_summarize_sample_shape(rng):
    s = ClaimPairSample(rng.lognormal(size=10), rng.lognormal(size=10))
    doc = summarize_sample(s)
    assert set(doc) == {"claim1", "claim2", "n"}


def test_histogram_two_bins():
    h = histogram_export([1.0, 1.0, 2.0, 2.0], bins=2)
    assert h["counts"] == [2, 2]
    assert h["edges"][0] == 1.0 and h["edges"][-1] == 2.0


def test_histogram_counts_sum_to_n(rng):
    vals = rng.lognormal(size=500)
    for bins in (1, 7, 50):
        h = histogram_export(vals, bins=bins)
        assert sum(h["counts"]) == 500


def test_sample_invariants():
    with pytest.raises(IngestError):
        ClaimPairSample([1.0], [2.0, 3.0])
    with pytest.raises(IngestError):
        ClaimPairSample([1.0, -1.0], [2.0, 3.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(IngestError, match="finite"):
            ClaimPairSample([1.0, 2.0], [2.0, bad])


# Cells of a hostile export: most are clean numbers, so that many files take the loadtxt path.
CLEAN_CELLS = st.sampled_from(["1", "2.5", "1e-3", "7E2", "+4", "123456.789", "1.", ".5", "8000.000000000001"])
BAD_CELLS = st.sampled_from([
    "", " ", "nan", "NaN", "inf", "-inf", "1e400", "-0", "0", "-3.5", "1,5", "2,25", '"12.5"', '"1,5"', ' 7 ',
    "\t9", "1_0", "\u0661", "x", "#3", "4#5", '"2\n3"', "0x10", "1e", "--1", "\x0c6",
])


@st.composite
def csv_files(draw):
    """Text of a claims file, with the options to load it by."""
    width = draw(st.integers(2, 3))
    cells = st.one_of(CLEAN_CELLS, BAD_CELLS) if draw(st.booleans()) else CLEAN_CELLS
    row = st.lists(cells, min_size=width - 1, max_size=width + 1).map(",".join)
    clean_row = st.lists(CLEAN_CELLS, min_size=width, max_size=width).map(",".join)
    odd_rows = st.one_of(
        st.sampled_from(["", "  ", ",", "# note"]),
        # comments whose other cells parse
        clean_row.map(lambda r: "#" + r),
        clean_row.map(lambda r: " #" + r),
        # a quoted cell over two lines, both of which parse as rows on their own
        st.tuples(clean_row, clean_row).map(lambda rr: f'{rr[0]},"x\n{rr[1]},y"'),
    )
    rows = draw(st.lists(st.one_of(row, odd_rows) if draw(st.booleans()) else row, min_size=1, max_size=12))
    header = draw(st.sampled_from([None, ["a", "b", "c"][:width], ['"a"', "b", "c"][:width]]))
    # a comment row is data to loadtxt when the columns leave out the first one
    names = ["0,1", "1,0", "0,0"] + (["a,b", "b,a"] if header else [])
    if width == 3:
        names += ["1,2", "2,1"] + (["b,c"] if header else [])
    cols = draw(st.sampled_from(names))
    lines = draw(st.lists(st.sampled_from(["# meta", ""]), max_size=2))
    lines += ([",".join(header)] if header else []) + rows
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + eol.join(lines) + draw(st.sampled_from(["", eol]))
    return text, dict(cols=cols)


def _agrees_with_the_row_loop(tmp_path_factory, strict, doc):
    """Assert that ``load_csv`` gives the row loop's outcome on ``doc``; return the path it took."""
    text, options = doc
    p = tmp_path_factory.getbasetemp() / f"fuzz_{strict}.csv"
    p.write_bytes(text.encode("utf-8"))

    def outcome():
        try:
            s = load_csv(p, strict=strict, **options)
        except IngestError as exc:
            return str(exc)
        return s.claim1.tobytes(), s.claim2.tobytes(), s.rejected_rows

    with mock.patch.object(ingest, "_rows_by_csv", wraps=ingest._rows_by_csv) as row_loop, \
            mock.patch.object(ingest, "_forked", wraps=ingest._forked) as split:
        fast = outcome()
    with mock.patch.object(ingest, "_columns_by_loadtxt", return_value=None):
        rows = outcome()
    assert fast == rows
    path = "error" if isinstance(fast, str) else "row loop" if row_loop.called else "loadtxt"
    return path + (", split" if split.called else "")


@pytest.mark.parametrize("strict", [False, True])
@settings(max_examples=300, deadline=None)
@given(doc=csv_files())
# loadtxt would read the comment row, the two lines of the quoted cell, and "4" of "4#5" as data
@example(doc=("a,b,c\n1,1,1\n#2,2,2\n", dict(cols="1,2")))
@example(doc=('a,b,c\n1,2,"x\n3,4,y"\n', dict(cols="0,1")))
@example(doc=("1,2\n4#5,3\n", dict(cols="0,1")))
def test_loadtxt_path_agrees_with_the_row_loop(tmp_path_factory, strict, doc):
    event(_agrees_with_the_row_loop(tmp_path_factory, strict, doc))


@needs_fork
@pytest.mark.parametrize("strict", [False, True])
@settings(max_examples=300, deadline=None)
@given(doc=csv_files())
def test_split_loadtxt_path_agrees_with_the_row_loop(tmp_path_factory, strict, doc):
    # every file with a '\n' past its middle and a value on each side of it is parsed in two halves, one forked
    with mock.patch.object(_fork, "FORK_MIN_ROWS", 1):
        event(_agrees_with_the_row_loop(tmp_path_factory, strict, doc))
    assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("text, path", [
    ("a,b\n1,2\n", "loadtxt"),  # one row: the first '\n' past the middle ends the text
    ("a,b\n1,2\n3,4\n", "loadtxt"),  # two rows, the same
    ("a,b\n1,2\n3,4", "loadtxt, split"),  # two rows, no line end after the last: one row each side
    ("a,b\n100000,200000\n3,4\n", "loadtxt, split"),  # the cut is at the last line
    ("a,b\r\n100000,200000\r\n3,4\r\n", "loadtxt, split"),
    ("a,b\n1,2\r3,4\r\n5,6\r7,8\n9,10\n", "loadtxt, split"),  # bare '\r' line ends before the cut
    ("a,b\n100000,200000\n3,4\r5,6\n7,8\n", "loadtxt, split"),  # and after it
    ("a,b\n1,2\n\n3,4\n\n5,6\n", "loadtxt, split"),  # blank rows
    ("a,b\r1,2\r3,4\r5,6\r", "loadtxt"),  # no '\n' to cut at
    ("a,b\n1,2\n\n\n\n\n\n\n", "loadtxt"),  # nothing but line ends after the cut
    ("a,b\n1,2\n3,4\n5,6\n7,8\nx,9\n", "row loop, split"),  # a bad row in the second half
    ("a,b\n1,2\n3,4\n5,6\n7,8\nnan,9\n", "row loop, split"),
    ("a,b\n1,2\n3,4\n5,6\n7,8\n9,0\n", "row loop, split"),
    ("a,b\r\n1,2\r\n3,4\r\n5,6\r\n7,8\r\n-9,9\r\n", "row loop, split"),
])
def test_split_loader_edges(tmp_path_factory, strict, text, path, monkeypatch):
    monkeypatch.setattr(_fork, "FORK_MIN_ROWS", 1)
    doc = (text, dict(cols="a,b"))
    expected = path if not (strict and path.startswith("row loop")) else "error, split"
    assert _agrees_with_the_row_loop(tmp_path_factory, strict, doc) == expected
    assert_no_child_left()


@needs_fork
def test_split_loader_names_the_bad_line_of_the_second_half(tmp_path, monkeypatch):
    monkeypatch.setattr(_fork, "FORK_MIN_ROWS", 1)
    p = write(tmp_path, "a,b\n" + "".join(f"{i + 1},{i + 2}\n" for i in range(40)) + "1e400,3\n4,-1\n")
    s = load_csv(p, cols="a,b")
    assert s.n == 40
    assert s.rejected_rows == ["row 42: non-finite claim amount (inf, 3.0)",
                               "row 43: nonpositive claim amount (4.0, -1.0)"]
    with pytest.raises(IngestError, match="row 42: non-finite"):
        load_csv(p, cols="a,b", strict=True)
    assert_no_child_left()
