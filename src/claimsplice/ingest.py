"""CSV ingestion, validation and summary statistics for paired claim data."""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from claimsplice._fork import _forked, _forks


class IngestError(ValueError):
    """Raised for unreadable files, missing columns or no usable rows."""


@dataclass
class ClaimPairSample:
    """Paired strictly-positive, finite claim amounts and the rows the loader rejected."""

    claim1: np.ndarray
    claim2: np.ndarray
    rejected_rows: List[str] = field(default_factory=list)

    def __post_init__(self):
        self.claim1 = np.asarray(self.claim1, dtype=float)
        self.claim2 = np.asarray(self.claim2, dtype=float)
        if self.claim1.size != self.claim2.size:
            raise IngestError("claim columns have unequal lengths")
        if self.claim1.size < 1:
            raise IngestError("empty sample")
        if not (np.all(np.isfinite(self.claim1)) and np.all(np.isfinite(self.claim2))):
            raise IngestError("claim amounts must be finite")
        if np.any(self.claim1 <= 0) or np.any(self.claim2 <= 0):
            raise IngestError("claim amounts must be strictly positive")

    @property
    def n(self):
        return self.claim1.size


def _resolve_columns(header, width, cols):
    """Map a column spec (two names or two 0-based indices) onto the header; an index must be below ``width``."""
    parts = [c.strip() for c in cols.split(",")]
    if len(parts) != 2:
        raise IngestError(f"column spec must name exactly two columns, got {cols!r}")
    idx = []
    for p in parts:
        if header is not None and p in header:
            idx.append(header.index(p))
        elif not (p.isascii() and p.isdigit()):
            raise IngestError(f"column {p!r} not found in header {header!r}")
        elif int(p) >= width:
            raise IngestError(f"column {p} is out of range: the first row holds {width} cell(s)")
        else:
            idx.append(int(p))
    return idx


def _holds_values(row):
    """False for a blank row and for a comment: a row whose first cell starts with '#'."""
    return bool(row) and any(f.strip() for f in row) and not row[0].lstrip().startswith("#")


def _all_numbers(cells):
    try:
        [float(f) for f in cells]
        return True
    except ValueError:
        return False


def _sniff(fh, path, cols):
    """Column indices of ``cols``, and the file position and line number of the first data row.

    The first row that holds values is the header if one of its cells fails to parse as a number. A cell of it
    that is numbers joined by ';' marks a ';'-delimited export, whose decimal commas would split each value over
    two columns: that is an IngestError. A ';' inside a header name is kept.
    """
    reader = csv.reader(iter(fh.readline, ""))  # readline, unlike next, keeps tell()
    start, line = fh.tell(), 1
    for first in reader:
        if _holds_values(first):
            break
        start, line = fh.tell(), reader.line_num + 1
    else:
        raise IngestError(f"{path}: no rows")
    if any(";" in f and _all_numbers(f.split(";")) for f in first):
        raise IngestError(f"{path}: row {line} holds a ';', as a ';'-delimited export with decimal commas does: "
                          "convert it to ',' delimiters and '.' decimals first")
    if _all_numbers(first):
        header = None
    else:
        header = [f.strip() for f in first]
        start, line = fh.tell(), reader.line_num + 1
    return _resolve_columns(header, len(first), cols), start, line


# a character other than a line end: a line of the data that holds one is a row loadtxt parses or rejects
_NOT_LINE_END = re.compile(r"[^\r\n]")


def _loadtxt(lines, idx):
    return np.loadtxt(lines, delimiter=",", usecols=idx, comments=None, ndmin=2, dtype=float)


def _loadtxt_after(text, cut, idx):
    """``_loadtxt`` of ``text[cut:]``, cut into lines as a file opened with ``newline=""`` cuts them."""
    return _loadtxt(io.StringIO(text[cut:], newline=""), idx)


def _lines_before(text, cut):
    r"""The lines a file opened with ``newline=""`` yields for ``text[:cut]``: '\n', '\r' and '\r\n' each end one."""
    n = text.count("\n", 0, cut)
    if text.find("\r", 0, cut) >= 0:
        n += text.count("\r", 0, cut) - text.count("\r\n", 0, cut)
    return n


def _columns_by_loadtxt(fh, start, idx):
    r"""The two columns of the data rows by ``np.loadtxt``, or None where the row loop must decide.

    The row loop decides a file with a quote or a '#' among its data rows (a
    quoted cell can span lines, and '#' starts a comment only at the start of
    a row), a row ``loadtxt`` cannot parse and a value that is non-finite or
    nonpositive: it alone writes diagnostics. Every number ``loadtxt``
    accepts, ``float`` parses to the same double.

    From ``FORK_MIN_ROWS`` lines up, where ``os.fork`` exists, the text is
    cut just after the first '\n' at or past its middle, where every line
    reader ends a line. A forked child parses the lines after the cut from
    the text it inherits, while this process streams the lines before it
    from the file, so that it holds no second copy of its half. Any other
    file, and one with a half that holds no value, is parsed in one call.
    """
    fh.seek(start)
    data = fh.read()
    if "#" in data or '"' in data or not data.strip():
        return None
    cut = data.find("\n", len(data) // 2) + 1
    head = _lines_before(data, cut)
    fh.seek(start)
    try:
        # the halves hold about the same number of lines, so the file holds about twice the first half's
        if _forks(2 * head) and _NOT_LINE_END.search(data, cut) and _NOT_LINE_END.search(data, 0, cut):
            with _forked(_loadtxt_after, data, cut, idx) as tail:
                pairs = np.concatenate([_loadtxt(itertools.islice(fh, head), idx), tail()])
        else:
            del data  # loadtxt reads the rows again from the file; the text need not stay
            pairs = _loadtxt(fh, idx)
    except ValueError:
        return None
    if not np.all((pairs > 0) & (pairs < np.inf)):
        return None
    c1, c2 = np.ascontiguousarray(pairs.T)
    return ClaimPairSample(c1, c2)


def _rows_by_csv(fh, line, idx, path, strict):
    """The data rows from the position of ``fh``, which is on line ``line``, parsed one at a time."""
    reader = csv.reader(fh)
    c1, c2, rejected = [], [], []
    lines_read = 0
    for row in reader:
        rownum, lines_read = line + lines_read, reader.line_num
        if not _holds_values(row):
            continue
        try:
            v1, v2 = float(row[idx[0]]), float(row[idx[1]])
        except (ValueError, IndexError):
            msg = f"row {rownum}: unparseable values {row!r}"
        else:
            # math.isfinite: one scalar check per row; np.isfinite on a Python float is ~40x slower
            if not (math.isfinite(v1) and math.isfinite(v2)):
                msg = f"row {rownum}: non-finite claim amount ({v1}, {v2})"
            elif v1 <= 0 or v2 <= 0:
                msg = f"row {rownum}: nonpositive claim amount ({v1}, {v2})"
            else:
                c1.append(v1)
                c2.append(v2)
                continue
        if strict:
            raise IngestError(f"{path}: {msg}")
        rejected.append(msg)
    if not c1:
        raise IngestError(f"{path}: no valid rows ({len(rejected)} rejected)")
    return ClaimPairSample(np.array(c1), np.array(c2), rejected_rows=rejected)


def _not_utf8(path, exc):
    """An IngestError naming the first byte of ``path`` that is not UTF-8.

    ``exc`` counts its offset from the start of the buffer the text reader
    was decoding, so the offset in the file comes from decoding it again.
    """
    with open(path, "rb") as raw:
        data = raw.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as found:
        exc = found
    return IngestError(f"{path}: not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset {exc.start} ({exc.reason})")


def load_csv(path, cols="0,1", strict=False):
    """Load a two-column claim-pair sample from a comma-delimited CSV file with '.' decimals.

    ``cols`` selects the two columns by header name or 0-based index; an
    index must be below the cell count of the first row that holds values.
    Rows with nonpositive, non-finite (nan, inf, or overflowing such as
    1e400) or unparseable values are rejected with a diagnostic that names
    the row's line in the file; in strict mode the first bad row aborts.
    Blank rows and rows whose first cell starts with '#' are skipped, and a
    UTF-8 byte order mark is ignored. A file that is not UTF-8 is an
    IngestError naming the offset of its first bad byte. A ';'-delimited
    export with decimal commas is not read: convert it first.
    A first row that fails numeric parsing is the header.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            idx, start, line = _sniff(fh, path, cols)
            sample = _columns_by_loadtxt(fh, start, idx)
            if sample is not None:
                return sample
            fh.seek(start)
            return _rows_by_csv(fh, line, idx, path, strict)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc


def write_csv(sample, path, metadata=None):
    """Write a sample back out under the header ``claim1,claim2``; full-precision repr round-trips exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if metadata:
            for line in metadata:
                fh.write(f"# {line}\n")
        w = csv.writer(fh)
        w.writerow(("claim1", "claim2"))
        for a, b in zip(sample.claim1, sample.claim2):
            w.writerow([repr(float(a)), repr(float(b))])


def summarize(values):
    """Summary statistics for one coordinate.

    Quartiles use linear interpolation between order statistics (numpy's
    default). Skewness is m3/m2^1.5 and kurtosis m4/m2^2, i.e. kurtosis is
    NOT excess (a normal sample gives about 3).
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two observations to summarize")
    # deviations scaled exactly, by a power of two, into [-1, 1], so that their powers neither overflow nor underflow
    dev = values - values.mean()
    dev = np.ldexp(dev, -np.frexp(np.max(np.abs(dev)))[1])
    m2, m3, m4 = (np.mean(dev**k) for k in (2, 3, 4))
    if m2 == 0:
        raise ValueError("degenerate sample: zero variance, skewness undefined")
    q1, med, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return {
        "min": float(values.min()),
        "max": float(values.max()),
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "mean": float(values.mean()),
        "skewness": float(m3 / m2**1.5),
        "kurtosis": float(m4 / m2**2),
    }


def summarize_sample(sample):
    return {"claim1": summarize(sample.claim1), "claim2": summarize(sample.claim2), "n": sample.n}


def histogram_export(values, bins=30):
    """Histogram data for one coordinate over linear bins: counts sum to n, edges span [min, max]."""
    values = np.asarray(values, dtype=float)
    if values.size < 1 or bins < 1:
        raise ValueError("need n >= 1 and bins >= 1")
    counts, edges = np.histogram(values, bins=np.linspace(values.min(), values.max(), bins + 1))
    return {"edges": edges.tolist(), "counts": counts.tolist()}
