"""CSV ingestion, validation and summary statistics for paired claim data."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


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


def _resolve_columns(header, cols):
    """Map a column spec (two names or two 0-based indices) onto the header."""
    parts = [c.strip() for c in cols.split(",")]
    if len(parts) != 2:
        raise IngestError(f"column spec must name exactly two columns, got {cols!r}")
    idx = []
    for p in parts:
        if header is not None and p in header:
            idx.append(header.index(p))
        elif p.isdigit():
            idx.append(int(p))
        else:
            raise IngestError(f"column {p!r} not found in header {header!r}")
    return idx


def _holds_values(row):
    """False for a blank row and for a comment: a row whose first cell starts with '#'."""
    return bool(row) and any(f.strip() for f in row) and not row[0].lstrip().startswith("#")


def _sniff(fh, path, cols, delimiter, parse, has_header):
    """Column indices of ``cols``, and the file position and line number of the first data row.

    The first row that holds values is the header if ``has_header`` says so or,
    with ``has_header`` None, if one of its cells fails to parse as a number.
    """
    reader = csv.reader(iter(fh.readline, ""), delimiter=delimiter)  # readline, unlike next, keeps tell()
    start, line = fh.tell(), 1
    for first in reader:
        if _holds_values(first):
            break
        start, line = fh.tell(), reader.line_num + 1
    else:
        raise IngestError(f"{path}: no rows")
    header = None
    if has_header or has_header is None:
        try:
            [parse(f) for f in first]
            headerless = True
        except ValueError:
            headerless = False
        if has_header or not headerless:
            header = [f.strip() for f in first]
            start, line = fh.tell(), reader.line_num + 1
    return _resolve_columns(header, cols), start, line


def _columns_by_loadtxt(fh, start, idx, delimiter):
    """The two columns of the data rows by one ``np.loadtxt`` call, or None where the row loop must decide.

    The row loop decides a file with a quote or a '#' among its data rows (a
    quoted cell can span lines, and '#' starts a comment only at the start of
    a row), a row ``loadtxt`` cannot parse and a value that is non-finite or
    nonpositive: it alone writes diagnostics. Every number ``loadtxt``
    accepts, ``float`` parses to the same double.
    """
    fh.seek(start)
    data = fh.read()
    if "#" in data or '"' in data or not data.strip():
        return None
    del data  # loadtxt reads the rows again from the file; the text need not stay
    fh.seek(start)
    try:
        pairs = np.loadtxt(fh, delimiter=delimiter, usecols=idx, comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if not np.all((pairs > 0) & (pairs < np.inf)):
        return None
    c1, c2 = np.ascontiguousarray(pairs.T)
    return ClaimPairSample(c1, c2)


def _rows_by_csv(fh, line, idx, path, parse, strict, delimiter):
    """The data rows from the position of ``fh``, which is on line ``line``, parsed one at a time."""
    reader = csv.reader(fh, delimiter=delimiter)
    c1, c2, rejected = [], [], []
    lines_read = 0
    for row in reader:
        rownum, lines_read = line + lines_read, reader.line_num
        if not _holds_values(row):
            continue
        try:
            v1, v2 = parse(row[idx[0]]), parse(row[idx[1]])
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


def load_csv(path, cols="0,1", delimiter=",", decimal=".", strict=False, has_header=None):
    """Load a two-column claim-pair sample from a CSV file.

    ``cols`` selects the two columns by header name or 0-based index.
    Rows with nonpositive, non-finite (nan, inf, or overflowing such as
    1e400) or unparseable values are rejected with a diagnostic that names
    the row's line in the file; in strict mode the first bad row aborts.
    Blank rows and rows whose first cell starts with '#' are skipped, and a
    UTF-8 byte order mark is ignored. A file that is not UTF-8 is an
    IngestError naming the offset of its first bad byte.
    ``decimal`` supports European exports (e.g. decimal=',').
    ``has_header`` of None sniffs: a first row that fails numeric parsing
    is treated as a header.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc

    def parse(tok):
        return float(tok.replace(decimal, ".") if decimal != "." else tok)

    with fh:
        try:
            idx, start, line = _sniff(fh, path, cols, delimiter, parse, has_header)
            if decimal == ".":
                sample = _columns_by_loadtxt(fh, start, idx, delimiter)
                if sample is not None:
                    return sample
            fh.seek(start)
            return _rows_by_csv(fh, line, idx, path, parse, strict, delimiter)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc


def write_csv(sample, path, header=("claim1", "claim2"), metadata=None):
    """Write a sample back out; full-precision repr round-trips exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if metadata:
            for line in metadata:
                fh.write(f"# {line}\n")
        w = csv.writer(fh)
        w.writerow(header)
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
    m2 = np.mean((values - values.mean()) ** 2)
    if m2 == 0:
        raise ValueError("degenerate sample: zero variance, skewness undefined")
    m3 = np.mean((values - values.mean()) ** 3)
    m4 = np.mean((values - values.mean()) ** 4)
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


def histogram_export(values, bins=30, log_scale=False):
    """Histogram data for one coordinate: counts sum to n, edges span [min, max]."""
    values = np.asarray(values, dtype=float)
    if values.size < 1 or bins < 1:
        raise ValueError("need n >= 1 and bins >= 1")
    if log_scale:
        edges = np.geomspace(values.min(), values.max(), bins + 1)
        edges[0], edges[-1] = values.min(), values.max()
    else:
        edges = np.linspace(values.min(), values.max(), bins + 1)
    counts, edges = np.histogram(values, bins=edges)
    return {"edges": edges.tolist(), "counts": counts.tolist()}
