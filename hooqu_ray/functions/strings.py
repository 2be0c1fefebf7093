"""String-column kernels: the whitespace-token counter every ``\\S+``
count in the engine runs on, and vectorized regex field extraction.

:func:`whitespace_token_counts` counts RE2 ``\\S+`` runs per row in one
numpy pass over the UTF-8 bytes, several times faster than
``pc.count_substring_regex(text, r"\\S+")`` and equal to it.

:func:`regex_extract` is the generic cousin of ``jsonx.json_field`` for
non-JSON telemetry (log lines, URLs, user agents).  The reference has no
extraction surface (its PatternMatch analyzer only COUNTS matches,
``hooqu/analyzers/pattern_match.py``); at scale "parse a field out of
every line" is a core map-only ETL step.  Its semantics are pinned to
DuckDB ``regexp_extract(col, pattern, group)`` (both sides are RE2,
bit-for-bit on the same pattern string — CLAUDE.md): no match → ``''``
(empty string, NOT null), null input → null.
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_NAMED_GROUP_RE = re.compile(r"\(\?P<([A-Za-z_][A-Za-z0-9_]*)>")


def _token_counts_chunk(arr: pa.Array) -> np.ndarray:
    n = len(arr)
    out = np.zeros(n, np.int64)
    large = pa.types.is_large_string(arr.type)
    if not (large or pa.types.is_string(arr.type)):
        raise TypeError(
            f"whitespace_token_counts needs a string array, got {arr.type}")
    _, offsets, data = arr.buffers()
    odt = np.dtype(np.int64 if large else np.int32)
    off = np.frombuffer(offsets, odt, n + 1, arr.offset * odt.itemsize)
    base = int(off[0])
    off = (off - base).astype(np.intp)
    if off[-1] == 0:
        return out
    b = np.frombuffer(data, np.uint8, off[-1], base)
    c = b - np.uint8(9)  # wraps: RE2 \s is [\t\n\f\r ] = 9, 10, 12, 13, 32
    space = ((c <= 4) & (c != 2)) | (b == 32)
    # a token starts at a non-space byte after a space byte or a row start
    start = np.empty(len(b), np.uint8)
    start[0] = not space[0]
    np.greater(space[:-1], space[1:], out=start[1:].view(bool))
    full = off[1:] > off[:-1]
    row_starts = off[:-1][full]
    start[row_starts] = ~space[row_starts]
    out[full] = np.add.reduceat(start, row_starts, dtype=np.int64)
    if arr.null_count:
        out[np.asarray(arr.is_null())] = 0
    return out


def whitespace_token_counts(arr) -> np.ndarray:
    """Number of RE2 ``\\S+`` runs in each row of a string array, as int64
    numpy: equal to ``pc.fill_null(pc.count_substring_regex(arr, r"\\S+"),
    0)``.  RE2's ``\\s`` is the ASCII ``[\\t\\n\\f\\r ]``: ``\\v``, NBSP,
    U+3000 and every other non-ASCII character are token bytes (Python's
    ``str.split`` set differs).  UTF-8 continuation bytes are never
    ASCII, so one pass over the bytes suffices: a token starts at a
    non-space byte that follows a space byte or a row start.  Null rows
    count 0; sliced, chunked and ``large_string`` arrays are handled,
    other types raise ``TypeError``."""
    if isinstance(arr, pa.ChunkedArray):
        if arr.num_chunks == 0:
            return np.zeros(0, np.int64)
        return np.concatenate([_token_counts_chunk(c) for c in arr.chunks])
    return _token_counts_chunk(arr)


def regex_extract(ds, col: str, pattern: str,
                  out_col: Optional[str] = None):
    """Append the text captured by ``pattern``'s single NAMED group
    (``(?P<name>...)``) from string column ``col`` as ``out_col``
    (default: the group name).  DuckDB ``regexp_extract`` parity: rows
    that don't match get ``''``; null inputs stay null.

    The pattern must be RE2-compatible (Arrow's engine; probed at build
    time on a NON-empty array — an empty probe never compiles the
    pattern) and contain exactly one named group.  Map-only: no shuffle
    at any scale; the compiled pattern lives in the Arrow kernel, zero
    Python per row."""
    names = _NAMED_GROUP_RE.findall(pattern)
    if len(names) != 1:
        raise ValueError(
            "regex_extract needs exactly ONE named group (?P<name>...) "
            f"in the pattern, found {len(names)}: {pattern!r}")
    gname = names[0]
    try:  # Arrow's extract_regex rejects UNNAMED capture groups
        rx = re.compile(pattern)
        if rx.groups > len(rx.groupindex):
            raise ValueError(
                "regex_extract: Arrow's extract_regex supports NAMED "
                "groups only — make extra groups non-capturing (?:...) "
                f"or named: {pattern!r}")
    except re.error:
        pass  # RE2-only syntax; the probe below is authoritative
    try:  # RE2 probe (non-empty array — CLAUDE.md gotcha)
        pc.extract_regex(pa.array(["probe"]), pattern=pattern)
    except pa.ArrowInvalid as ex:
        raise ValueError(
            f"pattern is not RE2-compatible: {pattern!r} ({ex})") from ex
    name = out_col or gname

    def stamp(t: pa.Table) -> pa.Table:
        if name in t.column_names:
            raise ValueError(
                f"regex_extract output column {name!r} already exists — "
                "pass out_col to rename")
        src = t.column(col)
        ext = pc.extract_regex(pc.fill_null(src, ""), pattern=pattern)
        vals = pc.fill_null(pc.struct_field(ext, gname), "")
        vals = pc.if_else(pc.is_valid(src), vals,
                          pa.scalar(None, pa.string()))
        return t.append_column(name, vals)

    return ds.map_batches(stamp, batch_format="pyarrow")
