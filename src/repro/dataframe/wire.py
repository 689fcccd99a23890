"""A frame's JSON wire form, ``{"columns": [...], "records": [...], "rows": N}``:
``json.dumps`` of that dict, spliced from *fragments* (blocks of records) so a
server can re-encode only the blocks that changed.  ``rows`` comes last, for
readers that take it from the tail."""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Sequence

from .frame import DataFrame


def _finite(value: Any) -> Any:
    """``value`` with every non-finite float (NaN, ±Infinity) as ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def rows_fragment(records: list[dict[str, Any]]) -> bytes:
    """``records`` as ``{...}, {...}``; JSON has no NaN or Infinity (RFC 8259),
    so a non-finite value is ``null``, which is how a Column reads NaN."""
    try:
        text = json.dumps(records, allow_nan=False)
    except ValueError:
        text = json.dumps(_finite(records), allow_nan=False)
    return text[1:-1].encode("utf-8")


def splice_body(columns: Sequence[str], fragments: Iterable[bytes], rows: int) -> bytes:
    """The body of ``fragments``' records in order (only a lone one may be empty)."""
    return b'{"columns": %b, "records": [%b], "rows": %d}' % (
        json.dumps(list(columns)).encode("utf-8"), b", ".join(fragments), rows
    )


def frame_body(frame: DataFrame) -> bytes:
    """The one JSON body of a ``dataframe`` / ``sql`` answer, as sent."""
    return splice_body(frame.columns, [rows_fragment(frame.to_records())], len(frame))
