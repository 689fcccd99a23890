"""Mini column-oriented dataframe engine.

Pandas is not available in this environment, so this package provides the
subset of dataframe behaviour that FlorDB's query surface relies on:

* column projection and attribute access (``df["acc"]``, ``df.acc``),
* boolean-mask filtering (``df[df.epoch == 3]``),
* element-wise column arithmetic and comparisons,
* ``isna`` / ``astype`` / ``cumsum`` / ``fillna`` on columns,
* ``sort_values``, ``drop_duplicates``, ``groupby(...).agg(...)``,
* ``merge`` (inner/left joins), ``concat``, ``pivot`` and the JSON wire form.

The implementation favours clarity over raw speed; benchmark T5 measures its
query latency against growing log volumes.
"""

from .column import Column
from .frame import DataFrame
from .ops import concat, from_records, merge, pivot_logs
from .wire import frame_body

__all__ = [
    "Column",
    "DataFrame",
    "concat",
    "frame_body",
    "from_records",
    "merge",
    "pivot_logs",
]
