"""Text rows for every file the solver writes (legacy VTK, CSV, MSH 2.2).

Each file is header text plus blocks of rows whose fields are round-trip
`repr` floats and `%d` integers; `rows` fills a block with one C-level `%`.
"""

from __future__ import annotations

from itertools import chain

import numpy as np


def rows(fmt: str, *columns) -> str:
    """`fmt` applied to each row of the stacked columns, concatenated.

    A column is a 1-d array, or a 2-d array contributing its columns in
    order. Values keep their Python type (`tolist`), so `%r` of a float is
    its shortest round-trip `repr` and `%d` of an integer its decimal form.
    """
    cols = []
    for c in columns:
        a = np.asarray(c)
        cols.extend(a.T.tolist() if a.ndim == 2 else [a.tolist()])
    return (fmt * len(cols[0])) % tuple(chain.from_iterable(zip(*cols)))
