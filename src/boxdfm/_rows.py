"""Text rows for every file the solver writes (legacy VTK, CSV, MSH 2.2).

Each file is header text plus blocks of rows whose fields are round-trip
`repr` floats and `%d` integers. `write_rows` writes a block to an open
file in chunks of _CHUNK rows, each filled with one C-level `%`, so no
file's text is ever held whole.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

# rows per chunk of write_rows
_CHUNK = 2 ** 14


def write_rows(f, fmt: str, *columns) -> None:
    """Write `fmt` applied to each row of the stacked columns to the text
    file f.

    A column is a 1-d array, or a 2-d array contributing its columns in
    order. Values keep their Python type (`tolist`), so `%r` of a float is
    its shortest round-trip `repr` and `%d` of an integer its decimal form.
    """
    columns = [np.asarray(c) for c in columns]
    for lo in range(0, len(columns[0]), _CHUNK):
        cols = []
        for a in columns:
            a = a[lo:lo + _CHUNK]
            cols.extend(a.T.tolist() if a.ndim == 2 else [a.tolist()])
        f.write((fmt * len(cols[0])) % tuple(chain.from_iterable(zip(*cols))))
