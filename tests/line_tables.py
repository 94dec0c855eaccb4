"""Line tables of the K^d cube, built from the scalar codec alone.

Test references use these rather than the geometry's own line layout, so a
fault in that layout cannot hide in a reference that shares it.  A line of
axis i is named by its other d-1 coordinates, encoded with the first
remaining axis fastest.
"""

from functools import lru_cache

import numpy as np

from altgen.geometry import CubeGeometry


@lru_cache(maxsize=None)
def _tables(s, d, axis):
    geo = CubeGeometry(s, d)
    K = geo.K
    table = np.empty((geo.lines_per_axis, K), dtype=np.int64)
    for line in range(geo.lines_per_axis):
        rest, r = [], line
        for _ in range(d - 1):
            r, c = divmod(r, K)
            rest.append(c)
        for c in range(K):
            table[line, c] = geo.index(tuple(rest[:axis - 1] + [c] + rest[axis - 1:]))
    line_of = np.empty(geo.N, dtype=np.int64)
    coord_of = np.empty(geo.N, dtype=np.int64)
    line_of[table] = np.arange(geo.lines_per_axis)[:, None]
    coord_of[table] = np.arange(K)
    for a in (table, line_of, coord_of):
        a.setflags(write=False)
    return table, line_of, coord_of


def line_table(geo, axis):
    """(K^(d-1), K) table: the point index at (line id, coordinate)."""
    return _tables(geo.s, geo.d, axis)[0]


def line_and_coord(geo, axis):
    """Length-N arrays: each point's axis-`axis` line id and coordinate."""
    return _tables(geo.s, geo.d, axis)[1:]
