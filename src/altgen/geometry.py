"""Cube point model: N = K^d points with per-axis line structure.

Points are labeled 0..N-1 by the lexicographic codec with axis 1 fastest:
index = sum_i coord_i * K^(i-1), coordinates 0-based in [0, K).  Coordinate
value j stands for the j-th power of the fixed multiplicative generator of
the side field, so the order-K cyclic shift acts as coordinate +1 mod K.
"""

import functools

import numpy as np

# Above this many points the index tables are refused (shape-only geometry).
DEFAULT_TABLE_LIMIT = 10**7


def _cached_table(method):
    """Cache a per-axis table on the geometry instance, read-only.

    The cache lives and dies with the instance, so dropping a geometry frees
    its N-sized tables.
    """
    @functools.wraps(method)
    def cached(self, axis):
        key = (method.__name__, axis)
        table = self._tables.get(key)
        if table is None:
            table = method(self, axis)
            table.setflags(write=False)
            self._tables[key] = table
        return table

    return cached


class CubeGeometry:
    """Parameters (s, d) with side K = 2^(3s) - 1 and N = K^d points."""

    def __init__(self, s, d, table_limit=DEFAULT_TABLE_LIMIT):
        if s < 1:
            raise ValueError("s must be a positive integer")
        if d < 2:
            raise ValueError("dimension d must be at least 2")
        self.s = s
        self.d = d
        self.K = (1 << (3 * s)) - 1
        self.N = self.K**d
        self.lines_per_axis = self.K ** (d - 1)
        self.table_limit = table_limit
        self._tables = {}   # (method name, axis) -> cached index table

    @property
    def materializable(self):
        """Whether per-point index tables fit under the configured limit."""
        return self.N <= self.table_limit

    def __repr__(self):
        return f"CubeGeometry(s={self.s}, d={self.d}, K={self.K}, N={self.N})"

    # -- scalar codec ------------------------------------------------------

    def index(self, coords):
        """Encode a d-tuple of coordinates in [0,K)^d into a point index."""
        if len(coords) != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {len(coords)}")
        idx = 0
        for c in reversed(coords):
            if not 0 <= c < self.K:
                raise ValueError(f"coordinate {c} out of range [0, {self.K})")
            idx = idx * self.K + c
        return idx

    def coords(self, index):
        """Decode a point index into its d-tuple of coordinates."""
        if not 0 <= index < self.N:
            raise ValueError(f"point index {index} out of range [0, {self.N})")
        out = []
        for _ in range(self.d):
            index, c = divmod(index, self.K)
            out.append(c)
        return tuple(out)

    # -- vectorized helpers (desk-scale only) --------------------------------

    def _require_tables(self):
        if not self.materializable:
            raise ValueError(
                f"N = {self.N} exceeds the table limit {self.table_limit}; "
                "this geometry supports shape-only use"
            )

    @_cached_table
    def coord_array(self, axis):
        """Coordinate along `axis` (1-based) of every point, shape (N,)."""
        self._require_tables()
        if not 1 <= axis <= self.d:
            raise ValueError(f"axis {axis} out of range [1, {self.d}]")
        idx = np.arange(self.N, dtype=np.int64)
        return (idx // self.K ** (axis - 1)) % self.K

    @_cached_table
    def line_id_array(self, axis):
        """Axis-`axis` line id of every point, shape (N,).

        Lines are numbered by encoding the remaining d-1 coordinates with the
        same codec (first remaining axis fastest), so ids run 0..K^(d-1)-1.
        """
        self._require_tables()
        idx = np.arange(self.N, dtype=np.int64)
        lid = np.zeros(self.N, dtype=np.int64)
        mult = 1
        for j in range(1, self.d + 1):
            if j == axis:
                continue
            lid += ((idx // self.K ** (j - 1)) % self.K) * mult
            mult *= self.K
        return lid

    @_cached_table
    def line_points(self, axis):
        """Table (K^(d-1), K): point index of (line, coordinate value)."""
        self._require_tables()
        lid = self.line_id_array(axis)
        pos = self.coord_array(axis)
        table = np.empty((self.lines_per_axis, self.K), dtype=np.int64)
        table[lid, pos] = np.arange(self.N, dtype=np.int64)
        return table

    def face_points(self, axis=1, value=0):
        """Sorted indices of the face {coordinate_axis = value}."""
        self._require_tables()
        return np.flatnonzero(self.coord_array(axis) == value).astype(np.int64)
