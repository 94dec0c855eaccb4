"""Cube point model: N = K^d points with per-axis line structure.

Points are labeled 0..N-1 by the lexicographic codec with axis 1 fastest:
index = sum_i coord_i * K^(i-1), coordinates 0-based in [0, K).  Coordinate
value j stands for the j-th power of the fixed multiplicative generator of
the side field, so the order-K cyclic shift acts as coordinate +1 mod K.

The axis-i lines are numbered by encoding the remaining d-1 coordinates with
the same codec (first remaining axis fastest), so ids run 0..K^(d-1)-1.
This module is the only one that knows the layout: a length-N vector
reaches the lines through `lines`, a set of points through `line_coords`
and `move`, and one permutation per line becomes a point permutation through
`lines_to_permutation`.
"""

import numpy as np

from .perms import Permutation

# Above this many points whole-cube arrays are refused (shape-only geometry).
TABLE_LIMIT = 10**7


class CubeGeometry:
    """The cube [K]^d every construction acts on: parameters (s, d), side
    K = 2^(3s) - 1 and N = K^d points."""

    def __init__(self, s, d):
        if s < 1:
            raise ValueError("s must be a positive integer")
        if d < 2:
            raise ValueError("dimension d must be at least 2")
        self.s = s
        self.d = d
        self.K = (1 << (3 * s)) - 1
        self.N = self.K**d
        self.lines_per_axis = self.K ** (d - 1)

    @property
    def materializable(self):
        """Whether length-N arrays fit under the table limit."""
        return self.N <= TABLE_LIMIT

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

    # -- line layout ---------------------------------------------------------

    def _stride(self, axis):
        if not 1 <= axis <= self.d:
            raise ValueError(f"axis {axis} out of range [1, {self.d}]")
        return self.K ** (axis - 1)

    def points(self):
        """Every point index, 0..N-1; refused past the table limit."""
        if not self.materializable:
            raise ValueError(
                f"N = {self.N} exceeds the table limit {TABLE_LIMIT}; "
                "this geometry supports shape-only use"
            )
        return np.arange(self.N, dtype=np.int64)

    def lines(self, x, axis):
        """The length-N array x as the (K,)*d cube with `axis` moved last.

        A view of x, so writes go through.  Its first d-1 axes, flattened in
        C order, run over the axis-`axis` lines in line-id order; the last
        runs along each line in coordinate order.
        """
        self._stride(axis)   # checks the axis
        return np.moveaxis(x.reshape((self.K,) * self.d), self.d - axis, -1)

    def line_coords(self, x, axis):
        """(line id, coordinate along `axis`) of point index or indices x."""
        stride = self._stride(axis)
        high, low = divmod(x, stride)
        high, coord = divmod(high, self.K)
        return high * stride + low, coord

    def move(self, x, axis, delta):
        """Point indices x moved `delta` places along their axis-`axis` lines.

        Nothing wraps around: each coordinate plus its delta stays in [0, K).
        """
        return x + delta * self._stride(axis)

    def lines_to_permutation(self, axis, line_perms):
        """Permutation applying line_perms[line] within each axis-`axis` line.

        line_perms: (lines, K) int array, each row a permutation of [0, K).
        """
        points = self.lines(self.points(), axis)
        # the point at coordinate c is the line's first point moved c places
        table = np.empty(self.N, dtype=np.int64)
        self.lines(table, axis)[...] = self.move(
            points[..., :1], axis, np.asarray(line_perms).reshape(points.shape))
        return Permutation(table, _validate=False)

    # -- whole-cube index tables, derived from the layout above ---------------
    # No module in the package calls these; perfbench/tracer.py wraps them by
    # name.

    def coord_array(self, axis):
        """Coordinate along `axis` (1-based) of every point, shape (N,)."""
        return self.line_coords(self.points(), axis)[1]

    def line_id_array(self, axis):
        """Axis-`axis` line id of every point, shape (N,)."""
        return self.line_coords(self.points(), axis)[0]

    def line_points(self, axis):
        """C-contiguous table (K^(d-1), K): point index of (line, coordinate)."""
        return np.ascontiguousarray(self.lines(self.points(), axis)).reshape(-1, self.K)
