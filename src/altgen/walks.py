"""Random-walk analysis on the cube: exact averaging operators and sampling.

The six axis-averaging operators act exactly on point distributions (each
line's mass replaced by its mean).  Tuple walks are sampled with lazily drawn
line shifts; every Monte-Carlo estimator uses counter-based per-sample
streams so results do not depend on how samples are batched.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt

import numpy as np

from .errors import require


# -- exact point distributions -------------------------------------------------


class ExactDistribution:
    """Probability weights as int64 numerators over a common denominator.

    Every numerator lies in [0, den], so the distance to uniform sums terms
    |num * N - den| to at most 2 * den * N; a denominator that would let that
    reach 2**63 is refused, so no int64 step can wrap.
    """

    def __init__(self, model, numerators, denominator):
        self.model = model
        self.den = int(denominator)
        if 2 * self.den * model.N >= 2**63:
            raise ValueError(f"denominator {self.den} is past the int64 range "
                             f"of exact weights on {model.N} points")
        self.num = np.array(numerators, dtype=np.int64)
        if self.num.shape != (model.N,):
            raise ValueError("weight count must equal the point count")
        if self.num.min() < 0:
            raise ValueError("weights must be nonnegative")
        # weights in [0, den] keep the int64 sum below 2**63
        if self.num.max() > self.den or int(self.num.sum()) != self.den:
            raise ValueError("weights must sum to one exactly")

    @classmethod
    def point_mass(cls, model, point):
        num = np.zeros(model.N, dtype=np.int64)
        num[point] = 1
        return cls(model, num, 1)

    def axis_average(self, axis):
        """Replace each axis line's weights by their average, exactly."""
        model = self.model
        new = np.empty(model.N, dtype=np.int64)
        model.lines(new, axis)[...] = model.lines(self.num, axis).sum(axis=-1, keepdims=True)
        return ExactDistribution(model, new, self.den * model.K)

    def tv_to_uniform(self):
        """Total variation distance to uniform, as an exact Fraction."""
        N = self.model.N
        total = int(np.abs(self.num * N - self.den).sum())
        return Fraction(total, 2 * N * self.den)


def full_sweep(dist):
    """Apply every axis average once; uniformizes any start distribution."""
    for axis in range(1, dist.model.d + 1):
        dist = dist.axis_average(axis)
    return dist


# -- sampling -------------------------------------------------------------------


def _stream_key(seed, index):
    return [seed, index]


def sample_stream(seed, index):
    """Independent counter-based stream for sample `index` of a master seed."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, index)))


def _block_draws(seed, block, high, size):
    """Row r is sample_stream(seed, block[r]).integers(0, high, size=size).

    One generator serves the block, its key reset per sample: a new Philox
    per sample costs about twice as much.
    """
    rng = sample_stream(seed, block[0])
    state = rng.bit_generator.state
    draws = np.empty((len(block), size), dtype=np.int64)
    for r, i in enumerate(block):
        state["state"]["key"] = _stream_key(seed, i)
        rng.bit_generator.state = state
        draws[r] = rng.integers(0, high, size=size)
    return draws


# the walk's first averaging block Q1 = U1U2U3, the rightmost factor's
# element sampled first; b1 reads the tuples after it
TUPLE_WALK_AXES = [3, 2, 1]


# samples advanced together; a fixed block keeps memory flat in the sample count
WALK_BLOCK = 1024


def _distinct_rows(x):
    """Whether each row of the 2-d array x holds pairwise distinct values."""
    ranked = np.sort(x, axis=1)
    return (ranked[:, 1:] != ranked[:, :-1]).all(axis=1)


def _walk_blocks(model, start, seed, samples):
    """Walk the samples block by block; yields the tuples after Q1.

    Each axis applies one uniformly sampled element of its group, lazily:
    a sample draws one shift per distinct line its points occupy, in
    ascending line-id order, so points on a shared line receive the same
    shift and the law matches the full group element.  A sample draws all
    its values from sample_stream(seed, i) in one call; bounded draws are
    taken one value at a time, so that call's values are the ones the
    per-axis calls would give in turn.
    """
    K = model.K
    h = len(start)
    for lo in range(0, samples, WALK_BLOCK):
        block = range(lo, min(lo + WALK_BLOCK, samples))
        # each axis uses at most h of a sample's draws
        draws = _block_draws(seed, block, K, len(TUPLE_WALK_AXES) * h)
        rows = np.arange(len(block))[:, None]
        used = np.zeros((len(block), 1), dtype=np.int64)
        pts = np.tile(start, (len(block), 1))
        for axis in TUPLE_WALK_AXES:
            lid, pos = model.line_coords(pts, axis)
            # rank of each point's line among its sample's distinct lines
            order = np.argsort(lid, axis=1)
            ranked = np.take_along_axis(lid, order, axis=1)
            new = np.ones(ranked.shape, dtype=bool)
            new[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
            rank = np.empty_like(lid)
            np.put_along_axis(rank, order, np.cumsum(new, axis=1) - 1, axis=1)
            shifts = draws[rows, used + rank]
            used += new.sum(axis=1, keepdims=True)
            pts = model.move(pts, axis, (pos + shifts) % K - pos)
            require(_distinct_rows(pts).all(), "tuple lost distinctness")
        yield pts


def tuple_walk(model, start, seed=0, samples=1):
    """Monte-Carlo tuple walk; returns the b1 membership fraction.

    Simulates `samples` independent walks of the start tuple along
    TUPLE_WALK_AXES, sample i drawing from sample_stream(seed, i); the
    samples of a block advance together.  b1 counts tuples with pairwise
    distinct first three coordinates after those three axes (the Q1 block).
    """
    if model.d != 6:
        raise ValueError("the tuple walk's axis order assumes six axes")
    start = np.asarray(start, dtype=np.int64)
    h = len(start)
    if len(set(start.tolist())) != h:
        raise ValueError("start tuple must have distinct points")

    K = model.K
    b1 = 0
    for q1 in _walk_blocks(model, start, seed, samples):
        b1 += int(_distinct_rows(q1 % K**3).sum())
    return b1 / samples


def point_walk_batch(model, seed, samples, start_point, axes):
    """Vectorized one-point walk: all samples advance together.

    With a single point per sample the per-line shifts are independent
    uniforms, so one draw per (sample, letter) is the exact law.
    """
    rng = sample_stream(seed, 0)
    pts = np.full(samples, start_point, dtype=np.int64)
    for axis in axes:
        pos = model.line_coords(pts, axis)[1]
        shifts = rng.integers(0, model.K, size=samples)
        pts = model.move(pts, axis, (pos + shifts) % model.K - pos)
    return pts


# -- exact bounds ----------------------------------------------------------------


@dataclass
class DoeblinReport:
    K: int
    h: int
    q_factor: Fraction              # (1 - h^2/2K^3)^2 (1 - h^2/2K^6)
    contraction: Fraction           # h^2/K^3, the factor used downstream
    stated_norm_bound: Fraction     # 1 - h^2/K^3, the operator-norm reading
    tuple_space_size: int           # product_{i<h} (K^6 - i)
    inequality_holds: bool

    def entry_lower_bound(self):
        """Per-entry lower bound relative to uniform: 1 - h^2/K^3."""
        return 1 - self.contraction


def doeblin_contraction_check(K, h):
    """Exact rational evaluation of the averaging-contraction chain."""
    K2 = Fraction(h * h, 2 * K**3)
    K6 = Fraction(h * h, 2 * K**6)
    lhs = (1 - K2) ** 2 * (1 - K6)
    rhs = 1 - Fraction(h * h, K**3)
    size = 1
    for i in range(h):
        size *= K**6 - i
    return DoeblinReport(K=K, h=h, q_factor=lhs,
                         contraction=Fraction(h * h, K**3),
                         stated_norm_bound=rhs,
                         tuple_space_size=size,
                         inequality_holds=bool(lhs >= rhs))


def urn_bound(l, k, p, q):
    """Exact tail bound: C(p, q) * (k / (l*k - p))^q for distinct-urn placement."""
    if p >= l * k:
        raise ValueError("more balls than urns")
    if q > p:
        return Fraction(0)
    return comb(p, q) * Fraction(k, l * k - p) ** q


def urn_mc(l, k, p, q, samples, seed=0):
    """Empirical frequency of >= q balls landing in the first box."""
    hits = 0
    for i in range(samples):
        rng = sample_stream(seed, i)
        urns = rng.choice(l * k, size=p, replace=False)
        if int((urns < k).sum()) >= q:
            hits += 1
    return hits / samples


def binomial_sigma(p_true, samples):
    p = min(max(float(p_true), 0.0), 1.0)
    return sqrt(p * (1.0 - p) / samples)


# -- mixing ----------------------------------------------------------------------

# steps mixing_time_points takes before it gives up
MIXING_STEPS = 10**4


def mixing_time_points(operator, model, tol=1e-9):
    """First step from point 0 with total variation to uniform below `tol`.

    `operator` maps a weight array to the stepped weights; the lazy walk
    (I + T)/2 is iterated.  Returns (steps, tv_curve).
    """
    w = np.zeros(model.N)
    w[0] = 1.0
    curve = []
    uniform = 1.0 / model.N
    for step in range(1, MIXING_STEPS + 1):
        w = 0.5 * (w + operator(w))
        tv = 0.5 * float(np.abs(w - uniform).sum())
        curve.append(tv)
        if tv < tol:
            break
    require(tv < tol, f"walk did not mix within {MIXING_STEPS} steps (tv={tv})")
    return step, curve

