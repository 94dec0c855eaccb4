"""Exact group order: a Jordan certificate for giants, a stabilizer chain
for the rest.

The order of a group G on n points is bounded above by the parity ceiling:
|Sym(n)|, or |Alt(n)| when every generator is even.  For n >= 8 a Jordan
certificate (Dixon and Mortimer, *Permutation Groups*, 1996, Thm 3.3E)
proves that G contains Alt(n), so its order is the ceiling.  When no
certificate is found, a stabilizer chain on at most 256 points runs the
deterministic Schreier closure to the end, or until its order, a lower
bound, reaches the ceiling; past 256 points the order is undecided.
"""

import math

import numpy as np

from .errors import require
from .gf2 import _prime_factors
from .graphs import ActionGraph
from .perms import cycle_labels

# group_order refuses point sets larger than this
ORDER_LIMIT = 10**4

# product replacement: at least this many slots, and steps before the first
# element is used
REPLACEMENT_SLOTS = 10
REPLACEMENT_WARMUP = 50
# product-replacement steps a Jordan certificate takes before it gives up
CERTIFICATE_STEPS = 2000


def _to_bytes(table):
    # padded to 256 entries so bytes.translate applies directly
    n = len(table)
    return bytes(list(map(int, table)) + list(range(n, 256)))


class _Level:
    __slots__ = ("point", "gens", "transversal", "inv_transversal")

    def __init__(self, point, identity):
        self.point = point
        self.gens = []
        self.transversal = {point: identity}
        self.inv_transversal = {point: identity}


class StabilizerChain:
    """Base and strong generators for a permutation group.

    Strong generator lists are nested: a generator registered at level j is
    also registered at every shallower level (it fixes that level's base
    prefix), which is what the Schreier closure argument requires.
    """

    def __init__(self, n):
        # permutations are 256-entry bytes tables, so bytes.translate composes
        if n > 256:
            raise ValueError("stabilizer chain supports at most 256 points")
        self.identity = bytes(range(256))
        self.levels = []

    def _mul(self, p, q):
        # (p*q)[i] = p[q[i]]
        return q.translate(p)

    def _inv(self, p):
        # the table sending p[i] to i
        return bytes.maketrans(p, self.identity)

    def _is_identity(self, p):
        return p == self.identity

    def _first_moved(self, p):
        for i, x in enumerate(p):
            if x != i:
                return i
        return None

    def _extend_orbit(self, level, new_gen):
        """Grow a level's orbit/transversal once new_gen joins its generators.

        The orbit is closed under the other generators, so when new_gen maps
        it into itself, which two bytes calls test, nothing is new.
        """
        orbit = bytes(level.transversal)
        if not orbit.translate(new_gen).translate(None, orbit):
            return
        frontier = []
        for x, ux in list(level.transversal.items()):
            y = new_gen[x]
            if y not in level.transversal:
                uy = self._mul(new_gen, ux)
                level.transversal[y] = uy
                level.inv_transversal[y] = self._inv(uy)
                frontier.append(y)
        while frontier:
            next_frontier = []
            for x in frontier:
                ux = level.transversal[x]
                for g in level.gens:
                    y = g[x]
                    if y not in level.transversal:
                        uy = self._mul(g, ux)
                        level.transversal[y] = uy
                        level.inv_transversal[y] = self._inv(uy)
                        next_frontier.append(y)
            frontier = next_frontier

    def sift(self, g, start=0):
        """Reduce g through levels; returns (residue, deepest level reached)."""
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            x = g[level.point]
            if x == level.point:
                continue
            if x not in level.transversal:
                return g, i
            g = self._mul(level.inv_transversal[x], g)
        return g, len(self.levels)

    def _add_generator(self, g, upto):
        """Register g, a residue that sifted to level `upto`, at levels
        0..upto (it fixes the base prefix of each).

        No level holds g yet.  Had g been registered before, it would move
        the base point of the level it then sifted to; g fixes the base
        points before `upto`, so that level would be `upto` or deeper and
        would list g at `upto` too.  But the orbit at `upto` is closed under
        that level's generators, and g maps its base point out of the orbit
        (or fixes every base point, when `upto` is a new level).
        """
        if upto == len(self.levels):
            pt = self._first_moved(g)
            require(pt is not None, "cannot add the identity as a generator")
            self.levels.append(_Level(pt, self.identity))
        for i in range(upto + 1):
            self.levels[i].gens.append(g)
            self._extend_orbit(self.levels[i], g)

    def add_element(self, g):
        """Sift g and absorb any residue; returns True if the chain grew."""
        h, j = self.sift(g)
        if self._is_identity(h):
            return False
        self._add_generator(h, j)
        return True

    def schreier_closure(self, ceiling=None):
        """Deterministic verification: every Schreier generator must sift.

        Levels are processed bottom-up; a non-sifting Schreier generator is
        absorbed and processing restarts at the level it reached.  On
        termination the chain is complete and the order exact.  A known
        upper bound `ceiling` on |G| ends the pass as soon as `order()`, a
        lower bound, reaches it.
        """
        if self.order() == ceiling:
            return
        i = len(self.levels) - 1
        while i >= 0:
            level = self.levels[i]
            restart = False
            for x in sorted(level.transversal.keys()):
                ux = level.transversal[x]
                for s in list(level.gens):
                    y = s[x]
                    schreier = self._mul(level.inv_transversal[y], self._mul(s, ux))
                    if self._is_identity(schreier):
                        continue
                    h, j = self.sift(schreier, start=i + 1)
                    if not self._is_identity(h):
                        self._add_generator(h, j)
                        if self.order() == ceiling:
                            return
                        i = j
                        restart = True
                        break
                if restart:
                    break
            if not restart:
                i -= 1

    def order(self):
        """Product of the basic orbit lengths: |G| once the chain is complete,
        and a lower bound before, since each level's generators fix the
        earlier base points."""
        result = 1
        for level in self.levels:
            result *= len(level.transversal)
        return result


def _product_replacement(tables, rng):
    """Endless near-uniform elements of the group generated by the int64
    image tables `tables`.

    The slots start as the generators, repeated.  Each step replaces a random
    slot by its product with another slot, on a random side, and multiplies
    an accumulator by the new slot; the accumulator's values are yielded
    after the warm-up steps.  The product of p and q is p[q].
    """
    slot = [tables[k % len(tables)] for k in range(max(REPLACEMENT_SLOTS, len(tables)))]
    acc = np.arange(len(tables[0]))
    step = 0
    while True:
        i, d, side = (int(v) for v in rng.integers((len(slot), len(slot) - 1, 2)))
        j = (i + 1 + d) % len(slot)
        slot[i] = slot[i][slot[j]] if side else slot[j][slot[i]]
        acc = acc[slot[i]]
        step += 1
        if step > REPLACEMENT_WARMUP:
            yield acc


def jordan_certificate(gens, seed=0):
    """(steps, p) proving that the group generated by `gens` contains Alt(n),
    or None.

    The action is transitive, and the element that product replacement from
    `seed` reaches after `steps` steps (at most CERTIFICATE_STEPS) has a
    longest cycle of prime length p, n/2 < p <= n - 3.  Its other cycles are
    shorter, so a power of it is a p-cycle; that p-cycle neither fits in a
    block nor moves one, so the group is primitive; and a primitive group
    with a p-cycle, p <= n - 3, contains Alt(n) (Jordan; Dixon and Mortimer,
    *Permutation Groups*, 1996, Thm 3.3E).
    """
    n = gens[0].n
    if not ActionGraph(gens).is_connected():
        return None
    elements = _product_replacement([g.table for g in gens], np.random.default_rng(seed))
    for step, g in zip(range(REPLACEMENT_WARMUP + 1, CERTIFICATE_STEPS + 1), elements):
        p = int(np.bincount(cycle_labels(g)[1]).max())
        if n / 2 < p <= n - 3 and _prime_factors(p) == [p]:
            return step, p
    return None


def group_order(gens, seed=0):
    """Exact order of the group generated by `gens` (list of Permutation).

    On n >= 8 points, the parity ceiling once `jordan_certificate` from
    `seed` proves it (no prime p has n/2 < p <= n - 3 below 8 points).
    Otherwise the Schreier closure of a stabilizer chain decides the order
    on at most 256 points, and past 256 a ValueError says it is undecided.
    Refuses point sets larger than ORDER_LIMIT.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise ValueError("generators act on different point counts")
    if n > ORDER_LIMIT:
        raise ValueError(f"point count {n} exceeds the group-order limit {ORDER_LIMIT}")

    odd = any(g.parity for g in gens)
    ceiling = math.factorial(n) // (1 if odd else 2)
    if n >= 8 and jordan_certificate(gens, seed) is not None:
        return ceiling
    if n > 256:
        raise ValueError(f"undecided: no Jordan certificate for the group "
                         f"on {n} points in {CERTIFICATE_STEPS} steps")
    chain = StabilizerChain(n)
    for g in gens:
        chain.add_element(_to_bytes(g.table))
    chain.schreier_closure(ceiling=ceiling)
    return chain.order()
