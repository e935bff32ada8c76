"""Exact affine symmetry maps of the three spectral variables.

Each map acts on (s, w, u) as x -> M x + a + b k with M rational, a rational
translation and b the coefficients of the symbolic weight k.  It is stored as
the exact 3x5 block [M | a | b], the top of the homogeneous matrix acting
linearly on (s, w, u, 1, k), so composition is a block product and equal maps
have equal blocks.  The four generators are involutions; their closure is
the dihedral group of order twelve, certified by exhibiting an order-6
rotation and a reflecting involution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import Diverged

CLOSURE_CAP = 256


@dataclass(frozen=True)
class AffineMap:
    """The block [M | a | b] of x -> M x + a + b k; the label (a generation
    word) takes no part in equality or hashing."""

    block: tuple  # 3 rows of 5 rationals
    label: str = field(default="", compare=False)

    def compose(self, other):
        """self after other: [M1 M2 | M1 a2 + a1 | M1 b2 + b1]."""
        block = tuple(
            tuple(sum((r[t] * other.block[t][j] for t in range(3) if r[t]), r[j] if j > 2 else 0)
                  for j in range(5))
            for r in self.block
        )
        return AffineMap(block, self.label + other.label)


def _map(label, *rows):
    return AffineMap(tuple(tuple(Fraction(x) for x in row) for row in rows), label)


def identity_map():
    return _map("", (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))


def generators():
    """The four involutive generators, exactly as the functional equations act.

    w : (s,w,u) -> (w, s, -s-w-u+k)
    a : (s,w,u) -> (s+w-1/2, 1-w, w+u-1/2)
    aba : (s,w,u) -> (1-w, 1-s, s+w+u-1)
    b : (s,w,u) -> (1-s, s+w-1/2, u)
    """
    h = Fraction(1, 2)
    return {
        "w": _map("w", (0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (-1, -1, -1, 0, 1)),
        "a": _map("a", (1, 1, 0, -h, 0), (0, -1, 0, 1, 0), (0, 1, 1, -h, 0)),
        "aba": _map("aba", (0, -1, 0, 1, 0), (-1, 0, 0, 1, 0), (1, 1, 1, -1, 0)),
        "b": _map("b", (-1, 0, 0, 1, 0), (1, 1, 0, -h, 0), (0, 0, 1, 0, 0)),
    }


@dataclass
class GroupTable:
    elements: list  # AffineMap, index 0 is the identity
    table: list  # table[i][j] = index of elements[i] o elements[j]

    def order_of(self, idx):
        n = 1
        cur = idx
        while cur != 0:
            cur = self.table[cur][idx]
            n += 1
            if n > len(self.elements):
                raise AssertionError("not a group table")
        return n

    def index_of(self, m):
        return self.elements.index(m) if m in self.elements else None

    def inverse_of(self, idx):
        return self.table[idx].index(0)


def closure(gens):
    """BFS closure of the generators under composition, with Cayley table."""
    group = GroupTable(elements=[identity_map()], table=[])
    elements, frontier, gen_list = group.elements, [identity_map()], list(gens)
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in gen_list:
                cand = g.compose(e)
                if cand not in elements:
                    # keep the shortest generation word as the label
                    elements.append(cand)
                    new_frontier.append(cand)
                    if len(elements) > CLOSURE_CAP:
                        raise Diverged("closure exceeded cap %d" % CLOSURE_CAP)
        frontier = new_frontier
    group.table = [[group.index_of(x.compose(y)) for y in elements] for x in elements]
    if any(None in row for row in group.table):
        raise AssertionError("closure is not closed")
    return group


def certify_dihedral(table: GroupTable):
    """True iff |G| = 12 with r of order 6 and involution f, f r f = r^(-1).

    Returns (ok, witness) where witness is (r, f) as AffineMaps; the
    generators' composite aw and the map b are preferred witnesses.
    """
    n = len(table.elements)
    if n != 12:
        return False, None
    gens = generators()
    preferred_r = table.index_of(gens["a"].compose(gens["w"]))
    preferred_f = table.index_of(gens["b"])
    candidates_r = [preferred_r] if preferred_r is not None else []
    candidates_r += [i for i in range(n) if i != preferred_r]
    for ri in candidates_r:
        if ri is None or table.order_of(ri) != 6:
            continue
        r_inv = table.inverse_of(ri)
        candidates_f = [preferred_f] if preferred_f is not None else []
        candidates_f += [i for i in range(n) if i != preferred_f]
        for fi in candidates_f:
            if fi is None or fi == 0 or table.order_of(fi) != 2:
                continue
            if table.table[table.table[fi][ri]][fi] == r_inv:
                return True, (table.elements[ri], table.elements[fi])
    return False, None
