"""Exact affine symmetry maps of the three spectral variables.

Each map acts on (s, w, u) as x -> M x + t where M is rational and the
translation entries live in Q + Q k with a symbolic weight k.  The four
generators are involutions; their closure is the dihedral group of order
twelve, certified by exhibiting an order-6 rotation and a reflecting
involution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import Diverged

CLOSURE_CAP = 256


@dataclass(frozen=True)
class Qk:
    """Element a + b*k of the coefficient ring Q + Q k (k symbolic)."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __add__(self, other):
        if isinstance(other, Qk):
            return Qk(self.a + other.a, self.b + other.b)
        return Qk(self.a + Fraction(other), self.b)

    __radd__ = __add__

    def scale(self, c):
        c = Fraction(c)
        return Qk(c * self.a, c * self.b)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        bpart = "k" if self.b == 1 else ("-k" if self.b == -1 else "%sk" % self.b)
        if self.a == 0:
            return bpart
        sign = "+" if self.b > 0 and not bpart.startswith("-") else ""
        return "%s%s%s" % (self.a, sign, bpart)


def _qk(a=0, b=0):
    return Qk(Fraction(a), Fraction(b))


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + shift with exact coefficients; hashable for dedup."""

    matrix: tuple  # 3x3 of Fraction
    shift: tuple  # 3 of Qk
    label: str = ""

    def __call__(self, point):
        """Apply to a point of Fractions or Qk entries."""
        p = [x if isinstance(x, Qk) else _qk(x) for x in point]
        return tuple(sum((p[j].scale(self.matrix[i][j]) for j in range(3)), self.shift[i])
                     for i in range(3))

    def compose(self, other):
        """self after other: x -> self(other(x))."""
        m = tuple(
            tuple(
                sum((self.matrix[i][t] * other.matrix[t][j] for t in range(3)), Fraction(0))
                for j in range(3)
            )
            for i in range(3)
        )
        return AffineMap(m, self(other.shift), self.label + other.label)

    def same_action(self, other):
        return self.matrix == other.matrix and self.shift == other.shift


def _mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity_map():
    return AffineMap(_mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), (_qk(), _qk(), _qk()), "")


def generators():
    """The four involutive generators, exactly as the functional equations act.

    w : (s,w,u) -> (w, s, -s-w-u+k)
    a : (s,w,u) -> (s+w-1/2, 1-w, w+u-1/2)
    aba : (s,w,u) -> (1-w, 1-s, s+w+u-1)
    b : (s,w,u) -> (1-s, s+w-1/2, u)
    """
    g = {}
    g["w"] = AffineMap(
        _mat([[0, 1, 0], [1, 0, 0], [-1, -1, -1]]),
        (_qk(), _qk(), _qk(0, 1)),
        "w",
    )
    g["a"] = AffineMap(
        _mat([[1, 1, 0], [0, -1, 0], [0, 1, 1]]),
        (_qk(Fraction(-1, 2)), _qk(1), _qk(Fraction(-1, 2))),
        "a",
    )
    g["aba"] = AffineMap(
        _mat([[0, -1, 0], [-1, 0, 0], [1, 1, 1]]),
        (_qk(1), _qk(1), _qk(-1)),
        "aba",
    )
    g["b"] = AffineMap(
        _mat([[-1, 0, 0], [1, 1, 0], [0, 0, 1]]),
        (_qk(1), _qk(Fraction(-1, 2)), _qk()),
        "b",
    )
    return g


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
        for i, e in enumerate(self.elements):
            if e.same_action(m):
                return i
        return None

    def inverse_of(self, idx):
        for j in range(len(self.elements)):
            if self.table[idx][j] == 0:
                return j
        raise AssertionError("no inverse found")


def closure(gens):
    """BFS closure of the generators under composition, with Cayley table."""
    group = GroupTable(elements=[identity_map()], table=[])
    elements, frontier, gen_list = group.elements, [identity_map()], list(gens)
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in gen_list:
                cand = g.compose(e)
                if group.index_of(cand) is None:
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
