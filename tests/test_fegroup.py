from fractions import Fraction

import pytest

from siegel3 import fegroup as fg
from siegel3.errors import Diverged

H = Fraction(1, 2)
# the generators as the functional equations state them, in (s, w, u, k)
FORMULAS = {
    "w": lambda s, w, u, k: (w, s, -s - w - u + k),
    "a": lambda s, w, u, k: (s + w - H, 1 - w, w + u - H),
    "aba": lambda s, w, u, k: (1 - w, 1 - s, s + w + u - 1),
    "b": lambda s, w, u, k: (1 - s, s + w - H, u),
}
PT = (Fraction(2), Fraction(3), Fraction(5))


def image(m, point):
    """Each coordinate of m(point) as (constant, k-coefficient)."""
    return [(sum(r[j] * point[j] for j in range(3)) + r[3], r[4]) for r in m.block]


def test_generator_formulas():
    g = fg.generators()
    assert image(g["w"], PT) == [(3, 0), (2, 0), (-10, 1)]
    assert image(g["a"], PT) == [(Fraction(9, 2), 0), (-2, 0), (Fraction(15, 2), 0)]
    assert image(g["aba"], PT) == [(-2, 0), (-1, 0), (9, 0)]
    assert image(g["b"], PT) == [(-1, 0), (Fraction(9, 2), 0), (5, 0)]


def test_generators_are_involutions():
    g = fg.generators()
    idm = fg.identity_map()
    for name, m in g.items():
        square = m.compose(m)
        # the label is the generation word and takes no part in equality
        assert square == idm and hash(square) == hash(idm) and square.label == name * 2


def test_compose_conventions():
    g = fg.generators()
    idm = fg.identity_map()
    assert idm.compose(g["a"]) == g["a"]
    # aw means: apply w first, then a
    aw = g["a"].compose(g["w"])
    assert image(aw, PT) == [(Fraction(9, 2), 0), (-1, 0), (Fraction(-17, 2), 1)]
    # b = a aba a
    assert g["a"].compose(g["aba"].compose(g["a"])) == g["b"]
    assert g["a"].compose(g["b"].compose(g["a"])) == g["aba"]


def test_random_words_match_the_formulas(rng):
    g = fg.generators()
    names = list(g)

    def rational():
        return Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 13)))

    for _ in range(60):
        word = [names[int(i)] for i in rng.integers(0, 4, size=int(rng.integers(0, 9)))]
        point, k = (rational(), rational(), rational()), rational()
        cur, expected = fg.identity_map(), point
        for name in word:
            cur, expected = g[name].compose(cur), FORMULAS[name](*expected, k)
        assert [c + kc * k for c, kc in image(cur, point)] == list(expected)
        assert cur.label == "".join(reversed(word))


def test_closure_is_dihedral_of_order_twelve():
    g = fg.generators()
    table = fg.closure([g["w"], g["a"], g["aba"]])
    assert len(table.elements) == 12
    # every row and column of the Cayley table is a permutation
    n = len(table.elements)
    for i in range(n):
        assert sorted(table.table[i]) == list(range(n))
        assert sorted(table.table[j][i] for j in range(n)) == list(range(n))
    aw = g["a"].compose(g["w"])
    awi = table.index_of(aw)
    assert table.order_of(awi) == 6
    bi = table.index_of(g["b"])
    assert bi is not None
    assert table.table[table.table[bi][awi]][bi] == table.inverse_of(awi)
    ok, witness = fg.certify_dihedral(table)
    assert ok
    r, f = witness
    assert r == aw and f == g["b"]


def test_presentation_relations():
    g = fg.generators()
    table = fg.closure([g["w"], g["a"], g["aba"]])
    aw = g["a"].compose(g["w"])
    r = table.index_of(aw)
    f = table.index_of(g["b"])
    # r^6 = f^2 = (f r)^2 = identity
    cur = 0
    for _ in range(6):
        cur = table.table[cur][r]
    assert cur == 0
    assert table.table[f][f] == 0
    fr = table.table[f][r]
    assert table.table[fr][fr] == 0


def test_single_generator_closure_is_not_dihedral():
    g = fg.generators()
    table = fg.closure([g["w"]])
    assert len(table.elements) == 2
    ok, witness = fg.certify_dihedral(table)
    assert not ok and witness is None


def test_two_generator_closure_contains_order_six_element():
    g = fg.generators()
    table = fg.closure([g["a"], g["w"]])
    aw = g["a"].compose(g["w"])
    assert table.order_of(table.index_of(aw)) == 6


def test_closure_diverges_on_non_involutive_generator():
    shift = fg.AffineMap(tuple(tuple(Fraction(x) for x in row) for row in
                               ((1, 0, 0, 1, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))), "t")
    with pytest.raises(Diverged):
        fg.closure([shift])


def test_random_words_stay_in_closure(rng):
    g = fg.generators()
    table = fg.closure([g["w"], g["a"], g["aba"], g["b"]])
    assert len(table.elements) == 12
    names = list(g)
    cur = fg.identity_map()
    for _ in range(20):
        cur = g[names[int(rng.integers(0, 4))]].compose(cur)
        assert table.index_of(cur) is not None


@pytest.mark.slow
def test_w_map_consistency_of_truncated_kernel_sums():
    """Cross-module: the first symmetry map against the truncated kernel.

    Both sides converge only in a thin overlap region (weight 40, spectral
    point near (3.1, 3.1, 17)); at desk-scale truncation each side still
    carries an O(1) uncertainty, measured here from the level-to-level
    delta, so the assertion is agreement within the combined uncertainty
    plus an improving trend.
    """
    import cmath

    import numpy as np

    from siegel3 import eisenstein as eis, symplectic as sp

    z = np.array([[0.2, 0.1, 0.0], [0.1, -0.1, 0.05], [0.0, 0.05, 0.3]]) + 1.1j * np.eye(3)
    k = 40
    swu = (3.1, 3.1, 17.0)
    image = (swu[1], swu[0], -swu[0] - swu[1] - swu[2] + k)
    spec = eis.TruncationSpec(14.0, 14.0)
    phase = cmath.exp(1j * cmath.pi * (swu[0] + 2 * swu[1] + 3 * swu[2]))
    diffs = []
    sides = []
    for det_bound in ("2", "4"):
        a = sp.kernel_trunc(k, swu, z, det_bound, spec, 1)["value"]
        b = sp.kernel_trunc(k, image, z, det_bound, spec, 1)["value"]
        assert not sp.kernel_trunc(k, swu, z, "1", spec, 1)["warnings"]
        diffs.append(abs(phase * a - b))
        sides.append((phase * a, b))
    # uncertainty of each side ~ its own change across the truncation levels
    unc = abs(sides[1][0] - sides[0][0]) + abs(sides[1][1] - sides[0][1])
    assert diffs[1] <= unc
    assert diffs[1] / abs(sides[1][1]) < diffs[0] / abs(sides[0][1])
