from fractions import Fraction

import pytest

from siegel3 import fegroup as fg
from siegel3.errors import Diverged


def test_generator_formulas():
    g = fg.generators()
    pt = (Fraction(2), Fraction(3), Fraction(5))
    img = g["w"](pt)
    assert [str(x) for x in img] == ["3", "2", "-10+k"]
    img = g["a"](pt)
    assert [str(x) for x in img] == ["9/2", "-2", "15/2"]
    img = g["aba"](pt)
    assert [str(x) for x in img] == ["-2", "-1", "9"]
    img = g["b"](pt)
    assert [str(x) for x in img] == ["-1", "9/2", "5"]


def test_generators_are_involutions():
    g = fg.generators()
    idm = fg.identity_map()
    for m in g.values():
        assert m.compose(m).same_action(idm)


def test_compose_conventions():
    g = fg.generators()
    idm = fg.identity_map()
    assert idm.compose(g["a"]).same_action(g["a"])
    # aw means: apply w first, then a
    aw = g["a"].compose(g["w"])
    img = aw((Fraction(2), Fraction(3), Fraction(5)))
    assert [str(x) for x in img] == ["9/2", "-1", "-17/2+k"]
    # b = a aba a
    assert g["a"].compose(g["aba"].compose(g["a"])).same_action(g["b"])
    assert g["a"].compose(g["b"].compose(g["a"])).same_action(g["aba"])


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
    assert r.same_action(aw) and f.same_action(g["b"])


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
    shift = fg.AffineMap(
        fg.identity_map().matrix,
        (fg.Qk(Fraction(1)), fg.Qk(), fg.Qk()),
        "t",
    )
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
