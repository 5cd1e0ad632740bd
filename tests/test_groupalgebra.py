from fractions import Fraction

import pytest

from gradedhecke.groupalgebra import TwistedGroupAlgebra
from gradedhecke.presets import PRESETS, build_preset
from gradedhecke.rootdata import RootSystem
from gradedhecke.weylgroups import Cocycle, ExtendedWeylGroup


def table_for(preset):
    H = build_preset(preset)
    return TwistedGroupAlgebra(H.group, H.cocycle)


@pytest.mark.parametrize("preset,dims", [
    ("A1", [1, 1]),
    ("A2", [1, 1, 2]),
    ("B2", [1, 1, 1, 1, 2]),
    ("G2", [1, 1, 1, 1, 2, 2]),
    ("A2flip", [1, 1, 1, 1, 2, 2]),
    ("A1xA1swap", [1, 1, 1, 1, 2]),
])
def test_block_dimensions(preset, dims):
    table = table_for(preset)
    assert sorted(b.dim for b in table.blocks) == dims
    assert all(b.field_degree == 1 for b in table.blocks)
    # sum of squares fills the group order
    assert sum(b.dim ** 2 for b in table.blocks) == table.n


def test_twisted_blocks_pair_up():
    table = table_for("A2flip-tw")
    assert sorted((b.dim, b.field_degree) for b in table.blocks) == \
        [(1, 2), (1, 2), (2, 2)]
    assert sum(b.field_degree * b.dim ** 2 for b in table.blocks) == 12


@pytest.mark.parametrize("preset", ["B2", "G2", "A2flip-tw", "A1xA1swap"])
def test_idempotents_orthogonal_and_complete(preset):
    table = table_for(preset)
    n = table.n
    total = [Fraction(0)] * n
    for b in table.blocks:
        total = [x + y for x, y in zip(total, b.idempotent)]
        square = table.product_vector(b.idempotent, b.idempotent)
        assert square == b.idempotent
    for i, a in enumerate(table.blocks):
        for bb in table.blocks[i + 1:]:
            prod = table.product_vector(a.idempotent, bb.idempotent)
            assert all(c == 0 for c in prod)
    unit = [Fraction(0)] * n
    unit[table.group.identity.index] = Fraction(1)
    assert total == unit


def test_character_labels():
    table = table_for("B2")
    labels = {b.label() for b in table.blocks}
    assert "triv" in labels and "sgn" in labels
    triv = next(b for b in table.blocks if b.label() == "triv")
    assert all(v == 1 for v in triv.character.values())


def test_regular_representation_multiplicities():
    table = table_for("A2")
    g = table.group
    # the left regular module: matrices of N_w acting on the algebra
    mats = {}
    for w in g.elements:
        m = [[Fraction(0)] * table.n for _ in range(table.n)]
        for v in g.elements:
            target = g.multiply(w, v)
            m[target.index][v.index] = Fraction(1)
        mats[w.index] = m
    mults = table.multiplicities(mats)
    assert [int(x) for x in mults] == [b.dim for b in table.blocks]


def test_cap_enforced():
    rs = RootSystem.from_specs([("F", 4)])
    g = ExtendedWeylGroup(rs)
    with pytest.raises(ValueError):
        TwistedGroupAlgebra(g, Cocycle(g))


# (label, field degree g, dim d, idempotent on the N_w basis) of every block, in
# block order, for each preset in r1 mode
PINNED_BLOCKS = {
    "A1": [
        ("sgn", 1, 1, "1/2 -1/2"),
        ("triv", 1, 1, "1/2 1/2"),
    ],
    "A2": [
        ("sgn", 1, 1, "1/6 -1/6 -1/6 1/6 1/6 -1/6"),
        ("triv", 1, 1, "1/6 1/6 1/6 1/6 1/6 1/6"),
        ("chi2[d=2]", 1, 2, "2/3 0 0 -1/3 -1/3 0"),
    ],
    "B2": [
        ("sgn", 1, 1, "1/8 -1/8 -1/8 1/8 1/8 -1/8 -1/8 1/8"),
        ("chi1[d=1]", 1, 1, "1/8 -1/8 1/8 -1/8 -1/8 1/8 -1/8 1/8"),
        ("chi2[d=1]", 1, 1, "1/8 1/8 -1/8 -1/8 -1/8 -1/8 1/8 1/8"),
        ("triv", 1, 1, "1/8 1/8 1/8 1/8 1/8 1/8 1/8 1/8"),
        ("chi4[d=2]", 1, 2, "1/2 0 0 0 0 0 0 -1/2"),
    ],
    "G2": [
        ("sgn", 1, 1, "1/12 -1/12 -1/12 1/12 1/12 -1/12 -1/12 1/12 1/12 -1/12 -1/12 1/12"),
        ("chi1[d=1]", 1, 1, "1/12 -1/12 1/12 -1/12 -1/12 1/12 -1/12 1/12 1/12 -1/12 1/12 -1/12"),
        ("chi2[d=1]", 1, 1, "1/12 1/12 -1/12 -1/12 -1/12 -1/12 1/12 1/12 1/12 1/12 -1/12 -1/12"),
        ("triv", 1, 1, "1/12 1/12 1/12 1/12 1/12 1/12 1/12 1/12 1/12 1/12 1/12 1/12"),
        ("chi4[d=2]", 1, 2, "1/3 0 0 -1/6 -1/6 0 0 -1/6 -1/6 0 0 1/3"),
        ("chi5[d=2]", 1, 2, "1/3 0 0 1/6 1/6 0 0 -1/6 -1/6 0 0 -1/3"),
    ],
    "A1xA1": [
        ("sgn", 1, 1, "1/4 -1/4 -1/4 1/4"),
        ("chi1[d=1]", 1, 1, "1/4 -1/4 1/4 -1/4"),
        ("chi2[d=1]", 1, 1, "1/4 1/4 -1/4 -1/4"),
        ("triv", 1, 1, "1/4 1/4 1/4 1/4"),
    ],
    "A2flip": [
        ("chi0[d=1]", 1, 1, "1/12 -1/12 -1/12 1/12 -1/12 1/12 1/12 -1/12 1/12 -1/12 -1/12 1/12"),
        ("chi1[d=1]", 1, 1, "1/12 -1/12 1/12 -1/12 1/12 -1/12 1/12 -1/12 1/12 -1/12 1/12 -1/12"),
        ("sgn", 1, 1, "1/12 1/12 -1/12 -1/12 -1/12 -1/12 1/12 1/12 1/12 1/12 -1/12 -1/12"),
        ("triv", 1, 1, "1/12 1/12 1/12 1/12 1/12 1/12 1/12 1/12 1/12 1/12 1/12 1/12"),
        ("chi4[d=2]", 1, 2, "1/3 0 0 -1/6 0 -1/6 -1/6 0 -1/6 0 0 1/3"),
        ("chi5[d=2]", 1, 2, "1/3 0 0 1/6 0 1/6 -1/6 0 -1/6 0 0 -1/3"),
    ],
    "A2flip-tw": [
        ("chi0[d=1](x2)", 2, 1, "1/6 0 -1/6 0 -1/6 0 1/6 0 1/6 0 -1/6 0"),
        ("chi1[d=1](x2)", 2, 1, "1/6 0 1/6 0 1/6 0 1/6 0 1/6 0 1/6 0"),
        ("chi2[d=2](x2)", 2, 2, "2/3 0 0 0 0 0 -1/3 0 -1/3 0 0 0"),
    ],
    "A1xA1swap": [
        ("chi0[d=1]", 1, 1, "1/8 -1/8 -1/8 1/8 -1/8 1/8 1/8 -1/8"),
        ("chi1[d=1]", 1, 1, "1/8 -1/8 1/8 -1/8 1/8 -1/8 1/8 -1/8"),
        ("sgn", 1, 1, "1/8 1/8 -1/8 -1/8 -1/8 -1/8 1/8 1/8"),
        ("triv", 1, 1, "1/8 1/8 1/8 1/8 1/8 1/8 1/8 1/8"),
        ("chi4[d=2]", 1, 2, "1/2 0 0 0 0 0 -1/2 0"),
    ],
}


@pytest.mark.parametrize("preset", sorted(PINNED_BLOCKS))
def test_blocks_match_the_pinned_decomposition(preset):
    H = build_preset(preset, mode="r1")
    table = TwistedGroupAlgebra(H.group, H.cocycle)
    got = [(b.label(), b.field_degree, b.dim, " ".join(str(c) for c in b.idempotent))
           for b in table.blocks]
    assert got == PINNED_BLOCKS[preset]


def _character_oracle(table, block):
    """chi(w) = n * (N_1 coefficient of N_w e) / d, from the full product N_w e."""
    chi = {}
    for w in table.group.elements:
        basis = [Fraction(0)] * table.n
        basis[w.index] = Fraction(1)
        prod = table.product_vector(basis, block.idempotent)
        chi[w.index] = table.n * prod[table.group.identity.index] / block.dim
    return chi


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_characters_match_the_product_oracle(preset):
    table = table_for(preset)
    for b in table.blocks:
        if b.field_degree == 1:
            assert b.character == _character_oracle(table, b)
        else:
            assert b.character == {}
