from fractions import Fraction

import pytest

from gradedhecke.rootdata import CartanSpec, RootSystem, cartan_matrix


def brute_force_root_count(kind, rank):
    """Independent count: closure of the simple roots under all reflections."""
    rs = RootSystem.from_specs([(kind, rank)])
    roots = set()
    frontier = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots.update(frontier)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(rank):
                c = sum(beta[j] * rs.cartan[i][j] for j in range(rank))
                img = list(beta)
                img[i] -= c
                img = tuple(img)
                if img not in roots:
                    roots.add(img)
                    new.append(img)
        frontier = new
    return len(roots)


def test_a1():
    rs = RootSystem.from_specs([("A", 1)])
    assert rs.dim == 1
    assert sorted(rs.roots) == [(-1,), (1,)]


def test_g2_count_and_lengths():
    rs = RootSystem.from_specs([("G", 2)])
    assert len(rs.roots) == brute_force_root_count("G", 2) == 12
    lengths = {rs.root_length_sq(b) for b in rs.roots}
    assert len(lengths) == 2


@pytest.mark.parametrize("kind,rank,count", [
    ("A", 2, 6), ("B", 2, 8), ("C", 3, 18), ("D", 4, 24), ("F", 4, 48)])
def test_standard_counts(kind, rank, count):
    rs = RootSystem.from_specs([(kind, rank)])
    assert len(rs.roots) == count == brute_force_root_count(kind, rank)


def test_composite_with_center():
    rs = RootSystem.from_specs([("A", 1), ("A", 1)], central_dim=1)
    assert rs.dim == 3
    assert rs.central_dim == 1
    assert len(rs.roots) == 4


def test_root_system_axioms():
    for spec in ([("B", 2)], [("G", 2)], [("A", 2), ("A", 1)]):
        rs = RootSystem.from_specs(spec)
        roots = set(rs.roots)
        for i in range(rs.rank):
            assert all(rs.reflect_root(i, b) in roots for b in roots)
        # base property: roots are all-nonnegative or all-nonpositive combinations
        for b in roots:
            assert all(c >= 0 for c in b) or all(c <= 0 for c in b)


def test_pairings_are_integral():
    rs = RootSystem.from_specs([("G", 2)])
    for b in rs.roots:
        for a in rs.roots:
            assert rs.pairing_root(b, a).denominator == 1


def test_cone_membership():
    a1 = RootSystem.from_specs([("A", 1)])
    closed, interior = a1.in_obtuse_negative_cone((Fraction(0),))
    assert closed and not interior
    closed, interior = a1.in_obtuse_negative_cone((Fraction(-2),))
    assert closed and interior

    a2 = RootSystem.from_specs([("A", 2)])
    # fundamental coweight direction: alpha_1 = 1, alpha_2 = 0 values
    closed, _ = a2.in_obtuse_negative_cone((Fraction(1), Fraction(0)))
    assert not closed
    # negative of the first simple coroot: coordinates <alpha_j, alpha_1^vee>
    coroot = a2.coroot_point((1, 0))
    neg = tuple(-c for c in coroot)
    closed, interior = a2.in_obtuse_negative_cone(neg)
    assert closed and not interior  # on a wall: only one strictly negative coeff
    both_neg = tuple(-c - d for c, d in zip(coroot, a2.coroot_point((0, 1))))
    closed, interior = a2.in_obtuse_negative_cone(both_neg)
    assert closed and interior


def test_cone_with_central_part():
    rs = RootSystem.from_specs([("A", 1)], central_dim=1)
    pos = rs.cone_position((Fraction(-2), Fraction(1)))
    assert not pos.in_closed_cone          # central part nonzero
    assert pos.strictly_negative_part      # root part strictly inside


def test_from_root_vectors_b2():
    vecs = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)]
    system, coords = RootSystem.from_root_vectors(vecs)
    assert len(system.roots) == 8
    assert set(coords.values()) == set(tuple(map(Fraction, v)) for v in vecs)
    lengths = {system.root_length_sq(b) for b in system.roots}
    assert len(lengths) == 2


def test_from_root_vectors_rejects_asymmetric():
    with pytest.raises(ValueError):
        RootSystem.from_root_vectors([(1, 0), (0, 1)])


def test_unsupported_type():
    with pytest.raises(ValueError):
        cartan_matrix("E", 8)


@pytest.mark.parametrize("ranks", [[1], [2, 1], [1, 1, 1]])
def test_component_ranks_must_sum_to_rank(ranks):
    with pytest.raises(ValueError, match="component ranks"):
        RootSystem(cartan_matrix("B", 2), components=[CartanSpec("B", r) for r in ranks])
