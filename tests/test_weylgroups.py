import functools
from fractions import Fraction

import pytest

from gradedhecke.presets import PRESETS, build_preset
from gradedhecke.rootdata import RootSystem
from gradedhecke.scalars import Cyc
from gradedhecke.weylgroups import Cocycle, ExtendedWeylGroup, ParameterFunction, \
    centralizer_components


def group(spec, gamma=(), central=0):
    return ExtendedWeylGroup(RootSystem.from_specs(spec, central_dim=central),
                             gamma_generators=gamma)


def test_enumeration_sizes():
    assert len(group([("A", 1)])) == 2
    assert len(group([("A", 2)])) == 6
    assert len(group([("A", 2)], gamma=[(1, 0)])) == 12   # 6 * 2
    assert len(group([("B", 2)])) == 8
    assert len(group([("G", 2)])) == 12
    assert len(group([("F", 4)])) == 1152


def test_enumeration_cap():
    rs = RootSystem.from_specs([("F", 4), ("F", 4)])
    with pytest.raises(ValueError, match="cap"):
        ExtendedWeylGroup(rs)


def test_reduced_words_multiply_to_element():
    g = group([("B", 2)])
    for w in g.elements:
        assert g.word_element(w.word, w.gamma).key == w.key
        # words are reduced: no shorter word reaches the same element
        assert all(v.length >= w.length for v in g.elements if v.key == w.key)


def test_gamma_must_preserve_cartan():
    with pytest.raises(ValueError):
        group([("B", 2)], gamma=[(1, 0)])  # B2 ends have different lengths


def test_epsilon_characters():
    assert {e.label() for e in group([("A", 1)]).epsilon_characters()} == \
        {"triv", "sgn"}
    b2 = group([("B", 2)]).epsilon_characters()
    assert len(b2) == 4  # 1, eps_short, eps_long, sgn
    flips = sorted(e.signs for e in b2)
    assert flips == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    # the diagram flip identifies the two simple reflections: only 1 and sgn
    a2f = group([("A", 2)], gamma=[(1, 0)]).epsilon_characters()
    assert {e.label() for e in a2f} == {"triv", "sgn"}
    g2 = group([("G", 2)]).epsilon_characters()
    assert len(g2) == 4


def _key_product(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_table_agrees_with_matrices(name):
    g = build_preset(name).group
    assert g.identity is g.elements[0] and g.identity.is_identity()
    for u in g.elements:
        assert g.word_element(u.word, u.gamma) is u
        assert g.multiply(u, g.inverse(u)) is g.identity
        for v in g.elements:
            assert g.multiply(u, v).key == _key_product(u.key, v.key)


def _is_character(g, eps):
    return all(eps(g.multiply(u, v)) == eps(u) * eps(v)
               for u in g.elements for v in g.elements)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_epsilon_characters_are_multiplicative(name):
    g = build_preset(name).group
    chars = g.epsilon_characters()
    assert len(chars) == 2 ** len(g.simple_root_orbits())
    assert all(_is_character(g, eps) for eps in chars)


def test_epsilon_conjugation_invariant():
    g = group([("B", 2)])
    for eps in g.epsilon_characters():
        for w in g.elements:
            winv = g.inverse(w)
            for i in range(2):
                conj = g.multiply(g.multiply(w, g.simple(i)), winv)
                assert eps(conj) == eps(g.simple(i))


def test_reflection_conjugation_rule():
    g = group([("G", 2)])
    for w in g.elements[:8]:
        for beta in g.rs.roots:
            img = g.act_root(w, beta)
            lhs = g.reflection(img)
            rhs = g.multiply(g.multiply(w, g.reflection(beta)), g.inverse(w))
            assert lhs.key == rhs.key


# --- the root table -------------------------------------------------------------

ROOT_TABLE_SYSTEMS = sorted(PRESETS) + ["F4", "D4xS3", "C3+1"]


@functools.lru_cache(maxsize=None)
def _root_table_group(name):
    if name in PRESETS:
        return build_preset(name).group
    return {"F4": lambda: group([("F", 4)]),
            "D4xS3": lambda: group([("D", 4)], gamma=[(2, 1, 0, 3), (3, 1, 2, 0)]),
            "C3+1": lambda: group([("C", 3)], central=1),
            "rank0+2": lambda: group([], central=2)}[name]()


def _reflection_matrix_oracle(rs, beta):
    """Action matrix of s_beta: alpha_j -> alpha_j - <alpha_j, beta^vee> beta."""
    n = rs.dim
    m = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    for j in range(rs.rank):
        c = rs.pairing_root(rs._simple(j), beta)
        for i in range(rs.rank):
            m[i][j] -= c * beta[i]
    assert all(x.denominator == 1 for row in m for x in row)
    return tuple(tuple(int(x) for x in row) for row in m)


def _key_times_root(key, beta):
    return tuple(sum(row[j] * beta[j] for j in range(len(beta)))
                 for row in key[:len(beta)])


def _reflection_classes_oracle(g):
    """Simple-root indices joined when g s_i g^-1 = s_j, by union-find."""
    rank = g.rs.rank
    positions = {g.simple(i).index: i for i in range(rank)}
    parent = list(range(rank))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for u in g.elements:
        for i in range(rank):
            conj = g.multiply(g.multiply(u, g.simple(i)), g.inverse(u))
            j = positions.get(conj.index)
            if j is not None:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    classes = {}
    for i in range(rank):
        classes.setdefault(find(i), []).append(i)
    return [classes[r] for r in sorted(classes)]


def _root_orbit_oracle(g, beta):
    """Closure of {beta} under the simple reflections and the Gamma elements."""
    seen = {beta}
    frontier = [beta]
    while frontier:
        new = []
        for b in frontier:
            images = [g.rs.reflect_root(i, b) for i in range(g.rs.rank)]
            images += [_key_times_root(g.gamma_element(gi).key, b)
                       for gi in range(len(g.gamma_elements))]
            for img in images:
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return sorted(seen)


@pytest.mark.parametrize("name", ROOT_TABLE_SYSTEMS)
def test_reflection_matches_the_reflection_matrix(name):
    g = _root_table_group(name)
    for beta in g.rs.roots:
        assert g.reflection(beta).key == _reflection_matrix_oracle(g.rs, beta)


@pytest.mark.parametrize("name", ROOT_TABLE_SYSTEMS)
def test_act_root_matches_the_key_matrix(name):
    g = _root_table_group(name)
    for u in g.elements:
        for beta in g.rs.roots:
            assert g.act_root(u, beta) == _key_times_root(u.key, beta)


@pytest.mark.parametrize("name", ROOT_TABLE_SYSTEMS)
def test_simple_root_orbits_are_the_reflection_classes(name):
    g = _root_table_group(name)
    assert g.simple_root_orbits() == _reflection_classes_oracle(g)


@pytest.mark.parametrize("name", ROOT_TABLE_SYSTEMS)
def test_root_orbit_matches_the_closure(name):
    g = _root_table_group(name)
    for beta in g.rs.roots:
        assert g.root_orbit(beta) == _root_orbit_oracle(g, beta)


# --- the matrix BFS oracle -------------------------------------------------------

GROUP_ORACLE_SYSTEMS = ROOT_TABLE_SYSTEMS + ["rank0+2"]


def _gamma_matrix(g, gi):
    """Permutation action on a^vee: alpha_i -> alpha_{perm(i)}, centre fixed."""
    perm, n = g.gamma_elements[gi], g.rs.dim
    m = [[int(a == b and a >= len(perm)) for b in range(n)] for a in range(n)]
    for i, p in enumerate(perm):
        m[p][i] = 1
    return tuple(map(tuple, m))


def _matrix_bfs_oracle(g):
    """(key, word, gamma, index) of each element, `_times`, the inverse indices,
    `_root_perm` and `_reflections` (root -> index), all from integer matrices."""
    rs = g.rs
    rank = rs.rank
    refl = [_reflection_matrix_oracle(rs, rs._simple(i)) for i in range(rank)]
    gammas = [_gamma_matrix(g, gi) for gi in range(len(g.gamma_elements))]
    ident = gammas[0]  # Gamma element 0 is the identity
    w_words = {ident: ()}
    frontier = [ident]
    while frontier:
        new = []
        for mat in frontier:
            for i in range(rank):
                prod = _key_product(mat, refl[i])
                if prod not in w_words:
                    w_words[prod] = w_words[mat] + (i,)
                    new.append(prod)
        frontier = new
    items = sorted((len(word), word, gi, _key_product(key, gmat))
                   for key, word in w_words.items() for gi, gmat in enumerate(gammas))
    elements = [(key, word, gi, pos) for pos, (_, word, gi, key) in enumerate(items)]
    by_key = {key: pos for key, _, _, pos in elements}
    assert len(by_key) == len(elements)
    times = [[by_key[_key_product(key, m)] for m in refl + gammas] for key, *_ in elements]
    # (w gamma)^-1 = gamma^-1 w^-1, and w^-1 is the reversed word
    inverses = []
    for _, word, gi, _ in elements:
        perm = g.gamma_elements[gi]
        inv = gammas[g.gamma_elements.index(tuple(perm.index(j) for j in range(rank)))]
        for i in reversed(word):
            inv = _key_product(inv, refl[i])
        inverses.append(by_key[inv])
    root_perm = [tuple(rs.root_index[_key_times_root(key, b)] for b in rs.roots)
                 for key, *_ in elements]
    reflections = {}
    for key, _, _, pos in elements:
        for i in range(rank):
            beta = _key_times_root(key, rs._simple(i))
            if beta not in reflections:
                conj = _key_product(_key_product(key, refl[i]), elements[inverses[pos]][0])
                reflections[beta] = by_key[conj]
    return elements, times, inverses, root_perm, reflections


@pytest.mark.parametrize("name", GROUP_ORACLE_SYSTEMS)
def test_group_tables_match_the_matrix_bfs(name):
    g = _root_table_group(name)
    elements, times, inverses, root_perm, reflections = _matrix_bfs_oracle(g)
    assert [(u.key, u.word, u.gamma, u.index) for u in g.elements] == elements
    assert g._times == times
    assert [u.index for u in g._inverses] == inverses
    assert g._root_perm == root_perm
    assert [(b, u.index) for b, u in g._reflections.items()] == list(reflections.items())


@pytest.mark.parametrize("name", GROUP_ORACLE_SYSTEMS)
def test_faithful_action_keys_unique(name):
    g = _root_table_group(name)
    assert len({w.key for w in g.elements}) == len(g)
    assert all(g.from_key(w.key) is w for w in g.elements)


# --- cocycles ----------------------------------------------------------------

def test_trivial_cocycle_valid():
    g = group([("A", 2)], gamma=[(1, 0)])
    assert Cocycle(g).validate() is None


def test_order_two_nontrivial_cocycle():
    g = group([("A", 2)], gamma=[(1, 0)])
    table = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    nat = Cocycle(g, table)
    # direct check of all eight triples, independent of the validator
    mult = [[0, 1], [1, 0]]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                lhs = table[a][b] * table[mult[a][b]][c]
                rhs = table[b][c] * table[a][mult[b][c]]
                assert lhs == rhs
    assert nat.validate() is None
    assert not nat.is_trivial()


def test_normalization_shift():
    g = group([("A", 2)], gamma=[(1, 0)])
    table = [[Fraction(3), Fraction(3)], [Fraction(3), Fraction(-3)]]
    nat = Cocycle(g, table)  # normalized at construction
    assert nat.table[0][0] == 1
    assert nat.validate() is None


@pytest.mark.parametrize("bad", [-1.0, True, 1j])
@pytest.mark.parametrize("normalize", [True, False])
def test_cocycle_rejects_an_inexact_value_at_construction(bad, normalize):
    """-1.0 used to fail only at a product ("not a scalar: -1.0"), and True to
    make the cocycle trivial."""
    g = group([("A", 2)], gamma=[(1, 0)])
    with pytest.raises(TypeError, match="exact scalar"):
        Cocycle(g, [[1, 1], [1, bad]], normalize=normalize)


def test_cocycle_stores_exact_values_as_given():
    g = group([("A", 2)], gamma=[(1, 0)])
    ints = Cocycle(g, [[1, 1], [1, -1]])
    assert ints.table == [[1, 1], [1, -1]]
    assert all(type(v) is int for row in ints.table for v in row)
    assert repr(ints) == "Cocycle([['1', '1'], ['1', '-1']])"
    strings = Cocycle(g, [["1", "1"], ["1", "-1/2"]])
    assert strings.table == [[1, 1], [1, Fraction(-1, 2)]]
    assert all(type(v) is Fraction for row in strings.table for v in row)
    z = Cyc(4, [Fraction(0), Fraction(1)])
    assert Cocycle(g, [[1, 1], [1, z]]).table[1][1] is z


def test_cocycle_normalizes_an_int_table_exactly():
    """Dividing ints by the int c(1, 1) once gave floats: 2 / 2 = 1.0."""
    g = group([("A", 2)], gamma=[(1, 0)])
    nat = Cocycle(g, [[2, 2], [2, -2]])
    assert nat.table == [[1, 1], [1, -1]]
    assert all(type(v) is Fraction for row in nat.table for v in row)
    assert nat.validate() is None


def test_broken_cocycle_reported():
    g = group([("A", 2)], gamma=[(1, 0)])
    bad = Cocycle(g, [[Fraction(1), Fraction(-1)], [Fraction(1), Fraction(1)]],
                  normalize=False)
    report = bad.validate()
    assert report is not None and report["kind"] == "normalization"


_D4_TRIALITY = None


def _d4_triality_group():
    global _D4_TRIALITY
    if _D4_TRIALITY is None:
        rs = RootSystem.from_specs([("D", 4)])
        _D4_TRIALITY = ExtendedWeylGroup(rs, gamma_generators=[(2, 1, 3, 0)])
    return _D4_TRIALITY


def test_random_tables_validated_against_direct_oracle():
    """The validator agrees with a direct check of the identity on Z/3 tables."""
    from hypothesis import given, settings, strategies as st
    from gradedhecke.scalars import Cyc

    z = Cyc.root_of_unity(3)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=4, max_size=4))
    def run(exponents):
        g = _d4_triality_group()
        one = Cyc(3, [1])
        table = [[one, one, one],
                 [one, z ** exponents[0], z ** exponents[1]],
                 [one, z ** exponents[2], z ** exponents[3]]]
        cocycle = Cocycle(g, table, normalize=False)
        report = cocycle.validate()
        # independent oracle: test the identity over all 27 triples directly
        order = {p: i for i, p in enumerate(g.gamma_elements)}
        mult = [[order[tuple(p[q[i]] for i in range(4))]
                 for q in g.gamma_elements] for p in g.gamma_elements]
        valid = all(
            table[a][b] * table[mult[a][b]][c] == table[b][c] * table[a][mult[b][c]]
            for a in range(3) for b in range(3) for c in range(3))
        assert (report is None) == valid
        if report is not None:
            assert report["kind"] == "associativity"
            assert len(report["triple"]) == 3

    run()


def test_triality_carry_cocycle():
    # order-3 diagram automorphism of D4; the carry table is a valid cocycle
    from gradedhecke.scalars import Cyc

    g = _d4_triality_group()
    assert len(g.gamma_elements) == 3
    z = Cyc.root_of_unity(3)
    order = {p: i for i, p in enumerate(g.gamma_elements)}
    # exponent of each gamma element as a power of the generator
    gen = (2, 1, 3, 0)
    powers = {}
    cur = tuple(range(4))
    for e in range(3):
        powers[order[cur]] = e
        cur = tuple(gen[cur[i]] for i in range(4))
    table = [[z ** ((powers[i] + powers[j]) // 3) for j in range(3)]
             for i in range(3)]
    carry = Cocycle(g, table)
    assert carry.validate() is None
    # tampering breaks the identity with a witness triple
    bad_table = [row[:] for row in table]
    bad_table[1][2] = bad_table[1][2] * z
    bad = Cocycle(g, bad_table, normalize=False)
    report = bad.validate()
    assert report is not None and report["kind"] == "associativity"


# --- parameter functions --------------------------------------------------------

def test_parameter_invariance_exhaustive():
    for spec, values in ([[("A", 2)], [Fraction(3)] * 2],
                         [[("B", 2)], [Fraction(2), Fraction(1)]],
                         [[("G", 2)], [Fraction(1), Fraction(5)]],
                         [[("F", 4)], [Fraction(1), Fraction(1), Fraction(2), Fraction(2)]]):
        g = group(spec)
        k = ParameterFunction.from_simple_values(g, values)
        for w in g.elements:
            for b in g.rs.roots:
                assert k(g.act_root(w, b)) == k(b)


def _exhaustive_invariance_failure(k):
    """Oracle: a root that some element of the whole group moves to an
    unequal value, or None; |R| |W x| Gamma| lookups."""
    for b in k.group.rs.roots:
        if any(k.values[k.group.act_root(g, b)] != k.values[b] for g in k.group.elements):
            return b
    return None


def _unchecked_parameters(g, values):
    """A ParameterFunction holding values, bypassing the constructor's check."""
    k = object.__new__(ParameterFunction)
    k.group, k.values = g, dict(values)
    return k


@pytest.mark.parametrize("name", sorted(PRESETS) + ["F4", "D4xS3"])
def test_generator_check_matches_the_full_invariance_check(name):
    g = _root_table_group(name)
    if name in PRESETS:
        invariant = build_preset(name).k.values
    elif name == "F4":
        invariant = ParameterFunction.from_simple_values(g, [1, 1, 2, 2]).values
    else:
        invariant = ParameterFunction.constant(g, 3).values
    broken = dict(invariant)
    broken[g.rs.roots[0]] += 1
    for values, holds in ((invariant, True), (broken, False)):
        k = _unchecked_parameters(g, values)
        assert (k.invariance_failure() is None) is holds
        assert (_exhaustive_invariance_failure(k) is None) is holds
    with pytest.raises(ValueError, match="not invariant"):
        ParameterFunction(g, broken)


def test_generator_check_includes_gamma():
    # k(alpha_1) != k(alpha_2) is W-invariant on A1 x A1 but not under the swap
    g = _root_table_group("A1xA1swap")
    values = {b: Fraction(1 if b[0] else 2) for b in g.rs.roots}
    k = _unchecked_parameters(g, values)
    assert k.invariance_failure() is not None
    assert _exhaustive_invariance_failure(k) is not None
    without_swap = _unchecked_parameters(group([("A", 1), ("A", 1)]), values)
    assert without_swap.invariance_failure() is None
    assert _exhaustive_invariance_failure(without_swap) is None


def test_parameter_orbit_conflict():
    g = group([("A", 2)])
    with pytest.raises(ValueError):
        ParameterFunction.from_simple_values(g, [Fraction(1), Fraction(2)])


def test_parameter_orbit_values():
    g = group([("B", 2)])
    k = ParameterFunction.from_simple_values(g, [Fraction(-2), Fraction(3)])
    assert k.simple_values() == [Fraction(-2), Fraction(3)]
    twisted = k.twisted(next(e for e in g.epsilon_characters()
                             if e.signs == (-1, 1)))
    assert twisted.simple_values() == [Fraction(2), Fraction(3)]


# --- centralizer components -----------------------------------------------------

def orbit_count_oracle(g, sigma, levi):
    """Orbits of W_sigma acting on W / W_M, counted directly."""
    w_only = [w for w in g.elements if w.gamma == 0]
    levi_elems = {g.identity.key}
    frontier = [g.identity]
    while frontier:
        new = []
        for u in frontier:
            for i in levi:
                v = g.multiply(u, g.simple(i))
                if v.key not in levi_elems:
                    levi_elems.add(v.key)
                    new.append(v)
        frontier = new
    cosets = {}
    for w in w_only:
        members = frozenset(g.multiply(w, g.from_key(m)).key for m in levi_elems)
        cosets.setdefault(members, members)
    sigma_gens = [g.reflection(b) for b in g.rs.roots
                  if g.rs.root_value(b, sigma) == 0]
    seen = set()
    orbits = 0
    for members in cosets:
        if members in seen:
            continue
        orbits += 1
        stack = [members]
        seen.add(members)
        while stack:
            cur = stack.pop()
            for s in sigma_gens:
                nxt = frozenset(g.multiply(s, g.from_key(m)).key for m in cur)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return orbits


def test_components_a1_regular():
    g = group([("A", 1)])
    count, reps = centralizer_components(g, (Fraction(1),), [])
    assert count == 2 == orbit_count_oracle(g, (Fraction(1),), [])
    assert len(reps) == 2


def test_components_sigma_zero():
    for spec, levi in ([[("A", 2)], [0]], [[("B", 2)], [1]], [[("G", 2)], []]):
        g = group(spec)
        zero = tuple(Fraction(0) for _ in range(g.rs.dim))
        count, _ = centralizer_components(g, zero, levi)
        assert count == 1


def test_components_a2_wall():
    g = group([("A", 2)])
    sigma = (Fraction(0), Fraction(1))  # alpha_1(sigma) = 0 != alpha_2(sigma)
    count, _ = centralizer_components(g, sigma, [0])
    assert count == orbit_count_oracle(g, sigma, [0]) == 2


def test_components_constant_on_orbit():
    g = group([("B", 2)])
    sigma = (Fraction(0), Fraction(2))
    base, _ = centralizer_components(g, sigma, [0])
    for w in g.elements:
        if w.gamma:
            continue
        moved, _ = centralizer_components(g, g.act_point(w, sigma), [0])
        assert moved == base


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_act_point_is_contragredient_to_act_root(name):
    """beta(u . p) = (u^-1 beta)(p) for every root beta, with Fraction coordinates
    out for int and Fraction coordinates in."""
    group = build_preset(name).group
    rank = group.rs.rank
    for point in ((Fraction(1, 2), Fraction(-7, 3))[:group.rs.dim], (3, -2)[:group.rs.dim]):
        for u in group.elements:
            moved = group.act_point(u, point)
            assert all(type(c) is Fraction for c in moved[:rank])
            for beta in group.rs.roots:
                image = group.act_root(group.inverse(u), beta)
                assert sum(b * c for b, c in zip(beta, moved)) == \
                    sum(b * c for b, c in zip(image, point))
