import importlib.util
import random
import sys
import zlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gradedhecke import modules
from gradedhecke.groupalgebra import TwistedGroupAlgebra
from gradedhecke.hecke import HeckeAlgebra
from gradedhecke.homology import ext_self_induced
from gradedhecke.linalg import identity, mat_add, mat_mul, mat_scale, mat_sub, matrix, \
    zero_matrix
from gradedhecke.modules import FiniteDimModule, action_matrix, classify_rank_one, \
    induce_from_character, is_essentially_discrete_series, is_regular, is_tempered, \
    restrict_to_group_algebra, weight_decomposition, weight_multiset_oracle, \
    zeta_rank_one
from gradedhecke.polynomials import Polynomial, divide_by_linear
from gradedhecke.presets import PRESETS, algebra_from_config, build_preset
from gradedhecke.scalars import Cyc, exact_scalar
from gradedhecke.weylgroups import Cocycle, ParameterFunction


@pytest.fixture(scope="module")
def A1():
    return build_preset("A1", mode="r1")  # k = 1


def steinberg(algebra):
    k = algebra.k.simple_values()[0]
    return FiniteDimModule(algebra, [[[-k]]], {("s", 0): [[Fraction(-1)]]})


def trivial_module(algebra):
    k = algebra.k.simple_values()[0]
    return FiniteDimModule(algebra, [[[k]]], {("s", 0): [[Fraction(1)]]})


def test_induced_matrix_fixture(A1):
    mod = induce_from_character(A1, (Fraction(0),))
    assert mod.x[0] == [[Fraction(0), Fraction(2)], [Fraction(0), Fraction(0)]]
    assert mod.dim == len(A1.group)


def test_induced_weights_match_orbit(A1):
    rng = random.Random(1)
    for _ in range(8):
        lam = (Fraction(rng.randint(1, 9)),)
        mod = induce_from_character(A1, lam)
        got = sorted(d.weight for d in weight_decomposition(mod)
                     for _ in range(d.multiplicity))
        assert got == weight_multiset_oracle(A1, lam)


def test_induced_weights_other_presets():
    for name in ("A2", "B2", "A2flip"):
        H = build_preset(name, mode="r1")
        lam = tuple(Fraction(3 + 2 * i) for i in range(H.rs.dim))
        assert is_regular(H, lam)
        mod = induce_from_character(H, lam)
        got = sorted(d.weight for d in weight_decomposition(mod)
                     for _ in range(d.multiplicity))
        assert got == weight_multiset_oracle(H, lam)
        assert mod.dim == len(H.group)


def test_weight_multiplicity_at_zero(A1):
    mod = induce_from_character(A1, (Fraction(0),))
    [datum] = weight_decomposition(mod)
    assert datum.weight == (Fraction(0),) and datum.multiplicity == 2


def test_scalar_module_weights(A1):
    st = steinberg(A1)
    [datum] = weight_decomposition(st)
    assert datum.weight == (Fraction(-1),) and datum.multiplicity == 1


def test_relation_validation_catches_errors(A1):
    with pytest.raises(ValueError):
        FiniteDimModule(A1, [[[Fraction(5)]]], {("s", 0): [[Fraction(-1)]]})


def _perturbed(module, key, row, col):
    """A copy of `module` with one entry of an x or N matrix raised by 1, unvalidated."""
    x = [[list(r) for r in m] for m in module.x]
    gens = {k: [list(r) for r in m] for k, m in module.generators.items()}
    target = x[key] if isinstance(key, int) else gens[key]
    target[row][col] += 1
    return FiniteDimModule(module.algebra, x, gens, module.r_value, validate=False)


@pytest.mark.parametrize("key, families", [
    (0, ["do not commute", "braid relation fails"]),
    (("s", 0), ["braid relation fails", "group law fails"]),
    (("s", 1), ["braid relation fails", "group law fails"]),
])
def test_validate_catches_each_relation_family_b2(key, families):
    B2 = build_preset("B2", mode="r1")
    mod = induce_from_character(B2, (Fraction(1), Fraction(3)))
    assert mod.validate() == []
    bad = _perturbed(mod, key, 2, 5)
    problems = bad.validate()
    for family in families:
        assert any(family in p for p in problems), (family, problems)
    with pytest.raises(ValueError, match="module relations fail"):
        FiniteDimModule(B2, bad.x, bad.generators)


def test_validate_catches_gamma_conjugation_a2flip_tw():
    H = build_preset("A2flip-tw", mode="r1")
    mod = induce_from_character(H, (Fraction(1), Fraction(4)))
    assert mod.validate() == []
    problems = _perturbed(mod, ("g", 1), 0, 1).validate()
    assert any("gamma conjugation fails" in p for p in problems), problems


def _exchange_oracle(module):
    """The braid and Gamma conjugation checks by a second route, on the matrices
    of linear polynomials: N_s X(x_j) - X(^s x_j) N_s = k_s r D_s(x_j) I and
    N_g X(x_j) = X(^g x_j) N_g, with ^s x_j from `act_polynomial` and D_s x_j =
    (x_j - ^s x_j) / alpha_s divided here."""
    alg, n = module.algebra, module.dim
    x = module.x_matrices

    def linear(poly):
        out = zero_matrix(n, n)
        for e, c in poly.terms.items():
            if sum(e) == 0:
                base = identity(n)
            elif e.index(1) < alg.rs.dim:
                base = x[e.index(1)]
            else:
                base = mat_scale(identity(n), module.r_value)
            out = mat_add(out, mat_scale(base, c))
        return out

    problems = []
    for i in range(alg.rs.rank):
        s = alg.group.simple(i)
        ns = module.generator_matrices[("s", i)]
        for j in range(alg.rs.dim):
            xi = Polynomial.variable(alg.nvars, j)
            moved = alg.group.act_polynomial(s, xi)
            rhs = mat_mul(linear(moved), ns)
            alpha = alg.rs.root_polynomial(alg.rs._simple(i))
            corr = alg._k_simple[i] * module.r_value * \
                divide_by_linear(xi - moved, alpha).constant_term()
            if mat_mul(ns, x[j]) != mat_add(rhs, mat_scale(identity(n), corr)):
                problems.append(f"braid relation fails for s{i + 1}, x{j + 1}")
    for gi in range(1, len(alg.group.gamma_elements)):
        g = alg.group.gamma_element(gi)
        ng = module.generator_matrices[("g", gi)]
        for j in range(alg.rs.dim):
            xi = Polynomial.variable(alg.nvars, j)
            if mat_mul(ng, x[j]) != mat_mul(linear(alg.group.act_polynomial(g, xi)), ng):
                problems.append(f"gamma conjugation fails for g{gi}, x{j + 1}")
    return problems


def _exchange_families(problems):
    """The failing (family, generator) pairs: 'braid relation fails for s1', ..."""
    return {p.split(",")[0] for p in problems if "relation fails" in p or "conjugation" in p}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_exchange_check_matches_the_braid_and_gamma_oracle(name):
    """validate's exchange family x_t N_g = N_g X(moved_t) + corr_t reports the
    same failing generators as the braid / Gamma form, on single-entry
    perturbations in r1, generic and k0 modes.  The two forms agree because
    xi -> ^s xi turns one into the other, D_s(^s xi) = -D_s(xi), and both are
    linear in xi."""
    rng = random.Random(zlib.crc32(f"exchange-{name}".encode()))
    generic = build_preset(name)
    cases = [(build_preset(name, mode="r1"), Fraction(1)), (generic.crossed_product(), Fraction(1))]
    cases += [(generic, r) for r in (Fraction(0), Fraction(2), Fraction(-1, 2))]
    caught = 0
    for algebra, r in cases:
        lam = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(algebra.rs.dim))
        mod = induce_from_character(algebra, lam, r, validate=False)
        assert mod.validate() == [] and _exchange_oracle(mod) == []
        for key in list(range(algebra.rs.dim)) + sorted(mod.generator_matrices):
            for _ in range(3):
                bad = _perturbed(mod, key, rng.randrange(mod.dim), rng.randrange(mod.dim))
                families = _exchange_families(bad.validate())
                assert families == _exchange_families(_exchange_oracle(bad)), \
                    (algebra.mode, r, key)
                caught += bool(families)
    assert caught


def test_r1_module_must_have_r_one(A1):
    """An r1 algebra has r = 1; the same matrices at r = 2 are a module of the generic algebra."""
    with pytest.raises(ValueError, match="rescale k"):
        FiniteDimModule(A1, [[[-2]]], {("s", 0): [[-1]]}, r_value=2)
    mod = FiniteDimModule(build_preset("A1"), [[[-2]]], {("s", 0): [[-1]]}, r_value=2)
    assert mod.r_value == 2


A3 = {"types": [["A", 3]], "k": ["1"]}


def test_group_law_is_checked_above_sixteen_elements():
    """On A3 (24 elements) x = (1, -1, 1), N = (1, -1, 1) satisfies every exchange
    relation but breaks s1 s2 s1 = s2 s1 s2 and s2 s3 s2 = s3 s2 s3."""
    H = algebra_from_config(A3)
    assert len(H.group) == 24
    signs = [1, -1, 1]
    gens = {("s", i): [[c]] for i, c in enumerate(signs)}
    bad = FiniteDimModule(H, [[[c]] for c in signs], gens, validate=False)
    problems = bad.validate()
    assert problems == ["group law fails at s1 s2 s1 = s2 s1 s2",
                        "group law fails at s2 s3 s2 = s3 s2 s3"]
    assert _group_law_oracle(bad)
    with pytest.raises(ValueError, match="group law fails"):
        FiniteDimModule(H, [[[c]] for c in signs], gens)
    ones = FiniteDimModule(H, [[[1]]] * 3, {("s", i): [[1]] for i in range(3)})
    assert weight_decomposition(ones)[0].weight == (1, 1, 1)


# --- the group law: the presentation against every generator x element pair ----------------

def _group_law_oracle(module):
    """N_g action(v) = c(g, v) action(gv) on every generator g and element v, one
    message per failing generator: the full check that `validate` replaces with
    the presentation of W x| Gamma."""
    alg = module.algebra
    group = alg.group
    problems = []
    for kind, i in modules.generator_keys(alg).values():
        g = group.simple(i) if kind == "s" else group.gamma_element(i)
        mg = module.generator_matrices[kind, i]
        for v in group.elements:
            target = mat_scale(module.action(group.multiply(g, v)), alg.cocycle.value(g, v))
            if mat_mul(mg, module.action(v)) != target:
                problems.append(f"group law fails at {g!r} * {v!r}")
                break
    return problems


def _group_law(module):
    return [p for p in module.validate() if "group law fails" in p]


def _three_modes(name):
    generic = build_preset(name)
    return [(build_preset(name, mode="r1"), Fraction(1)), (generic, Fraction(1, 2)),
            (generic.crossed_product(), Fraction(1))]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_group_law_presentation_accepts_every_induced_module(name):
    rng = random.Random(zlib.crc32(f"group-law-{name}".encode()))
    for algebra, r in _three_modes(name):
        lam = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(algebra.rs.dim))
        mod = induce_from_character(algebra, lam, r, validate=False)
        assert mod.validate() == [] and _group_law_oracle(mod) == []


@pytest.mark.parametrize("name", sorted(PRESETS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_group_law_presentation_matches_the_full_loop_on_perturbations(name, data):
    """A single entry of one N matrix moved, one N matrix negated, or every N
    matrix conjugated by the same elementary matrix (which keeps the group law
    and breaks the exchange relations): the presentation and the full loop
    accept and reject the same modules."""
    algebra, r = data.draw(st.sampled_from(_three_modes(name)))
    lam = tuple(data.draw(st.fractions(-9, 9, max_denominator=3)) for _ in range(algebra.rs.dim))
    mod = induce_from_character(algebra, lam, r, validate=False)
    key = data.draw(st.sampled_from(sorted(mod.generator_matrices)))
    gens = mod.generators
    kind = data.draw(st.sampled_from(["entry", "negate", "conjugate"]))
    row, col = (data.draw(st.integers(0, mod.dim - 1)) for _ in range(2))
    if kind == "entry":
        gens[key][row][col] += data.draw(st.sampled_from([1, -1, Fraction(1, 2), -2]))
    elif kind == "negate":
        gens[key] = [[-c for c in line] for line in gens[key]]
    elif row != col:
        # P = I + E_{row, col} has the inverse I - E_{row, col}
        e = matrix([[int((a, b) == (row, col)) for b in range(mod.dim)] for a in range(mod.dim)])
        p, q = mat_add(identity(mod.dim), e), mat_sub(identity(mod.dim), e)
        gens = {k: mat_mul(mat_mul(p, matrix(m)), q).fractions() for k, m in gens.items()}
    bad = FiniteDimModule(algebra, mod.x, gens, r, validate=False)
    assert bool(_group_law(bad)) == bool(_group_law_oracle(bad)), (kind, key, row, col)


@pytest.mark.parametrize("twist", [Fraction(-1), Fraction(1, 2)])
def test_group_law_presentation_matches_the_full_loop_under_cocycle_twists(twist):
    """Over A2flip-tw with c(g, g) = twist, the induced module passes both checks;
    its matrices over the other twist fail both, at g1 g1."""
    base = build_preset("A2flip-tw", mode="r1")

    def twisted(t):
        cocycle = Cocycle(base.group, [[1, 1], [1, t]], normalize=False)
        return HeckeAlgebra(base.group, base.k, cocycle, mode="r1")

    algebra, other = twisted(twist), twisted(Fraction(1, 2) if twist == -1 else Fraction(-1))
    mod = induce_from_character(algebra, (Fraction(1), Fraction(4)))
    assert _group_law(mod) == [] and _group_law_oracle(mod) == []
    moved = FiniteDimModule(other, mod.x, mod.generators, validate=False)
    assert _group_law(moved) == ["group law fails at g1 g1 = c(g1, g1) 1"]
    assert _group_law_oracle(moved)


@pytest.mark.parametrize("name, gens, relations", [
    ("A2flip", {("s", 0): 1, ("s", 1): 1, ("g", 1): 2}, ["g1 g1 = c(g1, g1) 1"]),
    ("A2flip-tw", {("s", 0): -1, ("s", 1): -1, ("g", 1): 1}, ["g1 g1 = c(g1, g1) 1"]),
    ("A1xA1swap", {("s", 0): 1, ("s", 1): -1, ("g", 1): 1}, ["g1 s1 = s2 g1", "g1 s2 = s1 g1"]),
])
def test_one_dim_module_breaking_only_a_gamma_relation(name, gens, relations):
    """x = 0 at k = 0 meets every exchange relation, and the signs of the
    simple reflections meet the Coxeter relations, so only Gamma's own product
    or its conjugation of the simple reflections fails."""
    algebra = build_preset(name).crossed_product()
    x = [[[0]] for _ in range(algebra.rs.dim)]
    bad = FiniteDimModule(algebra, x, {key: [[c]] for key, c in gens.items()}, validate=False)
    assert bad.validate() == [f"group law fails at {r}" for r in relations]
    assert _group_law_oracle(bad)
    with pytest.raises(ValueError, match="group law fails"):
        FiniteDimModule(algebra, x, {key: [[c]] for key, c in gens.items()})


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_induced_x_matrices_are_triangular_with_the_orbit_on_the_diagonal(name):
    """The premise of weight_decomposition's diagonal reading on induced modules."""
    H = build_preset(name, mode="r1")
    rng = random.Random(zlib.crc32(name.encode()))
    found = 0
    while found < 2:
        lam = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(H.rs.dim))
        if not is_regular(H, lam):
            continue
        found += 1
        mod = induce_from_character(H, lam)
        n = mod.dim
        for x in mod.x:
            assert all(x[i][j] == 0 for i in range(n) for j in range(i))
        diagonal = sorted(tuple(x[i][i] for x in mod.x) for i in range(n))
        assert diagonal == weight_multiset_oracle(H, lam)


def test_temperedness(A1):
    assert is_tempered(steinberg(A1))
    assert is_essentially_discrete_series(steinberg(A1))
    assert not is_tempered(trivial_module(A1))
    ind0 = induce_from_character(A1, (Fraction(0),))
    assert is_tempered(ind0)
    assert not is_essentially_discrete_series(ind0)


def test_restriction_fixtures(A1):
    table, mults = restrict_to_group_algebra(steinberg(A1))
    by_label = dict(zip((b.label() for b in table.blocks), mults))
    assert by_label == {"triv": 0, "sgn": 1}
    _, m0 = restrict_to_group_algebra(induce_from_character(A1, (Fraction(0),)))
    assert m0 == [1, 1]


def test_restriction_is_regular_character(A1):
    table = TwistedGroupAlgebra(A1.group, A1.cocycle)
    for lam in ((Fraction(2),), (Fraction(7),)):
        mod = induce_from_character(A1, lam)
        _, mults = restrict_to_group_algebra(mod, table)
        assert mults == [b.dim for b in table.blocks]


def test_regular_character_b2():
    H = build_preset("B2", mode="r1")
    table = TwistedGroupAlgebra(H.group, H.cocycle)
    mod = induce_from_character(H, (Fraction(1), Fraction(3)))
    _, mults = restrict_to_group_algebra(mod, table)
    assert mults == [b.dim for b in table.blocks]


def test_transport_diagram(A1):
    """Restriction after the sign twist equals restriction tensored by sign."""
    eps = next(e for e in A1.group.epsilon_characters() if not e.is_trivial())
    table = TwistedGroupAlgebra(A1.group, A1.cocycle)
    char_by_index = {
        tuple(sorted(b.character.items())): i for i, b in enumerate(table.blocks)}

    def tensored(mults):
        out = [0] * len(mults)
        for i, b in enumerate(table.blocks):
            twisted = {w.index: b.character[w.index] * eps(w)
                       for w in A1.group.elements}
            j = char_by_index[tuple(sorted(twisted.items()))]
            out[j] = mults[i]
        return out

    for mod in (steinberg(A1), induce_from_character(A1, (Fraction(2),)),
                induce_from_character(A1, (Fraction(0),))):
        _, before = restrict_to_group_algebra(mod, table)
        _, after = restrict_to_group_algebra(mod.twist_by_character(eps), table)
        assert after == tensored(before)


def test_transport_diagram_b2():
    H = build_preset("B2", mode="r1")
    table = TwistedGroupAlgebra(H.group, H.cocycle)
    eps = next(e for e in H.group.epsilon_characters() if e.signs == (-1, 1))
    mod = induce_from_character(H, (Fraction(1), Fraction(2)))
    _, before = restrict_to_group_algebra(mod, table)
    _, after = restrict_to_group_algebra(mod.twist_by_character(eps), table)
    # the regular character is stable under tensoring by a linear character
    assert after == before == [b.dim for b in table.blocks]


# --- rank one classification -----------------------------------------------------------

def test_classification_k1(A1):
    records = {r.label: r for r in classify_rank_one(A1)}
    st = records["Steinberg"]
    assert st.weights[0].weight == (Fraction(-1),)
    assert st.tempered and st.discrete_series
    tv = records["trivial"]
    assert tv.weights[0].weight == (Fraction(1),)
    assert not tv.tempered
    pi0 = records["pi_0"]
    assert pi0.module.dim == 2 and pi0.tempered and not pi0.discrete_series
    tempered = {label for label, r in records.items() if r.tempered}
    assert tempered == {"Steinberg", "pi_0"}


def test_classification_decomposes_each_module_once(A1, monkeypatch):
    """Both predicates of a record read its one weight decomposition: on A1
    the 5 records cost 5 decompositions, down from 18."""
    from gradedhecke import modules

    calls = []
    original = modules.weight_decomposition

    def counting(module):
        calls.append(module)
        return original(module)

    monkeypatch.setattr(modules, "weight_decomposition", counting)
    records = classify_rank_one(A1)
    monkeypatch.undo()
    assert len(records) == 5
    assert len(calls) == 5 and len({id(m) for m in calls}) == 5
    for r in records:
        assert r.weights == weight_decomposition(r.module)
        assert r.tempered == is_tempered(r.module)
        assert r.discrete_series == is_essentially_discrete_series(r.module)


def test_restriction_matrix_unipotent(A1):
    _, zeta, rows = zeta_rank_one(A1)
    # peeling order: Steinberg (dim 1) then pi_0 (dim 2); each new row adds
    # exactly one previously unused constituent with multiplicity one
    assert rows["Steinberg"].count(0) == 1 and rows["Steinberg"].count(1) == 1
    assert rows["pi_0"] == [1, 1]
    assert zeta["Steinberg"].label() == "sgn"
    assert zeta["pi_0"].label() == "triv"


def test_zeta_k0():
    H = build_preset("A1", k=["0"], mode="r1")
    records = classify_rank_one(H)
    tempered = [r for r in records if r.tempered and r.real_weights]
    # both characters sit at weight zero; the matching is the identity
    assert {r.label for r in tempered} == {"Steinberg", "trivial"}
    assert all(r.weights[0].weight == (Fraction(0),) for r in tempered)
    _, zeta, _ = zeta_rank_one(H)
    assert zeta["Steinberg"].label() == "sgn"
    assert zeta["trivial"].label() == "triv"


def test_zeta_negative_k_matches_transport(A1):
    """The matching at -k is the matching at k composed with the sign twist."""
    Hminus = build_preset("A1", k=["-1"], mode="r1")
    _, zeta_plus, _ = zeta_rank_one(A1)
    _, zeta_minus, _ = zeta_rank_one(Hminus)
    # pullback along the sign twist exchanges the two characters:
    # Steinberg at k pulls back to the module labelled trivial at -k
    assert zeta_plus["Steinberg"].label() == "sgn"
    assert zeta_minus["trivial"].label() == "triv"  # = sgn (x) sgn
    assert zeta_plus["pi_0"].label() == "triv"
    assert zeta_minus["pi_0"].label() == "sgn"      # = triv (x) sgn


def test_classification_requires_rank_one():
    H = build_preset("A2", mode="r1")
    with pytest.raises(ValueError):
        classify_rank_one(H)


def test_induction_other_r_values(A1):
    with pytest.raises(ValueError, match="rescale"):
        induce_from_character(A1, (Fraction(2),), r_value=Fraction(5))
    # in generic mode any exact r value works and the relations hold
    generic = build_preset("A1")
    mod = induce_from_character(generic, (Fraction(2),), r_value=Fraction(5))
    assert mod.r_value == 5
    [low, high] = weight_decomposition(mod)
    assert {low.weight, high.weight} == {(Fraction(2),), (Fraction(-2),)}


def test_irrational_weight_reported(A1):
    # x = [[0, 2], [1, 0]] has eigenvalues +/- sqrt(2); the braid relation
    # still holds with N_s = [[1, 2], [0, -1]], so the module is valid but
    # its weights leave the rational field
    mod = FiniteDimModule(
        A1,
        [[[Fraction(0), Fraction(2)], [Fraction(1), Fraction(0)]]],
        {("s", 0): [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(-1)]]})
    with pytest.raises(ValueError, match="characteristic polynomial"):
        weight_decomposition(mod)


def _word_product_oracle(module, w):
    """N_w as the product of the generator matrices along w's reduced word, then Gamma."""
    out = [[Fraction(int(i == j)) for j in range(module.dim)] for i in range(module.dim)]
    factors = [module.generators[("s", i)] for i in w.word]
    if w.gamma:
        factors.append(module.generators[("g", w.gamma)])
    for f in factors:
        out = [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*f)]
               for row in out]
    return out


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_group_matrices_match_the_word_products(name):
    """Each N_w is its cached prefix's matrix times one generator: the word product."""
    H = build_preset(name, mode="r1")
    lam = tuple(Fraction(2 * i + 3, i + 1) for i in range(H.rs.dim))
    mod = induce_from_character(H, lam, validate=False)
    for w in H.group.elements:
        assert mod.group_matrix(w) == _word_product_oracle(mod, w)
        if w.word:
            prefix = H.group.word_element(w.word[:-1])
            assert prefix.word == w.word[:-1]


def test_module_generators_are_checked_at_construction(A1):
    A1xA1swap = build_preset("A1xA1swap", mode="r1")
    with pytest.raises(ValueError, match="no matrix for the generator s1"):
        FiniteDimModule(A1, [[[Fraction(-1)]]], {})
    with pytest.raises(ValueError, match="no generator"):
        FiniteDimModule(A1, [[[Fraction(-1)]]], {("s", 0): [[-1]], ("g", 1): [[1]]})
    with pytest.raises(ValueError, match="no matrix for the generator g1"):
        FiniteDimModule(A1xA1swap, [[[1]], [[1]]], {("s", 0): [[1]], ("s", 1): [[1]]})
    with pytest.raises(ValueError, match="the matrix of s1 must be 1 x 1"):
        FiniteDimModule(A1, [[[Fraction(-1)]]], {("s", 0): [[-1, 0], [0, 1]]})
    with pytest.raises(ValueError, match="x matrices"):
        FiniteDimModule(A1, [], {("s", 0): [[-1]]})
    # the matrices read back as the Fractions they were given
    st = steinberg(A1)
    assert st.x == [[[Fraction(-1)]]] and st.generators == {("s", 0): [[Fraction(-1)]]}


# --- the induced-module builder against straightening --------------------------------

def _weights(algebra, rng, regular, singular):
    """`regular` regular weights and `singular` non-regular ones (0 first), each
    with one random denominator 1, 2 or 3."""
    out = [tuple(Fraction(0) for _ in range(algebra.rs.dim))][:singular]
    group = algebra.group
    while len(out) < regular + singular:
        d = rng.randint(1, 3)
        lam = tuple(Fraction(rng.randint(-9, 9), d) for _ in range(algebra.rs.dim))
        if len(out) >= singular:
            if is_regular(algebra, lam):
                out.append(lam)
        else:
            # lam + s lam is fixed by the reflection s
            s = group.simple(rng.randrange(algebra.rs.rank))
            out.append(tuple(a + b for a, b in zip(lam, group.act_point(s, lam))))
    return out


def _assert_matches_straightening(algebra, lam, r):
    """Every x and N matrix of ind(lam) is the action_matrix of its generator."""
    mod = induce_from_character(algebra, lam, r)
    point = list(lam) + [r]
    for j, x in enumerate(mod.x_matrices):
        assert x == matrix(action_matrix(algebra, algebra.x(j), point)), (lam, r, j)
    group = algebra.group
    for key, m in mod.generator_matrices.items():
        g = group.simple(key[1]) if key[0] == "s" else group.gamma_element(key[1])
        assert m == matrix(action_matrix(algebra, algebra.N(g), point)), (lam, r, key)
    assert weight_decomposition(mod) == modules._split_weights(mod)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_induced_matrices_match_straightening(name):
    rng = random.Random(zlib.crc32(f"induced-{name}".encode()))
    r1 = build_preset(name, mode="r1")
    for lam in _weights(r1, rng, 2, 2):
        _assert_matches_straightening(r1, lam, Fraction(1))
    generic = build_preset(name)
    for r in (Fraction(0), Fraction(1, 2), Fraction(3)):
        for lam in _weights(generic, rng, 1, 1):
            _assert_matches_straightening(generic, lam, r)


@pytest.mark.parametrize("name, values", [
    ("A2flip-tw", [Fraction(1, 3)]), ("B2", [Fraction(1, 3), Fraction(5, 2)]),
    ("G2", [Fraction(1, 3), Fraction(5, 2)])])
def test_induced_matrices_match_straightening_at_fractional_k(name, values):
    rng = random.Random(zlib.crc32(f"induced-k-{name}".encode()))
    base = build_preset(name)
    k = ParameterFunction.from_simple_values(base.group, values)
    for mode, rs in (("r1", [Fraction(1)]),
                     ("generic", [Fraction(0), Fraction(1, 2), Fraction(3)])):
        algebra = base.with_k(k, mode=mode)
        for r in rs:
            for lam in _weights(algebra, rng, 1, 1):
                _assert_matches_straightening(algebra, lam, r)


@pytest.mark.parametrize("twist", [Fraction(2), Fraction(1, 2), Fraction(-1)])
def test_induced_matrices_match_straightening_with_cocycle_twists(twist):
    rng = random.Random(zlib.crc32(f"induced-twist-{twist}".encode()))
    base = build_preset("A2flip-tw")
    cocycle = Cocycle(base.group, [[Fraction(1), Fraction(1)], [Fraction(1), twist]],
                      normalize=False)
    for mode, r in (("r1", Fraction(1)), ("generic", Fraction(1, 2))):
        algebra = HeckeAlgebra(base.group, base.k, cocycle, mode=mode)
        for lam in _weights(algebra, rng, 1, 1):
            _assert_matches_straightening(algebra, lam, r)


# --- the two weight paths ------------------------------------------------------------------

def _reversed_basis(module):
    """module in the basis order reversed: P M P for the reversing permutation P."""
    def flip(m):
        return [row[::-1] for row in m[::-1]]

    return FiniteDimModule(module.algebra, [flip(x) for x in module.x],
                           {key: flip(m) for key, m in module.generators.items()},
                           module.r_value)


@pytest.mark.parametrize("name", ["A1", "B2", "G2", "A2flip-tw"])
def test_diagonal_weights_match_elimination(name, monkeypatch):
    H = build_preset(name, mode="r1")
    rng = random.Random(zlib.crc32(f"weights-{name}".encode()))
    for lam in _weights(H, rng, 2, 2):
        mod = induce_from_character(H, lam)
        expected = modules._split_weights(mod)
        assert weight_decomposition(mod) == expected
        # not triangular: the elimination path, with the same answer
        flipped = _reversed_basis(mod)
        assert any(any(row[:i]) for x in flipped.x_matrices for i, row in enumerate(x))
        calls = []
        split = modules.split_space
        monkeypatch.setattr(modules, "split_space", lambda *a: calls.append(a) or split(*a))
        assert weight_decomposition(flipped) == expected
        monkeypatch.undo()
        assert calls


def test_induction_neither_straightens_nor_eliminates(monkeypatch):
    """An induced module is built with no product in the algebra, and its
    weights are found with no eigenspace split."""
    calls = []

    def forbidden(name):
        return lambda *a, **kw: calls.append(name)

    H = build_preset("G2", mode="r1")
    lam = (Fraction(1, 2), Fraction(7, 3))
    monkeypatch.setattr(HeckeAlgebra, "multiply", forbidden("multiply"))
    monkeypatch.setattr(modules, "split_space", forbidden("split_space"))
    mod = induce_from_character(H, lam)
    data = weight_decomposition(mod)
    monkeypatch.undo()
    assert calls == []
    assert sorted(d.weight for d in data for _ in range(d.multiplicity)) == \
        weight_multiset_oracle(H, lam)


# --- exact scalars at the entry points ------------------------------------------------------

_INEXACT = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
                     st.complex_numbers(allow_nan=False, allow_infinity=False))


@settings(max_examples=25, deadline=None)
@given(bad=_INEXACT, position=st.integers(0, 1))
def test_inexact_scalars_rejected_at_the_entry_points(bad, position):
    """A float, bool or complex where a caller's scalar enters raises TypeError
    at the call, before it can turn into a binary rational."""
    r1, generic = build_preset("B2", mode="r1"), build_preset("B2")
    weight = [Fraction(1), Fraction(3)]
    weight[position] = bad
    k_values = [Fraction(2), Fraction(1)]
    k_values[position] = bad
    for call in (lambda: induce_from_character(r1, weight),
                 lambda: is_regular(r1, weight),
                 lambda: weight_multiset_oracle(r1, weight),
                 lambda: ext_self_induced(r1, weight),
                 lambda: ext_self_induced(r1, (Fraction(1), Fraction(3)), r_value=bad),
                 lambda: induce_from_character(generic, (1, 3), r_value=bad),
                 lambda: generic.specialize_r(generic.one(), bad),
                 lambda: ParameterFunction.constant(generic.group, bad),
                 lambda: ParameterFunction.from_simple_values(generic.group, k_values)):
        with pytest.raises(TypeError, match="exact scalar"):
            call()


def test_exact_scalar_accepts_ints_strings_fractions_and_cyclotomics_where_allowed():
    assert exact_scalar(3) == Fraction(3) and type(exact_scalar(3)) is Fraction
    assert exact_scalar("3/4") == Fraction(3, 4)
    z = Cyc.root_of_unity(3)
    assert exact_scalar(z, cyclotomic=True) is z
    with pytest.raises(TypeError):
        exact_scalar(z)
    # the float 0.1 would have been 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        induce_from_character(build_preset("B2", mode="r1"), (0.1, 1.5))


# --- the benchmark's modules ops ----------------------------------------------------------

def test_first_modules_bench_ops_match_their_reference_digests(monkeypatch):
    """The first 30 seed-0 ops of the `modules` workload in bench/workloads.py hold
    their checks and give the digests in bench/reference_digests.json; the
    workload is loaded read-only, with no bytecode written."""
    import gradedhecke

    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.Modules(gradedhecke, 0, workloads.load_references())
    for i in range(30):
        inp = workload.make_input(i)
        holds, digest, _ = workload.check(inp, workload.run(inp))
        assert holds and digest == workload.reference(i), i


@pytest.mark.parametrize("weight", [(1, 2, 3), (1,), ()])
def test_every_weight_entry_point_checks_the_coordinate_count(weight):
    B2 = build_preset("B2", mode="r1")
    for call in (weight_multiset_oracle, is_regular, induce_from_character,
                 ext_self_induced):
        with pytest.raises(ValueError, match="^weight needs 2 coordinates$"):
            call(B2, weight)
