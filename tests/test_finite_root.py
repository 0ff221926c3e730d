"""Finite reflection machinery: axioms, Weyl enumeration, classification,
and the sphere criterion with its dual-route check."""

import random

import pytest

from rootsphere.exact import (
    Q,
    _common_denominator,
    _int_key,
    _lex_functional,
    generic_separator,
    inner,
    norm_sq,
    span_rank,
    vadd,
    vector,
    vneg,
    zero_vector,
)
from rootsphere.finite_root import (
    AxiomReport,
    GroupTooLargeError,
    RootSystem,
    _classify_components,
    _components,
    base,
    characterize_finite,
    check_axioms,
    classify,
    denominator_rhs,
    enumerate_weyl,
    finite_verdict_to_json,
    mat_det,
    mat_mul,
    mat_vec,
    positive_roots,
    reflect,
    reflection_matrix,
    root_system_to_json,
    root_system_from_json,
    weyl_order,
    weyl_vector,
)
from rootsphere.group_ring import SupportMap, expand_product, mul, one, monomial
from rootsphere.quadric import fit_sphere

A = vector([1, -1, 0])
B = vector([0, 1, -1])
AB = vadd(A, B)
A2_ROOTS = [A, B, AB, vneg(A), vneg(B), vneg(AB)]

B2_A = vector([1, -1])
B2_B = vector([0, 1])
B2_ROOTS = [
    B2_A,
    B2_B,
    vadd(B2_A, B2_B),
    vadd(B2_A, vadd(B2_B, B2_B)),
]
B2_ROOTS = B2_ROOTS + [vneg(r) for r in B2_ROOTS]


def test_reflect_examples():
    assert reflect(A, A) == vneg(A)
    assert reflect(vector([0, 0, 1]), vector([1, 0, 0])) == vector([0, 0, 1])
    assert reflect(A, B) == vector([1, 0, -1])
    with pytest.raises(ValueError):
        reflect(A, zero_vector(3))
    with pytest.raises(ValueError, match="^cannot reflect in the zero vector$"):
        reflection_matrix(zero_vector(2))


def test_singular_determinant_and_the_order_of_no_roots():
    assert mat_det(((Q(1), Q(2)), (Q(2), Q(4)))) == 0
    assert mat_det(((Q(0), Q(1)), (Q(0), Q(1)))) == 0
    with pytest.raises(ValueError, match="^empty root set$"):
        weyl_order([])


def test_reflect_properties():
    rng = random.Random(7)
    for _ in range(40):
        dim = rng.randint(1, 4)
        a = tuple(Q(rng.randint(-3, 3)) for _ in range(dim))
        if all(c == 0 for c in a):
            continue
        v = tuple(Q(rng.randint(-3, 3)) for _ in range(dim))
        assert reflect(reflect(v, a), a) == v
        assert norm_sq(reflect(v, a)) == norm_sq(v)
        m = reflection_matrix(a)
        assert mat_vec(m, v) == reflect(v, a)
        assert mat_det(m) == -1


def test_root_system_validation():
    rs = RootSystem(3, A2_ROOTS + [A])
    assert len(rs.roots) == 6
    assert rs.rank == 2
    with pytest.raises(ValueError):
        RootSystem(3, [zero_vector(3)])
    with pytest.raises(ValueError):
        RootSystem(2, [A])


def test_axioms_a2():
    rep = check_axioms(RootSystem(3, A2_ROOTS))
    assert rep == AxiomReport(True, True, True, True, True, 2)
    assert rep.all_pass()


def test_axioms_nonreduced():
    doubled = A2_ROOTS + [vadd(AB, AB), vneg(vadd(AB, AB))]
    rep = check_axioms(RootSystem(3, doubled))
    assert not rep.fr5
    assert not rep.fr2


def test_axioms_nonintegral():
    rs = RootSystem(2, [vector([1, 0]), vector([-1, 0]),
                        vector(["1/3", 1]), vector(["-1/3", -1])])
    rep = check_axioms(rs)
    assert not rep.fr3
    assert not rep.all_pass()


def _axioms_by_definition(roots):
    """FR2, FR3, FR5 straight from the Fraction definitions, pair by pair."""
    rset = set(roots)
    fr2 = all(reflect(b, a) in rset for a in roots for b in roots)
    fr3 = all((2 * inner(a, b) / norm_sq(a)).denominator == 1 for a in roots for b in roots)
    fr5 = all(b in (a, vneg(a)) or span_rank([a, b])[0] == 2 for a in roots for b in roots)
    return fr2, fr3, fr5


def _random_rational_root_sets(rng, count):
    """Seeded candidate root sets: random rational vectors with parallel
    multiples of ratio 2, 1/2 and -3, reflection images added for random
    pairs (so non-integer pairings can still have their image in the set),
    mostly closed under negation, and B2/G2 with the long roots scaled
    (closed, with non-integer pairings)."""
    from rootsphere.catalog import standard_finite

    for _ in range(count):
        kind = rng.random()
        if kind < 0.25:
            name = rng.choice(["B2", "G2"])
            roots = list(standard_finite(name).roots.roots)
            long_sq = max(norm_sq(r) for r in roots)
            t = Q(rng.choice([3, 5, -2]), rng.choice([1, 2, 3]))
            yield [tuple(t * c for c in r) if norm_sq(r) == long_sq else r for r in roots]
            continue
        dim = rng.randint(1, 3)
        vs = []
        while len(vs) < rng.randint(1, 4):
            v = tuple(Q(rng.randint(-2, 2), rng.choice([1, 2, 3])) for _ in range(dim))
            if any(v):
                vs.append(v)
        for v in list(vs):
            if rng.random() < 0.4:
                vs.append(tuple(rng.choice([Q(2), Q(1, 2), Q(-3)]) * c for c in v))
        for _ in range(rng.randint(0, 3)):
            vs.append(reflect(rng.choice(vs), rng.choice(vs)))
        yield vs + [vneg(v) for v in vs] if rng.random() < 0.7 else vs


def test_axioms_match_fraction_definitions():
    rng = random.Random(4096)
    seen = set()
    # a pair k, -k present only through its lexicographically negative key
    fixed = [[vector([-1, 0])], [vector([0, 1]), vector([0, -1]), vector([-1, 0])]]
    for roots in [*fixed, *_random_rational_root_sets(rng, 150)]:
        rs = RootSystem(len(roots[0]), roots)
        rep = check_axioms(rs)
        expected = _axioms_by_definition(rs.roots)
        assert (rep.fr2, rep.fr3, rep.fr5) == expected
        seen.add(expected)
    # every combination that can occur was exercised, including closed sets
    # with non-integer pairings (FR2 without FR3)
    assert {(True, True, True), (True, False, True), (False, False, False), (True, True, False)} <= seen


def test_positive_roots():
    for roots, n in [(A2_ROOTS, 3), (B2_ROOTS, 4), ([vector([1]), vector([-1])], 1)]:
        rs = RootSystem(len(roots[0]), roots)
        rplus, sep = positive_roots(rs)
        assert len(rplus) == n
        assert all(inner(a, sep) > 0 for a in rplus)
        assert sorted(list(rplus) + [vneg(a) for a in rplus]) == sorted(rs.roots)
        assert positive_roots(rs) == (rplus, sep)


def test_positive_roots_separator_is_the_closed_form_generic_separator():
    from rootsphere.catalog import standard_finite

    rng = random.Random(4096)
    catalog = [standard_finite(name).roots for name in ("A1", "A3", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8")]
    for rs in catalog + [RootSystem(len(r[0]), r) for r in _random_rational_root_sets(rng, 200)]:
        assert generic_separator(rs.roots, zero_vector(rs.dim)) == positive_roots(rs).separator
    # M = 2*max|coordinate| + 1 once the coordinates are scaled to integers
    assert positive_roots(RootSystem(3, A2_ROOTS)).separator == (Q(9), Q(3), Q(1))
    assert positive_roots(RootSystem(2, [vector(["1/2", "0"]), vector(["0", "-1"])])).separator == (Q(5), Q(1))
    assert positive_roots(RootSystem(2, ())).separator == (Q(1), Q(1))


def test_base_simple_roots():
    rplus, _ = positive_roots(RootSystem(3, A2_ROOTS))
    assert set(base(rplus)) == {A, B}
    rplus2, _ = positive_roots(RootSystem(2, B2_ROOTS))
    assert set(base(rplus2)) == {B2_A, B2_B}
    # the pairwise-sum definition, on rational sets with parallel pairs
    rng = random.Random(1729)
    for roots in _random_rational_root_sets(rng, 60):
        pos = positive_roots(RootSystem(len(roots[0]), roots)).rplus
        assert base(pos) == sorted(a for a in pos if not any(vadd(x, y) == a for x in pos for y in pos))
    # and on sets that are no positive half: negatives, zero, repeats and parallel elements
    for _ in range(200):
        dim = rng.randint(1, 3)
        pts = [tuple(Q(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(dim)) for _ in range(rng.randint(0, 6))]
        pts += [tuple(rng.choice([Q(2), Q(-1), Q(1, 2)]) * c for c in v) for v in pts if rng.random() < 0.4]
        assert base(pts) == sorted(a for a in pts if not any(vadd(x, y) == a for x in pts for y in pts))


def test_weyl_vector():
    assert weyl_vector([vector([1])]) == (Q(1, 2),)
    assert weyl_vector([A, B, AB]) == (Q(1), Q(0), Q(-1))
    rplus, _ = positive_roots(RootSystem(2, B2_ROOTS))
    assert weyl_vector(rplus) == (Q(3, 2), Q(1, 2))
    with pytest.raises(ValueError):
        weyl_vector([])


def test_enumerate_weyl_a1():
    els = enumerate_weyl([vector([1])])
    assert len(els) == 2
    assert sorted(w.det for w in els) == [-1, 1]


def test_enumerate_weyl_a2():
    els = enumerate_weyl([A, B, AB])
    assert len(els) == 6
    n = 3
    ident = tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))
    for w in els:
        assert mat_mul(_transpose(w.matrix), w.matrix) == ident
        assert w.det == mat_det(w.matrix)
    words = [w.word for w in els]
    assert words == sorted(words, key=lambda wd: (len(wd), wd))


def _transpose(m):
    return tuple(tuple(row[i] for row in m) for i in range(len(m[0])))


def test_enumerate_weyl_d4():
    from rootsphere.catalog import standard_finite

    entry = standard_finite("D4")
    els = enumerate_weyl(entry.positive)
    assert len(els) == 192


@pytest.mark.parametrize("name", ["A2", "D4"])
def test_enumerate_weyl_word_length_counts_inversions(name):
    from rootsphere.catalog import standard_finite

    pos = standard_finite(name).positive
    negative = {vneg(a) for a in pos}
    for w in enumerate_weyl(pos):
        assert len(w.word) == sum(mat_vec(w.matrix, a) in negative for a in pos)


def test_enumerate_weyl_bound():
    with pytest.raises(GroupTooLargeError, match="group too large"):
        enumerate_weyl([A, B, AB], bound=3)


@pytest.mark.parametrize("fn", [enumerate_weyl, denominator_rhs])
def test_empty_positive_system_is_refused(fn):
    with pytest.raises(ValueError, match="empty positive system"):
        fn([])


def test_weyl_order_matches_enumeration():
    for roots in (A2_ROOTS, B2_ROOTS):
        rs = RootSystem(len(roots[0]), roots)
        rplus, _ = positive_roots(rs)
        assert weyl_order(rs.roots) == len(enumerate_weyl(rplus))


def test_denominator_rhs_a1():
    rhs = denominator_rhs([vector([1])])
    m = SupportMap(1, {vector([1]): 1})
    assert rhs == expand_product(m)


def test_denominator_rhs_a2():
    rplus = [A, B, AB]
    rhs = denominator_rhs(rplus)
    assert rhs == expand_product(SupportMap(3, {a: 1 for a in rplus}))
    assert len(rhs.terms) == 6


def test_denominator_rhs_b2():
    rplus, _ = positive_roots(RootSystem(2, B2_ROOTS))
    rhs = denominator_rhs(rplus)
    assert len(rhs.terms) == 8
    assert all(c in (Q(1), Q(-1)) for c in rhs.terms.values())
    assert rhs == expand_product(SupportMap(2, {a: 1 for a in rplus}))


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]
)
def test_denominator_identity_catalog(name):
    from rootsphere.catalog import standard_finite

    entry = standard_finite(name)
    rhs = denominator_rhs(entry.positive)
    assert rhs == expand_product(SupportMap(entry.ambient_dim, {a: 1 for a in entry.positive}))
    assert len(rhs.terms) == entry.expected_weyl_order


@pytest.mark.parametrize("rplus", [[(1, 0), (1, 1)], [(1, 0), (-3, 3)]])
def test_denominator_rhs_of_sets_that_are_not_root_systems(rplus):
    # an acute pair of simple roots, and a pair whose Cartan integer -1/3 is
    # off the integers: bases of no finite type, refused as classify refuses them
    rplus = [vector(a) for a in rplus]
    for f in (enumerate_weyl, denominator_rhs):
        with pytest.raises(ValueError, match="^unrecognized$"):
            f(rplus)


def test_every_positive_system_of_small_types_is_accepted():
    # w(R+) for every w: all positive systems of each type, whose rho pairs to 1 with every simple coroot
    from rootsphere.catalog import standard_finite

    count = 0
    for name in ("A2", "B2", "G2", "A3", "B3", "C3"):
        positive = standard_finite(name).positive
        for w in enumerate_weyl(positive):
            wplus = [mat_vec(w.matrix, a) for a in positive]
            assert denominator_rhs(wplus) == expand_product(SupportMap(len(wplus[0]), {a: 1 for a in wplus}))
            count += 1
    assert count == 146


def test_characterize_multiplicity_two():
    verdict = characterize_finite(SupportMap(3, {A: 2, B: 1, AB: 1}))
    assert not verdict.on_sphere
    assert not verdict.multiplicities_ok
    assert verdict.support_disjoint
    assert verdict.axioms.all_pass()


def test_characterize_raises_when_the_sphere_and_the_axioms_disagree(monkeypatch):
    import rootsphere.quadric as quadric_mod
    from rootsphere.finite_root import VerdictMismatchError
    from rootsphere.quadric import SphereFit

    monkeypatch.setattr(quadric_mod, "_sphere_about", lambda keys, den, a, c: None)
    with pytest.raises(VerdictMismatchError, match="^sphere verdict False disagrees with axiomatic verdict True$"):
        characterize_finite(SupportMap(3, {A: 1, B: 1, AB: 1}))
    monkeypatch.setattr(quadric_mod, "_sphere_about", lambda keys, den, a, c: SphereFit((Q(1), Q(0), Q(-1)), Q(2)))
    with pytest.raises(VerdictMismatchError, match="^sphere verdict True disagrees with axiomatic verdict False$"):
        characterize_finite(SupportMap(3, {A: 2, B: 1, AB: 1}))


def test_characterize_refuses_a_negative_multiplicity_before_expanding(monkeypatch):
    import rootsphere.group_ring as group_ring_mod
    from rootsphere.catalog import remark210_counterexample
    from rootsphere.group_ring import SignedSupportMap

    def no_expansion(m):
        raise AssertionError("expanded a signed map")

    signed = [SignedSupportMap(2, {(1, 0): 1, (-1, 0): -1}), remark210_counterexample()[0]]
    monkeypatch.setattr(group_ring_mod, "expand_product", no_expansion)
    for m in signed:
        with pytest.raises(ValueError, match="^finite check needs nonnegative multiplicities$"):
            characterize_finite(m)


def test_support_is_symmetric_about_rho_and_the_verdict_fit_is_the_general_fit():
    # 1 - e^-s = -e^-s (1 - e^s): the coefficient at 2*rho_m - x is (-1)^(sum m) times the one at x
    rng = random.Random(2424)
    seen = {"sphere": 0, "none": 0, "s and -s": 0, "axioms fail": 0}
    for trial in range(1600):
        # after the first 1000 maps: multiplicities up to 3, and about half the s drawn with -s beside them;
        # after the first 1400, denominators up to 3 too, so the keys' common scale reaches 6
        wide = trial >= 1000
        den = 3 if trial >= 1400 else 2
        dim = rng.randint(1, 3)
        entries = {}
        for _ in range(rng.randint(0, 5)):
            v = vector([Q(rng.randint(-2, 2), rng.randint(1, den)) for _ in range(dim)])
            if any(v):
                entries[v] = rng.randint(1, 3 if wide else 2)
                if wide and rng.random() < 0.5:
                    entries[vneg(v)] = rng.randint(1, 3)
        seen["s and -s"] += any(vneg(v) in entries for v in entries)
        m = SupportMap(dim, entries)
        expansion = expand_product(m)
        two_rho = zero_vector(dim)
        for v, k in entries.items():
            two_rho = vadd(two_rho, tuple(k * c for c in v))
        sign = (-1) ** sum(entries.values())
        for x in expansion.support():
            mirror = tuple(a - b for a, b in zip(two_rho, x))
            assert expansion.coefficient(mirror) == sign * expansion.coefficient(x)
        verdict = characterize_finite(m)
        assert verdict.fit == fit_sphere(expansion.support())
        seen["none" if verdict.fit is None else "sphere"] += 1
        # the verdict's one axiom pass over its flipped keys is check_axioms of S and -S
        assert verdict.axioms == check_axioms(RootSystem(dim, (*entries, *map(vneg, entries))))
        seen["axioms fail"] += not verdict.axioms.all_pass()
        # and it grades them by the lexicographic functional, generic_separator's closed form at 0
        if entries:
            scale = _common_denominator(entries)
            flipped = {max(k, tuple(-x for x in k)) for k in (_int_key(v, scale) for v in entries)}
            assert tuple(_lex_functional(list(flipped))) == generic_separator(list(flipped), zero_vector(dim))
    assert min(seen.values()) > 150, seen


def test_the_verdict_builds_no_more_than_half_the_support(monkeypatch):
    # A6's positives: the half product's accumulator peaks at 4 702 terms, the full expansion's at 6 720;
    # the half's keys are at the verdict's own scale, so no element is rescaled
    import rootsphere.group_ring as group_ring_mod
    from rootsphere.catalog import standard_finite
    from rootsphere.group_ring import ExpansionTooLargeError

    def no_rescale(*xs):
        raise AssertionError("rescaled an element")

    a6 = standard_finite("A6")
    m = SupportMap(a6.ambient_dim, {a: 1 for a in a6.positive})
    monkeypatch.setattr(group_ring_mod, "MAX_EXPANSION_TERMS", 5600)
    monkeypatch.setattr(group_ring_mod, "_common_ints", no_rescale)
    verdict = characterize_finite(m)
    assert verdict.on_sphere and verdict.type_name == "A6"
    with pytest.raises(ExpansionTooLargeError, match="^expansion too large$"):
        expand_product(m)


def test_the_verdict_and_remark_210_fits_solve_no_linear_system(monkeypatch):
    # the center is rho_m, so neither fit eliminates
    import rootsphere.quadric as quadric_mod
    from rootsphere.catalog import remark210_counterexample, standard_finite
    from rootsphere.quadric import SphereFit

    def refuse(*args, **kwargs):
        raise AssertionError("no elimination expected")

    monkeypatch.setattr(quadric_mod, "solve_linear", refuse)
    monkeypatch.setattr(quadric_mod, "span_rank", refuse)
    g2 = standard_finite("G2")
    verdict = characterize_finite(SupportMap(g2.ambient_dim, {a: 1 for a in g2.positive}))
    assert verdict.fit == SphereFit((Q(-2), Q(-1), Q(3)), Q(14)) and verdict.type_name == "G2"
    assert characterize_finite(SupportMap(3, {A: 1, B: 1, AB: 1})).fit == SphereFit((Q(1), Q(0), Q(-1)), Q(2))
    assert characterize_finite(SupportMap(3, {A: 2, B: 1, AB: 1})).fit is None
    assert characterize_finite(SupportMap(2, {})).fit == SphereFit((Q(1), Q(0)), Q(1))
    assert remark210_counterexample()[2] == SphereFit((Q(1), Q(1), Q(1), Q(1)), Q(4))


def test_characterize_missing_root():
    verdict = characterize_finite(SupportMap(3, {A: 1, B: 1}))
    assert not verdict.on_sphere
    assert not verdict.axioms.fr2


def test_characterize_a2_positive():
    m = SupportMap(3, {A: 1, B: 1, AB: 1})
    v = characterize_finite(m)
    assert v.on_sphere
    assert v.fit == type(v.fit)((Q(1), Q(0), Q(-1)), Q(2))
    assert v.type_name == "A2"
    assert v.recovered is not None and len(v.recovered.roots) == 6


def test_characterize_shifted_support():
    # replacing the highest root by its negative keeps the sphere property;
    # the center moves to the half-sum of the new support
    m = SupportMap(3, {A: 1, B: 1, vneg(AB): 1})
    v = characterize_finite(m)
    assert v.on_sphere
    assert v.fit.center == zero_vector(3)
    assert v.type_name == "A2"


def test_characterize_nonreduced_extra():
    m = SupportMap(3, {A: 1, B: 1, AB: 1, vadd(AB, AB): 1})
    v = characterize_finite(m)
    assert not v.on_sphere
    assert not v.axioms.fr5


def test_center_is_half_sum_when_on_sphere():
    cases = [
        {A: 1, B: 1, AB: 1},
        {A: 1, B: 1, vneg(AB): 1},
        {vector([1]): 1},
    ]
    for entries in cases:
        dim = len(next(iter(entries)))
        v = characterize_finite(SupportMap(dim, entries))
        assert v.on_sphere
        assert v.fit.center == weyl_vector(list(entries))


def test_classify_names():
    assert classify(RootSystem(3, A2_ROOTS)) == "A2"
    assert classify(RootSystem(2, B2_ROOTS)) == "B2"
    four = [vector([1, 0]), vector([-1, 0]), vector([0, 1]), vector([0, -1])]
    assert classify(RootSystem(2, four)) == "A1×A1"
    bad = RootSystem(2, [vector([1, 0]), vector([-1, 0]),
                         vector(["1/3", 1]), vector(["-1/3", -1])])
    with pytest.raises(ValueError, match="unrecognized"):
        classify(bad)
    # a base of A1×A1 whose orbit is not the whole set: a root too few, or one too many
    for roots in ([(1, 0), (-1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)],
                  [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]):
        rs = RootSystem(2, [vector(a) for a in roots])
        with pytest.raises(ValueError, match="not a root system"):
            classify(rs)
        with pytest.raises(ValueError, match="not a root system"):
            weyl_order(rs.roots)


def test_components_by_least_member_with_members_ascending():
    vectors = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 0, 0)]
    assert _components([vector(v) for v in vectors]) == [[0, 1, 2], [3], [4]]


@pytest.mark.parametrize("names, expected, order", [
    (("A2", "B2"), "A2×B2", 48),
    (("G2", "A1", "A1"), "G2×A1×A1", 48),
    (("D4", "A3"), "D4×A3", 4608),
    (("B3", "B3"), "B3×B3", 2304),
    (("A1", "E6"), "E6×A1", 103680),
])
def test_classify_and_weyl_order_of_catalog_products(names, expected, order):
    from rootsphere.catalog import standard_finite

    # each factor's catalog roots in its own block of coordinates
    entries = [standard_finite(name) for name in names]
    dim = sum(e.ambient_dim for e in entries)
    roots, offset = [], 0
    for e in entries:
        pad = (Q(0),) * (dim - offset - e.ambient_dim)
        roots += [(Q(0),) * offset + a + pad for a in e.roots.roots]
        offset += e.ambient_dim
    assert classify(RootSystem(dim, roots)) == expected
    assert weyl_order(roots) == order


def test_orbit_walk_refuses_a_rho_on_a_mirror():
    # a B2 base whose rho = (0, 1/2) lies on the mirror of (1, 0): <rho, (1, 0)^v> is 0, not 1
    rplus = [vector([1, 0]), vector([-1, 1])]
    for f in (enumerate_weyl, denominator_rhs):
        with pytest.raises(ValueError, match="^not a positive system: rho does not pair to 1 with every simple coroot$"):
            f(rplus)


def test_orbit_walk_safety_checks():
    from rootsphere.finite_root import _orbit_walk

    one, two, three = vector([1]), vector([2]), vector([3])
    # the reflections in (1) and (2) are one reflection: s(s_2 s_1) = s_2((1)) + (2) = (1) = s(s_1), a node of depth 1 met at depth 2
    with pytest.raises(ArithmeticError, match=r"^orbit collision: w -> s\(w\) was not injective$"):
        _orbit_walk([one, two], [one, two], 100)
    # from s = (1), the coefficient 2<(3), (1)>/<(3), (3)> is 2/3
    with pytest.raises(ArithmeticError, match="^reflection coefficient is not an integer$"):
        _orbit_walk([three], [one], 100)


def test_classify_names_exactly_the_sets_that_pass_the_axioms():
    rng = random.Random(16)
    named = rejected = 0
    for _ in range(3000):
        dim = rng.randint(1, 3)
        vs = {tuple(Q(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(rng.randint(1, 4))}
        vs.discard(zero_vector(dim))
        rs = RootSystem(dim, (*vs, *map(vneg, vs)))
        if not vs:
            # the empty set passes every axiom but has no type to name
            assert check_axioms(rs).all_pass()
            with pytest.raises(ValueError, match="empty root set"):
                classify(rs)
            continue
        try:
            classify(rs)
            ok = True
        except ValueError:
            ok = False
        assert ok == check_axioms(rs).all_pass(), rs
        named += ok
        rejected += not ok
    assert named > 500 and rejected > 500


CATALOG_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
    + ["A12", "B12", "C12", "D12"]
)


@pytest.mark.parametrize("name", CATALOG_TYPES)
def test_classify_components_of_relabelled_simple_roots(name):
    from rootsphere.catalog import standard_finite

    pos = standard_finite(name).positive
    simples = base(pos)
    rng = random.Random(name)
    for _ in range(3):
        rng.shuffle(simples)
        assert _classify_components(simples) == [(name[0], int(name[1:]))]
    # the highest root maximizes <a, rho>; with its negative added the
    # diagram is the extended (affine) one, which is of no finite type
    rho = weyl_vector(pos)
    highest = max(pos, key=lambda a: inner(a, rho))
    with pytest.raises(ValueError, match="unrecognized"):
        _classify_components(simples + [vneg(highest)])


@pytest.mark.parametrize(
    "simples",
    [
        [(1, -1, 0), (0, 1, -1), (-1, 0, 1)],  # affine A2: a cycle
        [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1), (-1, -1, 0, 0)],  # affine D4
        [(1, -1, 0), (-2, 1, 1), (1, 1, -2)],  # affine G2
        [(2, 0), (-1, 1), (0, -2)],  # affine C2
        [(1, 0), (1, 1)],  # an acute pair: positive Cartan entries
    ],
)
def test_classify_components_rejects_diagrams_of_no_finite_type(simples):
    with pytest.raises(ValueError, match="unrecognized"):
        _classify_components([vector(a) for a in simples])


def test_dual_route_never_disagrees():
    rng = random.Random(99)
    checked = 0
    while checked < 120:
        dim = rng.randint(1, 3)
        entries = {}
        for _ in range(rng.randint(1, 4)):
            v = tuple(Q(rng.randint(-2, 2)) for _ in range(dim))
            if all(c == 0 for c in v):
                continue
            entries[v] = rng.randint(1, 2)
        if not entries:
            continue
        characterize_finite(SupportMap(dim, entries))
        checked += 1


def test_root_system_json_round_trip():
    rs = RootSystem(3, A2_ROOTS)
    assert root_system_from_json(root_system_to_json(rs)) == rs


def test_verdict_json_keys():
    v = characterize_finite(SupportMap(3, {A: 1, B: 1, AB: 1}))
    d = finite_verdict_to_json(v)
    assert d["on_sphere"] is True
    assert d["type"] == "A2"
    assert d["fit"] == {"center": ["1", "0", "-1"], "radius_sq": "2"}
    assert set(d["axioms"]) == {"fr1", "fr2", "fr3", "fr4", "fr5", "rank"}
