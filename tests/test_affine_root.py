"""Affine layer: extended reflections, truncated supports, alternating Weyl sums,
and the paraboloid criterion."""

import random
from math import floor

import pytest

from rootsphere.affine_root import (
    AffineAxiomReport,
    ExplicitAffineSupport,
    GeneratedAffineSupport,
    _affine_base,
    affine_reflect_point,
    affine_reflect_vec,
    affine_reflection_matrix,
    affine_vector_from_json,
    affine_vector_to_json,
    affine_verdict_to_json,
    affine_weyl_rhs,
    characterize_affine,
    check_affine_axioms,
    decompose,
    enumerate_support,
    explicit_spec_from_json,
    explicit_spec_to_json,
    grade,
    imaginary_roots,
    linear_form,
)
from rootsphere.catalog import untwisted_affine
from rootsphere.exact import (
    AffineVector,
    Q,
    affine,
    inner,
    norm_sq,
    span_rank,
    vector,
    vneg,
    vscale,
    vsub,
    zero_vector,
)
from rootsphere.finite_root import (
    GroupTooLargeError,
    RootSystem,
    identity_matrix,
    mat_det,
    mat_mul,
    mat_vec,
    reflect,
    reflection_matrix,
)
from rootsphere.group_ring import monomial, mul, truncated_product

A = vector([1, -1, 0])
B = vector([0, 1, -1])


def a1_spec(cutoff, grading_part="1/2"):
    return GeneratedAffineSupport(
        dim=1,
        roots=(vector([1]), vector([-1])),
        grading=affine(1, [grading_part]),
        cutoff=Q(cutoff),
    )


def test_reflect_point_examples():
    # level 0 reduces to the finite reflection
    assert affine_reflect_point(affine(0, [1]), vector([3])) == vector([-3])
    # level shifts the mirror off the origin
    assert affine_reflect_point(affine(1, [1]), vector([0])) == vector([-2])
    # zeros of the affine form are fixed
    x = vector([-1])
    assert linear_form(affine(1, [1]), x) == 0
    assert affine_reflect_point(affine(1, [1]), x) == x


def test_reflect_vec_examples():
    a = affine(1, [1])
    assert affine_reflect_vec(a, a) == AffineVector(Q(-1), (Q(-1),))
    iso = affine(2, [0])
    assert affine_reflect_vec(a, iso) == iso
    got = affine_reflect_vec(affine(0, A), affine(1, B))
    assert got == AffineVector(Q(1), (Q(1), Q(0), Q(-1)))


def test_reflect_isotropic_errors():
    iso = affine(1, [0, 0])
    with pytest.raises(ValueError):
        affine_reflect_point(iso, vector([1, 1]))
    with pytest.raises(ValueError):
        affine_reflect_vec(iso, affine(0, [1, 0]))
    with pytest.raises(ValueError):
        affine_reflection_matrix(iso)


def test_reflect_vec_properties():
    rng = random.Random(13)
    for _ in range(40):
        dim = rng.randint(1, 3)
        a = AffineVector(
            Q(rng.randint(-2, 2)), tuple(Q(rng.randint(-2, 2)) for _ in range(dim))
        )
        if norm_sq(a.part) == 0:
            continue
        v = AffineVector(
            Q(rng.randint(-3, 3)), tuple(Q(rng.randint(-3, 3)) for _ in range(dim))
        )
        w = affine_reflect_vec(a, v)
        assert affine_reflect_vec(a, w) == v
        # the part transforms by the finite reflection
        assert w.part == reflect(v.part, a.part)
        assert norm_sq(w.part) == norm_sq(v.part)
        m = affine_reflection_matrix(a)
        assert mat_vec(m, v.flatten()) == w.flatten()
        assert mat_det(m) == -1


def test_reflection_pullback():
    # reflecting both the root and the point preserves the affine form
    rng = random.Random(31)
    for _ in range(30):
        dim = rng.randint(1, 3)

        def rav():
            return AffineVector(
                Q(rng.randint(-2, 2)), tuple(Q(rng.randint(-2, 2)) for _ in range(dim))
            )

        b, a = rav(), rav()
        if norm_sq(b.part) == 0:
            continue
        x = tuple(Q(rng.randint(-3, 3)) for _ in range(dim))
        lhs = linear_form(affine_reflect_vec(b, a), affine_reflect_point(b, x))
        assert lhs == linear_form(a, x)


# The four reflections as each spelled out its own formula before they shared one (mirror, root) home:
# the reference of test_reflections_match_their_own_formulas.


def _own_reflect(v, a):
    a = vector(a)
    v = vector(v)
    nn = norm_sq(a)
    if nn == 0:
        raise ValueError("cannot reflect in the zero vector")
    return vsub(v, vscale(2 * inner(a, v) / nn, a))


def _own_reflection_matrix(a):
    a = vector(a)
    nn = norm_sq(a)
    if nn == 0:
        raise ValueError("cannot reflect in the zero vector")
    return tuple(tuple((Q(1) if i == j else Q(0)) - 2 * a[i] * a[j] / nn for j in range(len(a))) for i in range(len(a)))


def _own_affine_reflect_vec(a, v):
    nn = norm_sq(a.part)
    if nn == 0:
        raise ValueError("cannot reflect in an isotropic vector")
    t = 2 * inner(a.part, v.part) / nn
    return AffineVector(v.level - t * a.level, vsub(v.part, vscale(t, a.part)))


def _own_affine_reflection_matrix(a):
    nn = norm_sq(a.part)
    if nn == 0:
        raise ValueError("cannot reflect in an isotropic vector")
    p, n = a.part, a.dim
    top = (Q(1),) + tuple(-2 * p[j] * a.level / nn for j in range(n))
    return (top,) + tuple(
        (Q(0),) + tuple((Q(1) if i == j else Q(0)) - 2 * p[i] * p[j] / nn for j in range(n)) for i in range(n)
    )


def _outcome(f, *args):
    """repr of f(*args), so that a Fraction and an int of one value differ, or the type and text of its error."""
    try:
        return repr(f(*args))
    except Exception as exc:
        return type(exc), str(exc)


def test_reflections_match_their_own_formulas():
    rng = random.Random(26)

    def vec(dim):
        # zero about one time in four, so that the mirror is often zero or isotropic
        if rng.random() < 0.25:
            return zero_vector(dim)
        return tuple(Q(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(dim))

    seen = set()
    for _ in range(400):
        dim = rng.randint(0, 3)
        # another length about one time in ten, so that "dimension mismatch" is compared too
        other = dim + 1 if rng.random() < 0.1 else dim
        a, v = vec(dim), vec(other)
        la, lv = Q(rng.randint(-2, 2), rng.choice((1, 2))), Q(rng.randint(-2, 2), rng.choice((1, 3)))
        pairs = [
            (_outcome(reflect, v, a), _outcome(_own_reflect, v, a)),
            (_outcome(reflection_matrix, a), _outcome(_own_reflection_matrix, a)),
            (
                _outcome(affine_reflect_vec, AffineVector(la, a), AffineVector(lv, v)),
                _outcome(_own_affine_reflect_vec, AffineVector(la, a), AffineVector(lv, v)),
            ),
            (_outcome(affine_reflection_matrix, AffineVector(la, a)), _outcome(_own_affine_reflection_matrix, AffineVector(la, a))),
        ]
        for got, expected in pairs:
            assert got == expected, (a, la, v, lv)
            seen.add(expected[1] if isinstance(expected, tuple) else "value")
    assert seen == {"value", "cannot reflect in the zero vector", "cannot reflect in an isotropic vector", "dimension mismatch"}


def test_enumerate_a1_cutoff_two():
    got = enumerate_support(a1_spec(2))
    expected = [
        (AffineVector(Q(0), (Q(1),)), 1),
        (AffineVector(Q(1), (Q(-1),)), 1),
        (AffineVector(Q(1), (Q(0),)), 1),
        (AffineVector(Q(1), (Q(1),)), 1),
        (AffineVector(Q(2), (Q(-1),)), 1),
        (AffineVector(Q(2), (Q(0),)), 1),
    ]
    assert got == expected


def _brute_force_items(roots, grading, cutoff, period, window=80):
    """The items of a generated spec by definition, or the message its constructor must raise.

    Every (k*period; a) over the roots and every (k*period; 0) with multiplicity the rank, for
    |k| <= window, kept when 0 < grade <= cutoff and sorted by grade, then level, then part.
    """
    ladders = [(AffineVector(k * period, a), 1) for a in roots for k in range(-window, window + 1)]
    if any(grade(av, grading) == 0 for av, _ in ladders):
        return "grading not generic: a ladder hits grade 0"
    rank = span_rank(roots)[0]
    ladders += [(AffineVector(k * period, zero_vector(grading.dim)), rank) for k in range(1, window + 1)]
    kept = [(av, m) for av, m in ladders if 0 < grade(av, grading) <= cutoff]
    # the window is wide enough: no kept item is at its ends
    assert all(abs(av.level) < window * period for av, _ in kept)
    return sorted(kept, key=lambda t: (grade(t[0], grading), t[0].level, t[0].part)) if kept else "empty support"


def _random_generated_args(rng, count):
    """Seeded (dim, roots, grading, cutoff, period) of GeneratedAffineSupports, with rational roots,
    periods and gradings; half the cutoffs are the grade of a ladder point, real or isotropic."""
    coords = [Q(-1), Q(-1, 2), Q(0), Q(1, 2), Q(1)]
    for _ in range(count):
        dim = rng.randint(1, 3)
        picked = {tuple(rng.choice(coords) for _ in range(dim)) for _ in range(rng.randint(1, 3))}
        roots = tuple({r for r in picked | {vneg(r) for r in picked} if any(r)})
        if not roots:
            continue
        period = rng.choice([Q(1, 2), Q(2, 3), Q(1), Q(2), Q(3)])
        grading = AffineVector(
            rng.choice([Q(1, 3), Q(1, 2), Q(1), Q(3, 2), Q(2)]),
            tuple(Q(rng.randint(-2, 2), rng.choice((1, 2, 3, 7))) for _ in range(dim)),
        )
        draw = rng.random()
        if draw < 0.5:
            # the grade of a ladder point, real or isotropic, as the cutoff
            a = rng.choice(roots + (zero_vector(dim),))
            cutoff = rng.randint(1, 4) * period * grading.level + inner(a, grading.part)
            cutoff = cutoff if cutoff > 0 else period * grading.level
        elif draw < 0.9:
            cutoff = Q(rng.randint(1, 8), rng.choice((2, 3)))
        else:
            cutoff = Q(1, 100)
        yield dim, roots, grading, cutoff, period


def test_generated_items_match_a_brute_force_enumeration():
    seen = set()
    for dim, roots, grading, cutoff, period in _random_generated_args(random.Random(20), 120):
        try:
            got = enumerate_support(GeneratedAffineSupport(dim, roots, grading, cutoff, period))
        except ValueError as exc:
            got = str(exc)
        expected = _brute_force_items(roots, grading, cutoff, period)
        assert got == expected, (roots, grading, cutoff, period)
        if isinstance(expected, str):
            seen.add(expected)
        else:
            seen.add("cutoff hit" if grade(expected[-1][0], grading) == cutoff else "cutoff missed")
        seen.add(("level", grading.level == 1))
    assert seen == {
        "cutoff hit",
        "cutoff missed",
        "grading not generic: a ladder hits grade 0",
        "empty support",
        ("level", True),
        ("level", False),
    }


def _own_generated_items(dim, roots, grading, cutoff, period):
    """The items of GeneratedAffineSupport as it built and checked them itself, before it shared
    ExplicitAffineSupport's item check; cutoff and period are positive Fractions."""
    roots = RootSystem(dim, roots).roots
    step = period * grading.level
    items = []
    for a in roots:
        g0 = inner(a, grading.part)
        lo, hi = -g0 / step, (cutoff - g0) / step
        if lo.denominator == 1:
            raise ValueError("grading not generic: a ladder hits grade 0")
        items += [(AffineVector(k * period, a), 1) for k in range(floor(lo) + 1, floor(hi) + 1)]
    mult = span_rank(roots)[0]
    if mult <= 0:
        raise ValueError("multiplicities must be positive")
    items += [(AffineVector(k * period, zero_vector(dim)), mult) for k in range(1, floor(cutoff / step) + 1)]
    if not items:
        raise ValueError("empty support")
    return tuple(sorted(items, key=lambda t: (grade(t[0], grading), t[0].level, t[0].part)))


def test_generated_items_match_their_own_check():
    cases = list(_random_generated_args(random.Random(26), 200))
    half = affine(1, ["1/2"])
    cases += [
        # rank 0, below and above the first isotropic rung, and with a grading of another dimension
        (1, (), half, Q(1, 4), Q(1)),
        (1, (), half, Q(3), Q(1, 2)),
        (3, (), affine(1, [1]), Q(1, 2), Q(1)),
        # a grading of another dimension than the roots
        (2, (vector([1, 0]), vector([-1, 0])), half, Q(2), Q(1)),
    ]
    seen = set()
    for args in cases:
        expected = _outcome(_own_generated_items, *args)
        assert _outcome(lambda: GeneratedAffineSupport(*args).items) == expected, args
        seen.add(expected[1] if isinstance(expected, tuple) else "items")
    assert seen == {
        "items",
        "grading not generic: a ladder hits grade 0",
        "empty support",
        "multiplicities must be positive",
        "dimension mismatch",
    }


def test_enumerate_explicit_passthrough():
    item = (affine(1, [1]), 2)
    spec = ExplicitAffineSupport(dim=1, items=(item,), grading=affine(1, [0]), cutoff=Q(2))
    assert enumerate_support(spec) == [item]


def test_enumerate_validation():
    with pytest.raises(ValueError, match="empty support"):
        enumerate_support(a1_spec(Q(1, 4)))
    with pytest.raises(ValueError, match="not generic"):
        enumerate_support(a1_spec(2, grading_part="1"))
    with pytest.raises(ValueError, match="grade > C or <= 0"):
        ExplicitAffineSupport(
            dim=1, items=((affine(5, [0]), 1),), grading=affine(1, [0]), cutoff=Q(2)
        )
    with pytest.raises(ValueError, match="m\\(0\\)"):
        ExplicitAffineSupport(
            dim=1, items=((affine(0, [0]), 1),), grading=affine(1, [0]), cutoff=Q(2)
        )
    with pytest.raises(ValueError, match="multiplicities"):
        ExplicitAffineSupport(
            dim=1, items=((affine(1, [1]), 0),), grading=affine(1, [0]), cutoff=Q(2)
        )
    with pytest.raises(ValueError, match="grading level"):
        ExplicitAffineSupport(
            dim=1, items=((affine(1, [1]), 1),), grading=affine(0, [1]), cutoff=Q(2)
        )
    with pytest.raises(ValueError, match="cutoff"):
        a1_spec(0)
    with pytest.raises(ValueError, match="period"):
        GeneratedAffineSupport(
            dim=1,
            roots=(vector([1]),),
            grading=affine(1, ["1/2"]),
            cutoff=Q(1),
            period=Q(-1),
        )
    # a grading, item or root of another dimension, and a zero root, are refused when the spec is built
    with pytest.raises(ValueError, match="dimension mismatch"):
        GeneratedAffineSupport(3, (vector([1, -1, 0]),), affine(1, [1]), Q(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        ExplicitAffineSupport(dim=3, items=((affine(1, [1, -1, 0]), 1),), grading=affine(1, [1]), cutoff=Q(3))
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        ExplicitAffineSupport(dim=1, items=((affine(1, [1]), 1), (affine(1, [1, 0]), 1)), grading=affine(1, [1]), cutoff=Q(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        GeneratedAffineSupport(1, (vector([1]), vector([1, 0])), affine(1, ["1/2"]), Q(1))
    with pytest.raises(ValueError, match="0 is not a root"):
        GeneratedAffineSupport(1, (vector([1]), vector([0])), affine(1, ["1/2"]), Q(1))
    # no roots: rank 0 would give the isotropic items multiplicity 0
    with pytest.raises(ValueError, match="multiplicities must be positive"):
        GeneratedAffineSupport(1, (), affine(1, ["1/2"]), 2)
    # the grading's dimension is checked where grade() pairs it with an item or a root, so a spec
    # with neither is refused for being empty
    with pytest.raises(ValueError, match="^empty support$"):
        ExplicitAffineSupport(dim=3, items=(), grading=affine(1, [1]), cutoff=Q(3))
    with pytest.raises(ValueError, match="^multiplicities must be positive$"):
        GeneratedAffineSupport(3, (), affine(1, [1]), Q(3))


def test_explicit_rejects_non_integer_multiplicities():
    with pytest.raises(ValueError):
        ExplicitAffineSupport(dim=1, items=((affine(1, [1]), Q(3, 2)),), grading=affine(1, [0]), cutoff=Q(2))
    with pytest.raises(TypeError):
        ExplicitAffineSupport(dim=1, items=((affine(1, [1]), 1.5),), grading=affine(1, [0]), cutoff=Q(2))
    d = {
        "kind": "explicit",
        "dim": 1,
        "items": [{"level": "1", "v": ["1"], "mult": 1.5}],
        "grading": {"level": "1", "v": ["0"]},
        "cutoff": "2",
    }
    with pytest.raises(TypeError):
        explicit_spec_from_json(d)


def test_explicit_merges_duplicates():
    spec = ExplicitAffineSupport(
        dim=1,
        items=((affine(1, [1]), 1), (affine(1, [1]), 2)),
        grading=affine(1, [0]),
        cutoff=Q(2),
    )
    assert spec.items == ((affine(1, [1]), 3),)


def test_decompose_ladders():
    real = [av for av, _ in enumerate_support(a1_spec(2)) if av.part != (Q(0),)]
    view = decompose(real)
    assert view.r1 == ()
    assert view.rinf == ((Q(-1),), (Q(1),))
    assert view.u == {(Q(1),): Q(1), (Q(-1),): Q(1)}
    assert view.q[(Q(1),)] == AffineVector(Q(0), (Q(1),))
    assert view.q[(Q(-1),)] == AffineVector(Q(1), (Q(-1),))


def test_decompose_single_levels():
    from rootsphere.exact import vneg

    roots = [A, B, tuple(a + b for a, b in zip(A, B))]
    roots = roots + [vneg(r) for r in roots]
    view = decompose([AffineVector(Q(0), r) for r in roots])
    assert len(view.r1) == 6
    assert view.rinf == ()


def test_decompose_errors():
    with pytest.raises(ValueError, match="non-arithmetic"):
        decompose(
            [AffineVector(Q(k), (Q(1),)) for k in (0, 1, 3)]
        )
    with pytest.raises(ValueError, match="isotropic"):
        decompose([AffineVector(Q(1), (Q(0),))])


def test_imaginary_roots_a1():
    real = [av for av, _ in enumerate_support(a1_spec(2)) if av.part != (Q(0),)]
    view = decompose(real)
    got = imaginary_roots(view, [vector([1])], Q(2), affine(1, ["1/2"]))
    assert got == [
        (AffineVector(Q(1), (Q(0),)), 1),
        (AffineVector(Q(2), (Q(0),)), 1),
    ]
    assert imaginary_roots(view, [], Q(2), affine(1, ["1/2"])) == []


@pytest.mark.parametrize("level", ["0", "-1"])
def test_imaginary_roots_refuse_a_grading_level_that_is_not_positive(level):
    view = decompose([AffineVector(Q(k), (Q(1),)) for k in (0, 1)])
    with pytest.raises(ValueError, match="^grading level must be positive$"):
        imaginary_roots(view, [vector([1])], Q(2), AffineVector(Q(level), (Q(1, 2),)))


def test_imaginary_roots_below_a_cutoff_that_is_not_positive_are_none():
    view = decompose([AffineVector(Q(k), (Q(1),)) for k in (0, 1)])
    for cutoff in (Q(0), Q(-1)):
        assert imaginary_roots(view, [vector([1])], cutoff, affine(1, ["1/2"])) == []


def test_imaginary_roots_match_generated_a2():
    from rootsphere.finite_root import RootSystem, base, positive_roots
    from rootsphere.exact import vneg

    spec = untwisted_affine("A2", 2)
    items = enumerate_support(spec)
    iso = [(av, m) for av, m in items if all(x == 0 for x in av.part)]
    assert iso and all(m == 2 for _, m in iso)
    real = [av for av, m in items if any(x != 0 for x in av.part)]
    view = decompose(real)
    parts = sorted({av.part for av in real})
    proj = RootSystem(spec.dim, tuple(parts) + tuple(vneg(p) for p in parts))
    dirs = base(positive_roots(proj).rplus)
    got = imaginary_roots(view, dirs, spec.cutoff, spec.grading)
    assert got == sorted(iso, key=lambda t: t[0].level)


def test_axioms_a1_all_pass():
    rep = check_affine_axioms(a1_spec(5))
    assert rep.all_pass()
    assert rep.irreducible
    assert rep.rank == 2
    assert rep.real_count == 10


def test_axioms_missing_real_breaks_closure():
    items = enumerate_support(a1_spec(2))
    reduced = tuple((av, m) for av, m in items if av != AffineVector(Q(1), (Q(1),)))
    spec = ExplicitAffineSupport(
        dim=1, items=reduced, grading=affine(1, ["1/2"]), cutoff=Q(2)
    )
    rep = check_affine_axioms(spec)
    assert not rep.ar2
    assert rep.ar1 and rep.ar3 and rep.ar4 and rep.ar5 and rep.irreducible


def test_axioms_orthogonal_ladders_reducible():
    spec = GeneratedAffineSupport(
        dim=2,
        roots=(vector([1, 0]), vector([-1, 0]), vector([0, 1]), vector([0, -1])),
        grading=affine(1, ["1/3", "1/7"]),
        cutoff=Q(2),
    )
    rep = check_affine_axioms(spec)
    assert rep.all_pass()
    assert not rep.irreducible


def _parallel(f, h):
    """All 2x2 minors of the pair vanish."""
    return all(x * h[j] == f[j] * y for i, (x, y) in enumerate(zip(f, h)) for j in range(i))


def _affine_axioms_by_definition(spec):
    """AR2, AR3, AR5 and irreducibility from the Fraction definitions, pair by pair."""
    pm = [av for av, _ in enumerate_support(spec) if any(av.part)]
    pm += [AffineVector(-av.level, tuple(-c for c in av.part)) for av in pm]
    flat = {av.flatten() for av in pm}
    ar2 = all(
        abs(grade(img, spec.grading)) > spec.cutoff or img.flatten() in flat
        for a in pm
        for img in (affine_reflect_vec(a, b) for b in pm)
    )
    ar3 = all((2 * inner(a.part, b.part) / norm_sq(a.part)).denominator == 1 for a in pm for b in pm)
    ar5 = all(f == h or f == tuple(-c for c in h) or not _parallel(f, h) for f in flat for h in flat)
    parts = {av.part for av in pm}
    reached = {min(parts)} if parts else set()
    grown = True
    while grown:
        new = {p for p in parts if p not in reached and any(inner(p, q) != 0 for q in reached)}
        reached |= new
        grown = bool(new)
    return ar2, ar3, ar5, bool(parts) and reached == parts


def _random_explicit_specs(rng, count):
    """Seeded ExplicitAffineSupports: truncated catalog supports, some with an
    item dropped, a ladder scaled or a parallel item added, and random
    rational items with parallel multiples and reflection images."""
    for _ in range(count):
        if rng.random() < 0.4:
            gen = untwisted_affine(rng.choice(["A1", "A2", "B2", "G2"]), rng.choice([1, 2]))
            grading, cutoff = gen.grading, gen.cutoff
            items = list(enumerate_support(gen))
            real = [i for i, (av, _) in enumerate(items) if any(av.part)]
            move = rng.random()
            if move < 0.2:
                del items[rng.choice(real)]
            elif move < 0.35:
                # truncate at the grade of a real item and drop it: an image
                # of grade exactly the cutoff goes missing
                i = rng.choice(real)
                cutoff = grade(items[i][0], grading)
                del items[i]
            elif move < 0.55:
                # one direction's ladder scaled by a rational: images stay lattice
                # points, pairings need not be integers
                d = items[rng.choice(real)][0].part
                t = Q(rng.choice([1, 3]), rng.choice([2, 3]))
                items = [(AffineVector(t * av.level, tuple(t * c for c in av.part)), m)
                         if av.part in (d, tuple(-c for c in d)) else (av, m) for av, m in items]
            elif move < 0.75:
                av = items[rng.choice(real)][0]
                items.append((AffineVector(av.level / 2, tuple(c / 2 for c in av.part)), 1))
        else:
            dim = rng.randint(1, 2)
            grading = AffineVector(Q(1), tuple(Q(rng.randint(1, 4), rng.choice([5, 7])) for _ in range(dim)))
            cutoff = Q(rng.randint(2, 6), 2)
            items = []
            for _ in range(rng.randint(1, 6)):
                part = tuple(Q(rng.randint(-2, 2), rng.choice([1, 2, 3])) for _ in range(dim))
                items.append((AffineVector(Q(rng.randint(0, 4), 2), part), 1))
            for av, _ in list(items):
                t = rng.choice([None, Q(2), Q(1, 2), Q(-3)])
                if t is not None:
                    items.append((AffineVector(t * av.level, tuple(t * c for c in av.part)), 1))
            for _ in range(rng.randint(0, 3)):
                a, b = rng.choice(items)[0], rng.choice(items)[0]
                if any(a.part):
                    items.append((affine_reflect_vec(a, b), 1))
        items = [(av, m) for av, m in items
                 if (av.level or any(av.part)) and 0 < grade(av, grading) <= cutoff]
        if items:
            yield ExplicitAffineSupport(len(grading.part), tuple(items), grading, cutoff)


def test_affine_axioms_match_fraction_definitions():
    rng = random.Random(2718)
    seen = set()
    # s_(2; -3) sends (2; 1) to (10/3; -1), which is no item, of grade 41/15 <= 11/4, so AR2
    # fails; keyed at scale 5 that grade is 205/3, above floor(11/4 * 5^2) = 68, so a grade
    # cap floored to an integer would call the image outside the cutoff
    fixed = [ExplicitAffineSupport(1, ((affine(2, [-3]), 1), (affine(2, [1]), 1)), affine(1, ["3/5"]), Q(11, 4))]
    for spec in [*fixed, *_random_explicit_specs(rng, 100)]:
        rep = check_affine_axioms(spec)
        expected = _affine_axioms_by_definition(spec)
        assert (rep.ar2, rep.ar3, rep.ar5, rep.irreducible) == expected
        seen.add(expected[:3])
        items = enumerate_support(spec)
        flat = {av.flatten() for av, _ in items}
        sums = {tuple(x + y for x, y in zip(f, h)) for f in flat for h in flat}
        got = _affine_base(items, spec.grading)
        assert set(got) == {av for av, _ in items if any(av.part) and av.flatten() not in sums}
    # closed supports with and without integral pairings, and parallel items
    assert {(True, True, True), (True, False, True), (False, False, True), (True, True, False)} <= seen


def test_affine_base_a1():
    items = enumerate_support(a1_spec(3))
    got = _affine_base(items, affine(1, ["1/2"]))
    assert got == [AffineVector(Q(0), (Q(1),)), AffineVector(Q(1), (Q(-1),))]


def test_weyl_rhs_smallest_cutoff():
    spec = a1_spec(Q(1, 3), grading_part="1/3")
    rhs = affine_weyl_rhs(spec)
    assert rhs.terms == {(Q(0), Q(0)): Q(1), (Q(0), Q(1)): Q(-1)}


def test_weyl_rhs_refuses_roots_that_are_not_a_root_system():
    # the pruning is exact only on a root system; over +-1, +-1/2, +-3 the unpruned walk finds ever
    # more vectors of grade <= 2/3, (0; -10) among them, so no finite sum is the truncated one
    for roots, grading in ((("1", "1/2", "3"), "2/21"), (("1/2", "3"), "4/7")):
        spec = GeneratedAffineSupport(1, tuple((s * Q(c),) for c in roots for s in (1, -1)), affine(1, [grading]), Q(2, 3))
        with pytest.raises(ValueError, match="^unrecognized$"):
            affine_weyl_rhs(spec)


def test_weyl_rhs_a1_cutoff_two():
    rhs = affine_weyl_rhs(a1_spec(2))
    assert rhs.terms == {
        (Q(0), Q(0)): Q(1),
        (Q(0), Q(1)): Q(-1),
        (Q(1), Q(-1)): Q(-1),
        (Q(1), Q(2)): Q(1),
        (Q(3), Q(-2)): Q(1),
    }


def test_weyl_rhs_identity_term_always_present():
    for spec in (a1_spec(1), a1_spec(2), untwisted_affine("A1", 2)):
        rhs = affine_weyl_rhs(spec)
        assert rhs.coefficient(zero_vector(1 + spec.dim)) == 1


def test_weyl_rhs_needs_generated_spec():
    spec = ExplicitAffineSupport(
        dim=1, items=((affine(1, [1]), 1),), grading=affine(1, [0]), cutoff=Q(2)
    )
    with pytest.raises(ValueError, match="generated"):
        affine_weyl_rhs(spec)


def test_truncated_identity_a1():
    for c in (Q(2), Q(4)):
        spec = a1_spec(c)
        items = enumerate_support(spec)
        lhs = truncated_product(
            [(av.flatten(), m) for av, m in items], spec.grading.flatten(), c
        )
        assert lhs == affine_weyl_rhs(spec)


@pytest.mark.parametrize("name, cutoff", [("G2", 4), ("A3", 3), ("B3", 3)])
def test_truncated_identity_catalog(name, cutoff):
    spec = untwisted_affine(name, cutoff)
    factors = [(av.flatten(), m) for av, m in enumerate_support(spec)]
    assert truncated_product(factors, spec.grading.flatten(), spec.cutoff) == affine_weyl_rhs(spec)


def test_weyl_rhs_bound_counts_kept_elements():
    spec = untwisted_affine("A2", 6)
    kept = len(affine_weyl_rhs(spec).terms)
    assert affine_weyl_rhs(spec, bound=kept).terms
    with pytest.raises(GroupTooLargeError, match="group too large"):
        affine_weyl_rhs(spec, bound=5)
    with pytest.raises(GroupTooLargeError, match="group too large"):
        affine_weyl_rhs(spec, bound=kept - 1)


def _brute_ball(spec, max_len):
    """All group elements of word length <= max_len, keyed by matrix."""
    simples = _affine_base(enumerate_support(spec), spec.grading)
    gens = [affine_reflection_matrix(a) for a in simples]
    n = 1 + spec.dim
    ident = identity_matrix(n)
    out = {ident: (1, 0)}
    layer = [(ident, 1)]
    for ln in range(1, max_len + 1):
        nxt = []
        for mat, det in layer:
            for g in gens:
                m2 = mat_mul(mat, g)
                if m2 in out:
                    continue
                out[m2] = (-det, ln)
                nxt.append((m2, -det))
        layer = nxt
    return out


def test_weyl_rhs_matches_definitional_inversion_sets():
    # independent route with no grade pruning: enumerate every group element
    # up to max_len, compute each inversion set against a window of positive
    # items, and sum the alternating exponentials of grade <= cutoff
    for spec, max_len, ball_size in ((a1_spec(2), 6, 13), (untwisted_affine("A2", 3), 12, 235)):
        ball = _brute_ball(spec, max_len)
        assert len(ball) == ball_size
        gflat = spec.grading.flatten()
        # every positive real root has grade >= g_min, so no longer element counts
        g_min = min(inner(a.flatten(), gflat) for a in _affine_base(enumerate_support(spec), spec.grading))
        assert (max_len + 1) * g_min > spec.cutoff

        window = [f for k in range(max_len + 2) for a in spec.roots for f in [(Q(k),) + a] if inner(f, gflat) > 0]
        defs: dict[tuple, int] = {}
        for mat, (det, ln) in ball.items():
            inv = [f for f in window if inner(mat_vec(mat, f), gflat) < 0]
            assert len(inv) == ln
            s = tuple(sum(col) for col in zip(*inv)) if inv else zero_vector(len(gflat))
            if inner(s, gflat) <= spec.cutoff:
                defs[s] = defs.get(s, 0) + det
        defs = {k: v for k, v in defs.items() if v != 0}
        assert defs == {k: int(v) for k, v in affine_weyl_rhs(spec).terms.items()}


def _fit_holds(fit, av):
    return av.level == fit.r * norm_sq(vsub(av.part, fit.c.part)) + fit.c.level


def _expansion_support(spec):
    """Support of the truncated expansion, as (level; part) points.

    The paraboloid lies on this support, not on the factor items, which
    put several levels over one part.
    """
    items = enumerate_support(spec)
    x = truncated_product([(av.flatten(), m) for av, m in items], spec.grading.flatten(), spec.cutoff)
    return [AffineVector(v[0], v[1:]) for v in x.support()]


def test_characterize_a1_positive():
    spec = a1_spec(4)
    v = characterize_affine(spec)
    assert v.on_paraboloid
    assert v.axiomatic_verdict()
    assert v.real_multiplicities_ok and v.imaginary_multiplicities_ok
    assert v.levels_arithmetic and v.irreducible
    assert v.fit.r > 0
    for av in _expansion_support(spec):
        assert _fit_holds(v.fit, av)


def test_characterize_raises_when_the_axioms_accept_and_no_paraboloid_fits(monkeypatch):
    import rootsphere.quadric as quadric_mod
    from rootsphere.finite_root import VerdictMismatchError

    monkeypatch.setattr(quadric_mod, "_fit_paraboloid_keys", lambda keys, den: None)
    with pytest.raises(VerdictMismatchError, match="^axiomatic verdict True disagrees with paraboloid verdict False$"):
        characterize_affine(a1_spec(4))
    # when the axioms reject the support too, the verdict is returned
    spec = untwisted_affine("A1", 4)
    doubled = tuple((av, 2 * m) for av, m in enumerate_support(spec))
    v = characterize_affine(ExplicitAffineSupport(dim=spec.dim, items=doubled, grading=spec.grading, cutoff=spec.cutoff))
    assert not v.on_paraboloid and not v.axiomatic_verdict()


def test_characterize_imaginary_bump_fails():
    spec = untwisted_affine("A1", 4)
    items = enumerate_support(spec)
    bumped = tuple(
        (av, m + 1) if all(x == 0 for x in av.part) else (av, m) for av, m in items
    )
    ex = ExplicitAffineSupport(
        dim=spec.dim, items=bumped, grading=spec.grading, cutoff=spec.cutoff
    )
    v = characterize_affine(ex)
    assert not v.on_paraboloid
    assert not v.imaginary_multiplicities_ok
    assert v.real_multiplicities_ok


def test_characterize_real_duplicate_fails():
    spec = untwisted_affine("A1", 4)
    items = enumerate_support(spec)
    dup = []
    done = False
    for av, m in items:
        if not done and av.level == 0 and any(x != 0 for x in av.part):
            dup.append((av, m + 1))
            done = True
        else:
            dup.append((av, m))
    assert done
    ex = ExplicitAffineSupport(
        dim=spec.dim, items=tuple(dup), grading=spec.grading, cutoff=spec.cutoff
    )
    v = characterize_affine(ex)
    assert not v.on_paraboloid
    assert not v.real_multiplicities_ok


def test_characterize_shallow_cutoff_boundary():
    # a cutoff this small leaves one real item: the fit exists even though
    # the truncation cannot witness the axioms, and no mismatch is raised
    spec = a1_spec(Q(1, 2), grading_part="1/3")
    assert [av for av, _ in enumerate_support(spec)] == [AffineVector(Q(0), (Q(1),))]
    v = characterize_affine(spec)
    assert v.on_paraboloid
    assert not v.axioms.ar1
    assert not v.axiomatic_verdict()
    assert v.fit.c == affine("-1/4", ["1/2"]) and v.fit.r == 1


def test_characterize_monotone_in_cutoff():
    big = characterize_affine(a1_spec(6))
    assert big.on_paraboloid
    for c in (2, 4):
        small = characterize_affine(a1_spec(c))
        assert small.on_paraboloid
        small_items = {av for av, _ in enumerate_support(a1_spec(c))}
        big_items = {av for av, _ in enumerate_support(a1_spec(6))}
        assert small_items <= big_items
        small_support = set(_expansion_support(a1_spec(c)))
        assert small_support <= set(_expansion_support(a1_spec(6)))
        for av in small_support:
            assert _fit_holds(big.fit, av)


def test_truncation_twist_identity():
    # flipping one item to its negative twists the truncated product by
    # minus the matching exponential, once the cutoff window is re-aimed
    m_items = [((Q(1), Q(1)), 1), ((Q(1), Q(-1)), 1), ((Q(2), Q(0)), 1)]
    m2_items = [((Q(-1), Q(-1)), 1), ((Q(1), Q(-1)), 1), ((Q(2), Q(0)), 1)]
    f1 = truncated_product(m_items, (Q(1), Q(1, 3)), Q(4))
    f2 = truncated_product(m2_items, (Q(1), Q(-3)), Q(8))
    assert f2 == -mul(monomial(2, (Q(-1), Q(-1))), f1)
    assert len(f1.terms) == 6 and len(f2.terms) == 6


def test_grade_and_inner_helpers():
    g = affine(1, ["1/2"])
    assert grade(affine(2, [1]), g) == Q(5, 2)
    # the reflection pairs parts only: 2<(0; 1), (7; 1)>/<(0; 1), (0; 1)> = 2 reads neither level
    assert affine_reflect_vec(affine(5, [1]), affine(7, [1])) == affine(-3, [-1])


def test_spec_json_round_trip():
    spec = ExplicitAffineSupport(
        dim=2,
        items=((affine(1, [1, 0]), 2), (affine("1/2", [0, 1]), 1)),
        grading=affine(1, ["1/3", "1/7"]),
        cutoff=Q(3),
    )
    d = explicit_spec_to_json(spec)
    assert d["kind"] == "explicit"
    assert explicit_spec_from_json(d) == spec
    av = affine("-3/2", [1, "2/7"])
    assert affine_vector_from_json(affine_vector_to_json(av)) == av


@pytest.mark.parametrize("kind", ["generated", "generatd", None, 1])
def test_explicit_reader_refuses_another_kind(kind):
    # the fields of an explicit spec, so only the kind is wrong
    spec = ExplicitAffineSupport(dim=1, items=((affine(1, [1]), 1),), grading=affine(1, [0]), cutoff=Q(2))
    d = dict(explicit_spec_to_json(spec), kind=kind)
    with pytest.raises(ValueError, match='^input: field "kind" must be "explicit"$'):
        explicit_spec_from_json(d)


def test_verdict_json_keys():
    v = characterize_affine(a1_spec(2))
    d = affine_verdict_to_json(v)
    assert d["on_paraboloid"] is True
    assert d["multiplicities_ok"] is True
    assert d["real_multiplicities_ok"] is True
    assert d["axioms_at_level"]["ar1"] is True
    assert d["grading"] == {"level": "1", "v": ["1/2"]}
    assert d["cutoff"] == "2"
