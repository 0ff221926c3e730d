"""Sphere and paraboloid fitting over the rationals."""

import random

import pytest

from rootsphere.exact import Q, affine, inner, norm_sq, solve_linear, vadd, vector, vscale, vsub, zero_vector
from rootsphere.quadric import (
    ParaboloidFit,
    SphereFit,
    fit_paraboloid,
    fit_sphere,
    paraboloid_fit_to_json,
    sphere_fit_to_json,
)


def test_sphere_two_points():
    fit = fit_sphere([vector([0, 0]), vector([2, 0])])
    assert fit == SphereFit((Q(1), Q(0)), Q(1))


def test_sphere_a2_expansion_support():
    A = vector([1, -1, 0])
    B = vector([0, 1, -1])
    ab = vadd(A, B)
    pts = [
        zero_vector(3),
        A,
        B,
        vadd(A, ab),
        vadd(B, ab),
        vadd(ab, ab),
    ]
    fit = fit_sphere(pts)
    assert fit == SphereFit((Q(1), Q(0), Q(-1)), Q(2))


def test_sphere_collinear_none():
    assert fit_sphere([vector([0]), vector([1]), vector([-1])]) is None


def test_sphere_single_point():
    fit = fit_sphere([vector([3, 4])])
    assert fit is not None
    assert fit.radius_sq > 0
    assert norm_sq(vsub(vector([3, 4]), fit.center)) == fit.radius_sq


def test_sphere_errors():
    with pytest.raises(ValueError):
        fit_sphere([])
    with pytest.raises(ValueError):
        fit_sphere([vector([1]), vector([1, 2])])


@pytest.mark.parametrize("points, message", [
    ([affine(0, [0]), affine(0, [0, 1])], "dimension mismatch"),
    ([], "no points"),
])
def test_paraboloid_errors(points, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit_paraboloid(points)


def test_paraboloid_quadratic_points():
    pts = [affine(0, [0]), affine(1, [1]), affine(4, [2])]
    assert fit_paraboloid(pts) == ParaboloidFit(affine(0, [0]), Q(1))


def test_paraboloid_collinear_none():
    pts = [affine(0, [0]), affine(1, [1]), affine(2, [2])]
    assert fit_paraboloid(pts) is None


def test_paraboloid_single_point():
    assert fit_paraboloid([affine(0, [0])]) == ParaboloidFit(affine(0, [0]), Q(1))


def _on_paraboloid(fit, av):
    # level = r * |part - c.part|^2 + c.level
    return av.level == fit.r * norm_sq(vsub(av.part, fit.c.part)) + fit.c.level


def test_paraboloid_fit_satisfies_points():
    pts = [affine(0, [0]), affine(1, [1]), affine(4, [2]), affine(1, [-1])]
    fit = fit_paraboloid(pts)
    assert fit is not None
    assert all(_on_paraboloid(fit, p) for p in pts)


def test_small_point_sets_always_fit():
    rng = random.Random(42)
    for _ in range(40):
        dim = rng.randint(1, 3)
        k = rng.randint(1, 2)
        pts = {tuple(Q(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(k)}
        fit = fit_sphere(sorted(pts))
        assert fit is not None
        for p in pts:
            assert norm_sq(vsub(p, fit.center)) == fit.radius_sq


def test_random_sphere_membership():
    # points sampled from a known sphere must be recovered exactly
    rng = random.Random(1234)
    for _ in range(25):
        c = (Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2)))
        pts = set()
        for dx, dy in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
            pts.add((c[0] + dx, c[1] + dy))
        fit = fit_sphere(sorted(pts))
        assert fit == SphereFit(c, Q(1))


def test_sphere_permutation_invariance():
    pts = [vector([0, 0, 1]), vector([0, 1, 0]), vector([1, 0, 0]), vector([2, 2, 1])]
    fit = fit_sphere(pts)
    perm = [tuple(p[i] for i in (2, 0, 1)) for p in pts]
    fit2 = fit_sphere(perm)
    if fit is None:
        assert fit2 is None
    else:
        assert fit2.radius_sq == fit.radius_sq
        assert fit2.center == tuple(fit.center[i] for i in (2, 0, 1))


ROT = (vector(["3/5", "4/5"]), vector(["-4/5", "3/5"]))


def _rot(v):
    return (inner(ROT[0], v), inner(ROT[1], v))


def test_sphere_rotation_invariance():
    pts = [vector([0, 0]), vector([2, 0]), vector([1, 1]), vector([1, -1])]
    fit = fit_sphere(pts)
    assert fit == SphereFit((Q(1), Q(0)), Q(1))
    fit2 = fit_sphere([_rot(p) for p in pts])
    assert fit2 == SphereFit(_rot(fit.center), fit.radius_sq)
    # a degenerate set stays degenerate after rotation
    line = [vector([0, 0]), vector([1, 0]), vector([2, 0])]
    assert fit_sphere(line) is None
    assert fit_sphere([_rot(p) for p in line]) is None


def test_paraboloid_rotation_invariance():
    pts = [affine(0, [0, 0]), affine(1, [1, 0]), affine(1, [0, 1]), affine(4, [2, 0])]
    fit = fit_paraboloid(pts)
    assert fit is not None
    rot_pts = [affine(p.level, _rot(p.part)) for p in pts]
    fit2 = fit_paraboloid(rot_pts)
    assert fit2 is not None
    assert fit2.r == fit.r
    # the original witness, rotated, still satisfies the rotated points
    rotated_witness = ParaboloidFit(affine(fit.c.level, _rot(fit.c.part)), fit.r)
    assert all(_on_paraboloid(rotated_witness, p) for p in rot_pts)


def test_translation_invariance():
    pts = [vector([0, 0]), vector([2, 0]), vector([1, 1])]
    t = vector([5, -7])
    fit = fit_sphere(pts)
    fit2 = fit_sphere([vadd(p, t) for p in pts])
    assert fit2 == SphereFit(vadd(fit.center, t), fit.radius_sq)

    ppts = [affine(0, [0]), affine(1, [1]), affine(4, [2])]
    pfit = fit_paraboloid(ppts)
    shifted = [affine(p.level + 3, vadd(p.part, (Q(2),))) for p in ppts]
    pfit2 = fit_paraboloid(shifted)
    assert pfit2 is not None
    assert pfit2.r == pfit.r
    assert all(_on_paraboloid(pfit2, p) for p in shifted)


def test_fit_json():
    assert sphere_fit_to_json(SphereFit((Q(1), Q(0)), Q(5, 4))) == {
        "center": ["1", "0"],
        "radius_sq": "5/4",
    }
    assert paraboloid_fit_to_json(ParaboloidFit(affine("-1/4", ["1/2"]), Q(1))) == {
        "c": {"level": "-1/4", "v": ["1/2"]},
        "r": "1",
    }


# -- differential: the fits against the all-rows Gauss-Jordan route -----------------


def _sphere_reference(points):
    # center p0 + sum_j s_j d_j over all differences d_j: every consistent s
    # gives the hull circumcenter, so no basis is picked
    pts = list(dict.fromkeys(vector(p) for p in points))
    p0 = pts[0]
    if len(pts) == 1:
        return SphereFit(vadd(p0, (Q(1),) + (Q(0),) * (len(p0) - 1)), Q(1))
    diffs = [vsub(p, p0) for p in pts[1:]]
    rows = [[2 * inner(d, e) for e in diffs] for d in diffs]
    sol = solve_linear(rows, [norm_sq(d) for d in diffs], ncols=len(diffs))
    if sol.kind == "inconsistent":
        return None
    center = p0
    for s, d in zip(sol.particular, diffs):
        center = vadd(center, vscale(s, d))
    return SphereFit(center, norm_sq(vsub(p0, center)))


def _paraboloid_reference(points):
    # every differenced equation in one Gauss-Jordan solve, and the witness by
    # the Fraction formula part_c = d/r, level_c = level(p0) - r*|part(p0) - part_c|^2
    # that the fit's integer formula replaced; returns (fit, pinned)
    pts = list(dict.fromkeys(points))
    p0 = pts[0]
    rows = [[norm_sq(p.part) - norm_sq(p0.part)] + [-2 * x for x in vsub(p.part, p0.part)] for p in pts[1:]]
    sol = solve_linear(rows, [p.level - p0.level for p in pts[1:]], ncols=1 + p0.dim)
    if sol.kind == "inconsistent":
        return None, False
    x = list(sol.particular)
    pinned = x[0] <= 0
    if pinned:
        k = next((k for k in sol.kernel_basis if k[0] != 0), None)
        if k is None:
            return None, False
        t = (1 - x[0]) / k[0]
        x = [xi + t * ki for xi, ki in zip(x, k)]
    r = x[0]
    part_c = vscale(1 / r, tuple(x[1:]))
    return ParaboloidFit(affine(p0.level - r * norm_sq(vsub(p0.part, part_c)), part_c), r), pinned


def _reflector(rng, n):
    # v -> v - 2<v,h>/<h,h> h is a rational orthogonal map; the identity half the time
    h = vector([rng.randint(-2, 2) for _ in range(n)])
    if rng.random() < 0.5 or norm_sq(h) == 0:
        return lambda v: v
    return lambda v: vsub(v, vscale(2 * inner(v, h) / norm_sq(h), h))


def _perturbed(rng, pts, move):
    # duplicates, and one point moved off the quadric by move(point)
    pts = list(pts)
    for _ in range(rng.choice([0, 0, 1, 2])):
        pts.append(rng.choice(pts))
    if rng.random() < 0.35:
        i = rng.randrange(len(pts))
        pts[i] = move(pts[i])
    rng.shuffle(pts)
    return pts


def test_fit_sphere_matches_all_rows_reference():
    # a point off the hull can sit on a partial sphere and fall off the final one:
    # a scan that goes on past a new basis point instead of starting again fits
    # the first set, which lies on no circle, and fits the second with a wrong center
    first = [vector(p) for p in [(1, -2), (0, 2), (1, 2), (-2, 2)]]
    second = [vector(p) for p in [(-1, -2, -2), (2, 1, -1), (-1, 1, -1), (-2, -1, 2)]]
    for pts, expected in ((first, None), (second, SphereFit((Q(1, 2), Q(-25, 22), Q(9, 22)), Q(4259, 484)))):
        assert _sphere_reference(pts) == expected
        assert fit_sphere(pts) == expected

    rng = random.Random(31337)
    seen = {"fit": 0, "none": 0, "low-hull fit": 0}
    for _ in range(400):
        dim = rng.randint(1, 5)
        den = rng.randint(1, 3)
        center = vector([Q(rng.randint(-4, 4), den) for _ in range(dim)])
        if rng.random() < 0.15:
            pts = [vector([Q(rng.randint(-3, 3), den) for _ in range(dim)]) for _ in range(rng.randint(1, 7))]
        else:
            # signed permutations of v in the first k coordinates share one sphere
            k = rng.randint(1, dim)
            v = [rng.randint(1, 3) for _ in range(k)]
            refl = _reflector(rng, dim)
            pts = []
            for _ in range(rng.randint(1, 2 * dim + 3)):
                w = [x * rng.choice([-1, 1]) for x in rng.sample(v, k)] + [0] * (dim - k)
                pts.append(vadd(center, vscale(Q(1, den), refl(vector(w)))))
        off = vector([Q(rng.randint(-1, 1), den) for _ in range(dim - 1)] + [Q(1, den)])
        pts = _perturbed(rng, pts, lambda p: vadd(p, off))
        expected = _sphere_reference(pts)
        assert fit_sphere(pts) == expected
        if expected is None:
            seen["none"] += 1
        else:
            seen["fit"] += 1
            hull = len(set(pts)) - 1
            if 0 < hull and solve_linear([vsub(p, pts[0]) for p in pts], [0] * len(pts), ncols=dim).kernel_basis:
                seen["low-hull fit"] += 1
    assert min(seen.values()) > 20, seen


def test_fit_paraboloid_matches_all_rows_reference():
    rng = random.Random(271828)
    seen = {"fit": 0, "none": 0, "pinned": 0, "free r": 0}
    for _ in range(500):
        n = rng.randint(1, 5)
        den = rng.randint(1, 3)
        r = Q(rng.choice([1, 1, 2, 3, -1]), rng.randint(1, 3))
        c = affine(Q(rng.randint(-3, 3), den), [Q(rng.randint(-3, 3), den) for _ in range(n)])
        if rng.random() < 0.25:
            # signed permutations of v about c.part = 0 share one norm and one level: r is free
            c = affine(c.level, [0] * n)
            v = [Q(rng.randint(0, 3), den) for _ in range(n)]
            parts = [vector([x * rng.choice([-1, 1]) for x in rng.sample(v, n)]) for _ in range(rng.randint(2, 2 * n))]
        else:
            # parts in the span of a few directions, so the hull may be lower-dimensional
            dirs = [vector([rng.randint(-2, 2) for _ in range(n)]) for _ in range(rng.randint(1, n))]
            parts = []
            for _ in range(rng.randint(1, n + 4)):
                part = c.part
                for d in dirs:
                    part = vadd(part, vscale(Q(rng.randint(-2, 2), den), d))
                parts.append(part)
        pts = [affine(c.level + r * norm_sq(vsub(part, c.part)), part) for part in parts]
        pts = _perturbed(rng, pts, lambda p: affine(p.level + Q(1, den), p.part))
        expected, pinned = _paraboloid_reference(pts)
        assert fit_paraboloid(pts) == expected
        # the witness does not depend on the order of the points
        assert fit_paraboloid(pts[::-1]) == expected
        seen["none" if expected is None else "fit"] += 1
        seen["pinned"] += pinned
        if expected is not None:
            assert all(_on_paraboloid(expected, p) for p in pts)
            if len(set(pts)) > 1 and len({norm_sq(p.part) for p in pts}) == 1:
                # every row's r column is 0, so the free r is pinned to 1
                assert expected.r == 1
                seen["free r"] += 1
    assert min(seen.values()) > 20, seen

