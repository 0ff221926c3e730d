"""Exact sphere and paraboloid fitting for finite rational point sets."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    AffineVector,
    Q,
    Vector,
    inner,
    norm_sq,
    solve_linear,
    span_rank,
    vadd,
    vector,
    vscale,
    vsub,
)


@dataclass(frozen=True)
class SphereFit:
    center: Vector
    radius_sq: Fraction


@dataclass(frozen=True)
class ParaboloidFit:
    c: AffineVector
    r: Fraction


def _dedupe(points):
    seen = set()
    out = []
    for p in points:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def fit_sphere(points) -> SphereFit | None:
    """Exact common sphere through the points, or None when there is none.

    The witness center is the unique solution inside the affine hull of the
    points (the circumcenter of the hull); consistency of the differenced
    linear system there is equivalent to consistency in the ambient space,
    since the equations only see the hull component of the center.
    """
    pts = _dedupe(vector(p) for p in points)
    if not pts:
        raise ValueError("no points")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ValueError("dimension mismatch")

    p0 = pts[0]
    diffs = [vsub(p, p0) for p in pts[1:]]
    _, idx = span_rank(diffs)
    basis = [diffs[i] for i in idx]
    rows = [[2 * inner(d, bj) for bj in basis] for d in diffs]
    rhs = [norm_sq(d) for d in diffs]
    sol = solve_linear(rows, rhs, ncols=len(basis))
    if sol.kind == "inconsistent":
        return None
    if sol.kind != "unique":
        raise ArithmeticError("hull-restricted sphere system must be determined")

    center = p0
    for t, bj in zip(sol.particular, basis):
        center = vadd(center, vscale(t, bj))
    radius_sq = norm_sq(vsub(p0, center))
    if radius_sq == 0:
        if len(pts) > 1:
            raise ArithmeticError("zero radius with distinct points")
        # single point: any center off the point works; perturb along e_1
        center = vadd(p0, tuple(Q(1) if i == 0 else Q(0) for i in range(dim)))
        radius_sq = Q(1)

    for p in pts:
        if norm_sq(vsub(p, center)) != radius_sq:
            raise ArithmeticError("sphere fit failed exact verification")
    return SphereFit(center, radius_sq)


def fit_paraboloid(points) -> ParaboloidFit | None:
    """Exact fit of level(p - c) = r * |part(p - c)|^2 with r > 0, or None.

    Substituting d = r * part(c) makes the differenced equations linear in
    (r, d).  A free r is pinned to 1; if r is forced nonpositive and no
    kernel direction moves it, there is no fit.
    """
    pts = _dedupe(points)
    if not pts:
        raise ValueError("no points")
    n = pts[0].dim
    if any(p.dim != n for p in pts):
        raise ValueError("dimension mismatch")

    p0 = pts[0]
    rows = []
    rhs = []
    for p in pts[1:]:
        rows.append([norm_sq(p.part) - norm_sq(p0.part)] + [-2 * x for x in vsub(p.part, p0.part)])
        rhs.append(p.level - p0.level)
    sol = solve_linear(rows, rhs, ncols=1 + n)
    if sol.kind == "inconsistent":
        return None

    x = list(sol.particular)
    if x[0] <= 0:
        k = next((k for k in sol.kernel_basis if k[0] != 0), None)
        if k is None:
            return None
        t = (1 - x[0]) / k[0]
        x = [xi + t * ki for xi, ki in zip(x, k)]
    r = x[0]
    part_c = vscale(1 / r, tuple(x[1:]))
    level_c = p0.level - r * norm_sq(vsub(p0.part, part_c))
    fit = ParaboloidFit(AffineVector(level_c, part_c), r)

    for p in pts:
        if p.level - level_c != r * norm_sq(vsub(p.part, part_c)):
            raise ArithmeticError("paraboloid fit failed exact verification")
    return fit


def sphere_fit_to_json(fit: SphereFit | None) -> dict | None:
    if fit is None:
        return None
    return {"center": [str(c) for c in fit.center], "radius_sq": str(fit.radius_sq)}


def paraboloid_fit_to_json(fit: ParaboloidFit | None) -> dict | None:
    if fit is None:
        return None
    return {
        "c": {"level": str(fit.c.level), "v": [str(x) for x in fit.c.part]},
        "r": str(fit.r),
    }
