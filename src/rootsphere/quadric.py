"""Exact sphere and paraboloid fitting for finite rational point sets."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import (
    AffineVector,
    Q,
    Vector,
    _common_denominator,
    _int_key,
    solve_linear,
    span_rank,
    vector,
)


class SphereFit(NamedTuple):
    center: Vector
    radius_sq: Fraction


class ParaboloidFit(NamedTuple):
    c: AffineVector
    r: Fraction


def _dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v))


def fit_sphere(points) -> SphereFit | None:
    """Exact common sphere through the points, or None when there is none.

    The witness center is the circumcenter of the affine hull of the points:
    the one point of the hull at equal distance from all of them.  It is
    unique, so the witness does not depend on which points span the hull.
    The equations only see the hull component of a center, so a sphere
    exists in the ambient space exactly when this one does.
    """
    pts = list(dict.fromkeys(vector(p) for p in points))
    if len({len(p) for p in pts}) > 1:
        raise ValueError("dimension mismatch")
    den = _common_denominator(pts)
    return _fit_sphere_keys([_int_key(p, den) for p in pts], den)


def _fit_sphere_keys(keys: list, den: int) -> SphereFit | None:
    """fit_sphere of the points k/den, for distinct integer keys k of one length.

    On D_i = k_i - k_0, a greedy basis B of the D_i gives the k x k Gram
    system 2<B_i, B_j> t_j = |B_i|^2, and the center offset is
    c - p_0 = N/(den*m) with m the common denominator of t and
    N = sum_j m*t_j*B_j an integer vector.  Point i lies on the sphere
    exactly when m*|D_i|^2 = 2<D_i, N>; the first one off it gives None.
    The witness, center c/scale and radius_sq r/scale^2 with scale = den*m,
    is then verified exactly on every point: |m*k_i - c|^2 = r.
    """
    if not keys:
        raise ValueError("no points")
    dim = len(keys[0])
    k0 = keys[0]
    diffs = [tuple(x - y for x, y in zip(k, k0)) for k in keys[1:]]
    _, idx = span_rank(diffs)
    basis = [diffs[i] for i in idx]
    gram = [[2 * _dot(bi, bj) for bj in basis] for bi in basis]
    sol = solve_linear(gram, [_dot(b, b) for b in basis], ncols=len(basis))
    if sol.kind != "unique":
        raise ArithmeticError("hull-restricted sphere system must be determined")

    m = _common_denominator([sol.particular])
    u = _int_key(sol.particular, m)
    offset = [sum(uj * b[i] for uj, b in zip(u, basis)) for i in range(dim)]
    for d in diffs:
        if m * _dot(d, d) != 2 * _dot(d, offset):
            return None

    scale = den * m
    c = [x * m + y for x, y in zip(k0, offset)]
    r = _dot(offset, offset)
    if r == 0:
        if len(keys) > 1:
            raise ArithmeticError("zero radius with distinct points")
        if not dim:
            raise ValueError("no sphere in dimension 0: its one point has no center off it")
        # single point: any center off the point works; perturb along e_1
        c[0] += scale
        r = scale * scale
    for k in keys:
        if sum((m * x - y) ** 2 for x, y in zip(k, c)) != r:
            raise ArithmeticError("sphere fit failed exact verification")
    return SphereFit(tuple(Q(x, scale) for x in c), Q(r, scale * scale))


def fit_paraboloid(points) -> ParaboloidFit | None:
    """Exact fit of level(p - c) = r * |part(p - c)|^2 with r > 0, or None.

    Substituting d = r * part(c) makes the differenced equations linear in
    (r, d).  A free r is pinned to 1; if r is forced nonpositive and no
    kernel direction moves it, there is no fit.
    """
    pts = list(dict.fromkeys(points))
    if len({p.dim for p in pts}) > 1:
        raise ValueError("dimension mismatch")
    den = _common_denominator(p.flatten() for p in pts)
    return _fit_paraboloid_keys([_int_key(p.flatten(), den) for p in pts], den)


def _fit_paraboloid_keys(keys: list, den: int) -> ParaboloidFit | None:
    """fit_paraboloid of the points k/den, for distinct flattened integer keys k.

    Rows are scaled to integers by den^2 first, which changes neither the
    solution set nor the pinned witness.  With m the common denominator of
    the solution (r, d), R = m*r and D = m*d are integers, part_c = D/R and
    level_c = a/b, and point k lies on the paraboloid exactly when
    b*m*R*den*level(k) - m*R*den^2*a = b*|R*part(k) - den*D|^2.  The
    witness is verified so, in integers, on every point.
    """
    if not keys:
        raise ValueError("no points")
    n = len(keys[0]) - 1
    l0, q0 = keys[0][0], keys[0][1:]
    n0 = _dot(q0, q0)
    rows, rhs = [], []
    for k in keys[1:]:
        q = k[1:]
        rows.append([_dot(q, q) - n0, *(-2 * den * (x - y) for x, y in zip(q, q0))])
        rhs.append(den * (k[0] - l0))
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
    m = _common_denominator([x])
    R, *D = _int_key(x, m)

    def off(q) -> int:
        return sum((R * y - den * z) ** 2 for y, z in zip(q, D))

    mr = m * R
    level_c = Q(mr * den * l0 - off(q0), mr * den * den)
    a, b = level_c.numerator, level_c.denominator
    for k in keys:
        if b * mr * den * k[0] - mr * den * den * a != b * off(k[1:]):
            raise ArithmeticError("paraboloid fit failed exact verification")
    return ParaboloidFit(AffineVector(level_c, tuple(Q(z, R) for z in D)), x[0])


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
