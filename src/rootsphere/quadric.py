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

    One scan grows a basis B of differences k - k_0 from points off the
    current sphere.  The candidate center is c/(den*m), the circumcenter of
    k_0 and the points taken into B: with t solving the Gram system
    2<B_i, B_j> t_j = |B_i|^2 and m the common denominator of t,
    c = m*k_0 + sum_j m*t_j*B_j is an integer vector, and the radius is
    r/(den*m)^2 with r = |m*k_0 - c|^2.  Each round looks for the first key
    k with |m*k - c|^2 != r.  With none, the candidate is the answer.  When
    k - k_0 lies in span(B), k sits in the hull of k_0 and B and off its
    circumcenter's sphere, so it is off every sphere through those points,
    and the answer is None.  Otherwise k - k_0 joins B and the scan starts
    again from the first key, since a point that sat on the old sphere may
    fall off the new one.

    The returned center lies in the hull of the keys and is at equal
    distance from all of them, so it is the hull circumcenter, which is
    unique: which points the scan takes into B cannot change it.  The last
    scan is the one exact check of exactly the returned center and radius
    on every key.
    """
    if not keys:
        raise ValueError("no points")
    k0 = keys[0]
    if len(keys) == 1:
        if not k0:
            raise ValueError("no sphere in dimension 0: its one point has no center off it")
        # single point: any center off the point works; perturb along e_1
        return SphereFit((Q(k0[0] + den, den), *(Q(x, den) for x in k0[1:])), Q(1))
    basis: list[tuple[int, ...]] = []
    m, c, r = 1, k0, 0  # k_0 alone: its circumcenter is k_0, at radius 0
    while (off := next((k for k in keys if sum((m * x - y) ** 2 for x, y in zip(k, c)) != r), None)) is not None:
        d = tuple(x - y for x, y in zip(off, k0))
        if span_rank(basis + [d])[0] == len(basis):
            return None
        basis.append(d)
        sol = solve_linear([[2 * _dot(a, b) for b in basis] for a in basis], [_dot(b, b) for b in basis])
        if sol.kind != "unique":
            raise ArithmeticError("hull-restricted sphere system must be determined")
        m = _common_denominator([sol.particular])
        u = _int_key(sol.particular, m)
        c = [m * x + _dot(u, column) for x, column in zip(k0, zip(*basis))]
        r = sum((m * x - y) ** 2 for x, y in zip(k0, c))
    if r == 0:
        raise ArithmeticError("zero radius with distinct points")
    scale = den * m
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
