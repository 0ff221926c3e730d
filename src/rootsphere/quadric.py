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
    k with |m*k - c|^2 != r.  With none, the candidate is the answer.
    Otherwise k - k_0 joins B and the Gram system is solved again; the scan
    then starts again from the first key, since a point that sat on the old
    sphere may fall off the new one.  The Gram solve decides independence:
    B was independent, so the new Gram matrix is singular exactly when
    k - k_0 lies in span(B).  Then k sits in the hull of k_0 and the old B
    and off its circumcenter's sphere, so it is off every sphere through
    those points, and the answer is None.

    The returned center lies in the hull of the keys and is at equal
    distance from all of them, so it is the hull circumcenter, which is
    unique: which points the scan takes into B cannot change it.  The last
    scan is the one exact check of exactly the returned center and radius
    on every key.  Two distinct keys are not both at distance 0 from one
    center, so the radius of two or more keys is positive.
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
        basis.append(tuple(x - y for x, y in zip(off, k0)))
        sol = solve_linear([[2 * _dot(a, b) for b in basis] for a in basis], [_dot(b, b) for b in basis])
        if sol.kind != "unique":
            return None
        m = _common_denominator([sol.particular])
        u = _int_key(sol.particular, m)
        c = [m * x + _dot(u, column) for x, column in zip(k0, zip(*basis))]
        r = sum((m * x - y) ** 2 for x, y in zip(k0, c))
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

    Key k = (l, q) gives the row (|q|^2 - |q_0|^2, -2*den*(q - q_0) | den*(l - l_0))
    in (r, d): the paraboloid equation at k differenced against k_0 and
    scaled to integers by den^2.  One pass holds the solution set of the
    rows kept so far, as solve_linear returns it, in integers: gens holds
    (e*x, -e) for the particular solution x with common denominator e, and
    each kernel vector scaled to integers with a 0 appended.  A row holds on
    every solution exactly when it is orthogonal to every generator; it
    joins the system only when it is not, and the system is solved again.
    An inconsistent solve means no fit.  The first key's row is zero and
    only starts the system.

    A row holds on every solution of a consistent system exactly when it
    lies in the span of that system's augmented rows.  So the pass keeps the
    rows that _echelon picks from all rows, in the same greedy order, and
    meets an inconsistent row where _echelon would.  The kept rows have the
    solution set of all the rows, and solve_linear's answer depends on that
    set alone, so the witness is the one the full system gives, whatever the
    order of the keys.  Each key is checked once, in integers, against a
    solution set that contains the witness: that is the fit's one exact
    check.

    A free r is pinned to 1, and a nonpositive r is moved there along a
    kernel direction that changes it.  With m the common denominator of the
    witness (r, d), R = m*r and D = m*d are integers, part_c = D/R, and
    level_c follows from k_0 lying on the paraboloid.
    """
    if not keys:
        raise ValueError("no points")
    n = len(keys[0]) - 1
    l0, q0 = keys[0][0], keys[0][1:]
    n0 = _dot(q0, q0)
    kept, gens = [], None
    for k in keys:
        q = k[1:]
        w = [_dot(q, q) - n0, *(-2 * den * (x - y) for x, y in zip(q, q0)), den * (k[0] - l0)]
        if gens is None or any(_dot(w, g) for g in gens):
            kept.append(w)
            sol = solve_linear([a[:-1] for a in kept], [a[-1] for a in kept], ncols=1 + n)
            if sol.kind == "inconsistent":
                return None
            e = _common_denominator([sol.particular])
            gens = [(*_int_key(sol.particular, e), -e)]
            gens += [(*_int_key(v, _common_denominator([v])), 0) for v in sol.kernel_basis]

    x = list(sol.particular)
    if x[0] <= 0:
        k = next((k for k in sol.kernel_basis if k[0] != 0), None)
        if k is None:
            return None
        t = (1 - x[0]) / k[0]
        x = [xi + t * ki for xi, ki in zip(x, k)]
    m = _common_denominator([x])
    R, *D = _int_key(x, m)
    off0 = sum((R * y - den * z) ** 2 for y, z in zip(q0, D))
    level_c = Q(m * R * den * l0 - off0, m * R * den * den)
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
