"""Exact sphere and paraboloid fitting for finite rational point sets."""

from __future__ import annotations

from fractions import Fraction
from operator import mul
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
    return sum(map(mul, u, v))


def fit_sphere(points) -> SphereFit | None:
    """Exact common sphere through any finite set of points (the general fit), or None when there is none.

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

    span_rank picks a basis B of the differences k - k_0.  With t solving
    2<B_i, B_j> t_j = |B_i|^2 (unique, as B is independent),
    (k_0 + sum_j t_j*B_j)/den is the one point of the hull at equal distance
    from k_0 and the picked keys: the hull circumcenter, if the keys have one.
    """
    if not keys:
        raise ValueError("no points")
    k0 = keys[0]
    if len(keys) == 1:
        if not k0:
            raise ValueError("no sphere in dimension 0: its one point has no center off it")
        # single point: any center off the point works; perturb along e_1
        return SphereFit((Q(k0[0] + den, den), *(Q(x, den) for x in k0[1:])), Q(1))
    diffs = [tuple(x - y for x, y in zip(k, k0)) for k in keys]
    basis = [diffs[i] for i in span_rank(diffs)[1]]
    t = solve_linear([[2 * _dot(a, b) for b in basis] for a in basis], [_dot(b, b) for b in basis]).particular
    center = [x + _dot(t, column) for x, column in zip(k0, zip(*basis))]
    m = _common_denominator([center])
    return _sphere_about(keys, den, m, _int_key(center, m))


def _sphere_about(keys: list, den: int, a: int, c) -> SphereFit | None:
    """The sphere about c/(a*den) through the points k/den, or None as soon as two keys sit at different distances.

    |a*k - c|^2 = a*(a*|k|^2 - 2<k, c>) + |c|^2, so one value of a*|k|^2 - 2<k, c> is one distance.
    """
    v = a * _dot(keys[0], keys[0]) - 2 * _dot(keys[0], c)
    if any(a * _dot(k, k) - 2 * _dot(k, c) != v for k in keys):
        return None
    return SphereFit(tuple(Q(x, a * den) for x in c), Q(a * v + _dot(c, c), (a * den) ** 2))


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
