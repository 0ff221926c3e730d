"""Named constructions: classical root systems, their affine ladders, oracles."""

from __future__ import annotations

from itertools import combinations, product
from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .exact import AffineVector, Q, Vector, _common_denominator, _int_key, inner, vector, vscale
from .finite_root import RootSystem, _component_order, _root_orbit, weyl_vector

if TYPE_CHECKING:
    from .affine_root import GeneratedAffineSupport
    from .group_ring import GroupRingElement, SignedSupportMap
    from .quadric import SphereFit

_LETTERS = ("A", "B", "C", "D", "E", "F", "G")


class CatalogEntry(NamedTuple):
    """A named finite root system in its catalog realization.

    expected_weyl_order is read from the classification's table of Weyl
    group orders (finite_root._component_order), not computed from roots.
    """

    name: str
    ambient_dim: int
    roots: RootSystem
    positive: tuple[Vector, ...]
    expected_weyl_order: int
    expected_positive_count: int


def _pm_pairs(n: int, idx) -> list[Vector]:
    out = []
    for i, j in combinations(idx, 2):
        for si, sj in product((1, -1), repeat=2):
            v = [Q(0)] * n
            v[i], v[j] = Q(si), Q(sj)
            out.append(tuple(v))
    return out


def _axis(n: int, i: int, s: int) -> Vector:
    v = [Q(0)] * n
    v[i] = Q(s)
    return tuple(v)


def _orbit(simple) -> list[Vector]:
    """The roots with these simple roots: finite_root._root_orbit of their keys at the common denominator."""
    simple = [vector(a) for a in simple]
    scale = _common_denominator(simple)
    return [tuple(Q(x, scale) for x in k) for k in _root_orbit([_int_key(a, scale) for a in simple])]


# Bourbaki's simple roots a_1, ..., a_8 of E8 (Lie Groups and Lie Algebras, Ch. 4-6, Plate VII).
# The first 7 and 6 span E7 and E6 in E8's coordinates: the E8 roots with a7 + a8 = 0, and with
# a6 = a7 = -a8 (coordinates counted from 1).
_E8_SIMPLE = (
    (Q(1, 2), *[Q(-1, 2)] * 6, Q(1, 2)),
    (1, 1, 0, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 0, 0),
    (0, -1, 1, 0, 0, 0, 0, 0),
    (0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, -1, 1, 0, 0, 0),
    (0, 0, 0, 0, -1, 1, 0, 0),
    (0, 0, 0, 0, 0, -1, 1, 0),
)


def _parse_name(name: str) -> tuple[str, int]:
    name = name.strip()
    # ASCII digits only: str.isdigit also takes Arabic-Indic and superscript digits
    if len(name) < 2 or name[0] not in _LETTERS or not (name[1:].isascii() and name[1:].isdigit()):
        raise ValueError(f"unknown catalog name: {name}")
    return name[0], int(name[1:])


def _build_roots(letter: str, n: int) -> tuple[int, list[Vector]]:
    """Ambient dimension and root list for a validated name."""
    if letter == "A" and n >= 1:
        return n + 1, [a for a in _pm_pairs(n + 1, range(n + 1)) if sum(a) == 0]
    if letter == "B" and n >= 2:
        roots = _pm_pairs(n, range(n))
        roots += [_axis(n, i, s) for i in range(n) for s in (1, -1)]
        return n, roots
    if letter == "C" and n >= 3:
        roots = _pm_pairs(n, range(n))
        roots += [_axis(n, i, 2 * s) for i in range(n) for s in (1, -1)]
        return n, roots
    if letter == "D" and n >= 4:
        return n, _pm_pairs(n, range(n))
    if letter == "E" and n in (6, 7, 8):
        return 8, _orbit(_E8_SIMPLE[:n])
    # Bourbaki's simple roots of F4 and G2 (Plates VIII and IX)
    if letter == "F" and n == 4:
        return 4, _orbit([(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (Q(1, 2), *[Q(-1, 2)] * 3)])
    if letter == "G" and n == 2:
        return 3, _orbit([(1, -1, 0), (-2, 1, 1)])
    raise ValueError(f"unknown catalog name: {letter}{n}")


def standard_finite(name: str) -> CatalogEntry:
    """An exact rational realization of the named system, with canonical positives.

    Positivity is taken against the functional (1, 2, 4, ...), which is
    nonvanishing on every root of every catalog realization.  This half
    differs from the lexicographic half of finite_root.positive_roots for
    some types: for A2 the catalog gives rho = (-1, 0, 1), the lexicographic
    half rho = (1, 0, -1).  The expected Weyl order comes from the
    classification's order table.  The exceptional types are the orbits of
    Bourbaki's simple roots; E6 and E7 sit in E8's coordinates.
    """
    letter, n = _parse_name(name)
    dim, roots = _build_roots(letter, n)
    sep = tuple(Q(2**i) for i in range(dim))
    positive = tuple(sorted(a for a in roots if inner(sep, a) > 0))
    if 2 * len(positive) != len(roots):
        raise ArithmeticError("canonical functional failed to split the roots")
    return CatalogEntry(
        name=f"{letter}{n}",
        ambient_dim=dim,
        roots=RootSystem(dim, tuple(roots)),
        positive=positive,
        expected_weyl_order=_component_order(letter, n),
        expected_positive_count=len(roots) // 2,
    )


def default_grading(entry: CatalogEntry) -> AffineVector:
    """Level-positive grading whose level-0 positives match the canonical ones.

    Uses (1; t*rho) with t small enough that no ladder point of nonzero level
    can reach grade 0.
    """
    rho = weyl_vector(entry.positive)
    m = max(abs(inner(a, rho)) for a in entry.roots.roots)
    return AffineVector(Q(1), vscale(Q(1, 2 * m), rho))


def untwisted_affine(name: str, cutoff, grading: AffineVector | None = None) -> GeneratedAffineSupport:
    """Level ladders of period 1 over the named finite system."""
    from .affine_root import GeneratedAffineSupport

    entry = standard_finite(name)
    if grading is None:
        grading = default_grading(entry)
    return GeneratedAffineSupport(
        dim=entry.ambient_dim,
        roots=entry.roots.roots,
        grading=grading,
        cutoff=cutoff,
        period=Q(1),
        name=entry.name,
    )


# -- exponent sequence with product expansion 1 - 2X ---------------------------------


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius needs a positive integer")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


# Largest kmax of remark29_exponents and series_inversion_oracle.  The oracle
# multiplies series of kmax terms whose coefficients grow to about kmax bits,
# so its time grows about as kmax^3: ~0.7 s at 1000, ~5 s at 2000, ~18 s at
# 3000.  A larger kmax is refused before any work rather than run for minutes.
MAX_REMARK29_KMAX = 1000


def _check_kmax(kmax: int) -> None:
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if kmax > MAX_REMARK29_KMAX:
        raise ValueError(f"kmax must be <= {MAX_REMARK29_KMAX}")


def remark29_exponents(kmax: int) -> list[int]:
    """e_1..e_kmax with prod_k (1 - X^k)^{e_k} = 1 - 2X, via Moebius inversion.

    Asserts each value is a positive integer; a failure here would mean the
    closed formula and the product identity disagree.  kmax runs from 1 to
    MAX_REMARK29_KMAX; another raises ValueError.
    """
    _check_kmax(kmax)
    out = []
    for k in range(1, kmax + 1):
        total = sum(mobius(k // d) * 2**d for d in divisors(k))
        if total % k != 0:
            raise ArithmeticError("exponent is not an integer")
        e = total // k
        if e < 1:
            raise ArithmeticError("exponent is not positive")
        out.append(e)
    return out


def series_inversion_oracle(kmax: int) -> list[int]:
    """The same exponents recovered degree by degree from the series 1 - 2X.

    Keeps the residual series after stripping the factors found so far; its
    lowest nonconstant coefficient determines the next exponent.  Integer
    arithmetic throughout.  kmax is checked as in remark29_exponents.
    """
    _check_kmax(kmax)
    n = kmax
    residual = [0] * (n + 1)
    residual[0] = 1
    residual[1] = -2
    out = []
    for k in range(1, n + 1):
        e = -residual[k]
        out.append(e)
        if e == 0:
            continue
        # multiply by (1 - X^k)^{-e} = sum_j C(e+j-1, j) X^{jk}
        updated = [0] * (n + 1)
        for j in range(0, n // k + 1):
            coeff = comb(e + j - 1, j) if e >= 0 else (-1) ** j * comb(-e, j)
            if coeff == 0:
                continue
            for i in range(0, n + 1 - j * k):
                updated[i + j * k] += coeff * residual[i]
        residual = updated
    return out


# -- signed support whose expansion still lands on a sphere --------------------------


def remark210_counterexample() -> tuple[SignedSupportMap, GroupRingElement, SphereFit]:
    """A signed support in dimension 4 whose expansion has spherical support.

    Realizes two directions with Gram matrix ((4,-2),(-2,4)) as rational
    vectors.  The expansion is a quotient, computed by exact division.  The
    absolute support doubled by negation is not a root system, so the sphere
    here genuinely needs the signed multiplicities.
    """
    from .group_ring import SignedSupportMap, expand_product
    from .quadric import _sphere_about

    alpha = vector([2, 0, 0, 0])
    beta = vector([-1, 1, 1, 1])
    gamma = tuple(a + b for a, b in zip(alpha, beta))
    m = SignedSupportMap(
        4,
        {
            vscale(Q(2), alpha): 1,
            vscale(Q(2), beta): 1,
            gamma: 1,
            alpha: -1,
            beta: -1,
        },
    )
    quotient = expand_product(m)
    # sum m(s)*s = 2*gamma: the support is symmetric about rho_m = gamma (see characterize_finite)
    fit = _sphere_about(list(quotient._ints), quotient._scale, 1, _int_key(gamma, quotient._scale))
    if fit is None:
        raise ArithmeticError("expected spherical support")
    return m, quotient, fit
