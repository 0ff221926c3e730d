"""Affine root supports: reflections, truncated enumeration, Weyl sums, verdicts."""

from __future__ import annotations

from fractions import Fraction
from math import floor
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .exact import (
    AffineVector,
    Q,
    Vector,
    VerdictMismatchError,
    _Value,
    _common_denominator,
    _grade_bound,
    _int_key,
    inner,
    integer,
    is_zero,
    json_field,
    json_items,
    rational,
    span_rank,
    unflatten,
    vector,
    vneg,
    vscale,
    vsub,
    zero_vector,
)
from .finite_root import (
    DEFAULT_WEYL_BOUND,
    Matrix,
    RootSystem,
    _checked_components,
    _components,
    _mirror_norm,
    _only_opposite_parallels,
    _orbit_walk,
    _reflect,
    _reflection,
    _reflection_closure,
    base,
)
from .group_ring import GroupRingElement, truncated_product

if TYPE_CHECKING:
    from .quadric import ParaboloidFit


def grade(v: AffineVector, grading: AffineVector) -> Fraction:
    return v.level * grading.level + inner(v.part, grading.part)


def _graded(v: AffineVector, grading: AffineVector) -> tuple:
    """The sort key of support items: grade, then level, then part."""
    return grade(v, grading), v.level, v.part


def linear_form(a: AffineVector, x: Vector) -> Fraction:
    """The affine-linear form of a root: <part(a), x> + level(a)."""
    return inner(a.part, x) + a.level


def affine_reflect_point(a: AffineVector, x: Vector) -> Vector:
    """Reflection of a point of V in the zero set of the root's affine form."""
    nn = _mirror_norm(a.part, "an isotropic vector")
    return vsub(x, vscale(2 * linear_form(a, x) / nn, a.part))


def affine_reflect_vec(a: AffineVector, v: AffineVector) -> AffineVector:
    """Reflection of an extended vector: mirror (0; part), root a; isotropic vectors are fixed."""
    return unflatten(_reflect((Q(0),) + a.part, a.flatten(), v.flatten(), "an isotropic vector"))


def affine_reflection_matrix(a: AffineVector) -> Matrix:
    """Matrix of the extended reflection on flattened (level, part) coordinates."""
    return _reflection((Q(0),) + a.part, a.flatten(), "an isotropic vector")


# -- support specifications ---------------------------------------------------------


def _frame(grading: AffineVector, cutoff) -> Fraction:
    """The cutoff of a spec as a Fraction, once it and the grading level are checked to be positive.

    A grading of another dimension than the spec's raises "dimension
    mismatch" where grade() first pairs it with an item or a ladder root.
    """
    cutoff = rational(cutoff)
    if grading.level <= 0:
        raise ValueError("grading level must be positive")
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    return cutoff


class ExplicitAffineSupport(_Value):
    """A finite list of graded support items: (AffineVector, multiplicity) pairs.

    The constructor sums the multiplicities of repeated items and sorts them
    by grade, then level, then part.
    """

    __slots__ = _fields = ("dim", "items", "grading", "cutoff")

    def __init__(self, dim: int, items: tuple, grading: AffineVector, cutoff: Fraction):
        cutoff = _frame(grading, cutoff)
        self.items = _checked_items(dim, items, grading, cutoff)
        self.dim, self.grading, self.cutoff = dim, grading, cutoff


def _checked_items(dim: int, items, grading: AffineVector, cutoff: Fraction) -> tuple:
    """The (AffineVector, multiplicity) items of a spec, merged and sorted by grade, then level, then part.

    Each item, in order, must have dimension dim, not be m(0), have a
    positive integer multiplicity and a grade in (0, cutoff]; the first that
    does not raises ValueError, and so does an empty list ("empty support").
    Both kinds of spec build their items here.
    """
    merged: dict[AffineVector, int] = {}
    for av, mult in items:
        if av.dim != dim:
            raise ValueError("dimension mismatch")
        if av.level == 0 and is_zero(av.part):
            raise ValueError("m(0) must be 0")
        mult = integer(mult)
        if mult <= 0:
            raise ValueError("multiplicities must be positive")
        g = grade(av, grading)
        if g <= 0 or g > cutoff:
            raise ValueError("explicit item with grade > C or <= 0")
        merged[av] = merged.get(av, 0) + mult
    if not merged:
        raise ValueError("empty support")
    return tuple(sorted(merged.items(), key=lambda t: _graded(t[0], grading)))


class GeneratedAffineSupport(_Value):
    """Level ladders over a finite root set, plus isotropic items of fixed multiplicity.

    Real items are (k*period; a) for every root a, graded positive and within
    the cutoff; isotropic items sit at the positive multiples of the period
    with multiplicity equal to the rank.  The constructor coerces, dedupes
    and checks the roots as RootSystem does, and builds the items once, in
    items, through the item check of ExplicitAffineSupport; items is not a
    field, so equality, hash and repr read the generating data only.  The
    constructor raises "grading not generic: a ladder hits grade 0" when a
    ladder point has grade 0, and the item check raises "multiplicities must
    be positive" when there are no roots (rank 0) and "empty support" when
    no item has grade in (0, cutoff].
    """

    _fields = ("dim", "roots", "grading", "cutoff", "period", "name")
    __slots__ = _fields + ("items",)

    def __init__(
        self,
        dim: int,
        roots: tuple[Vector, ...],
        grading: AffineVector,
        cutoff: Fraction,
        period: Fraction = Q(1),
        name: str = "",
    ):
        cutoff, period = _frame(grading, cutoff), rational(period)
        if period <= 0:
            raise ValueError("period must be positive")
        self.dim, self.roots, self.grading = dim, RootSystem(dim, roots).roots, grading
        self.cutoff, self.period, self.name = cutoff, period, name
        step = period * grading.level
        items: list[tuple[AffineVector, int]] = []
        for a in self.roots:
            # integer k with lo < k <= hi, that is 0 < k*step + g0 <= cutoff
            g0 = inner(a, grading.part)
            lo, hi = -g0 / step, (cutoff - g0) / step
            if lo.denominator == 1:
                raise ValueError("grading not generic: a ladder hits grade 0")
            items += [(AffineVector(k * period, a), 1) for k in range(floor(lo) + 1, floor(hi) + 1)]
        mult = self.rank
        # with no roots (rank 0) the first rung stays, even above the cutoff, so that the check refuses multiplicity 0
        rungs = range(1, floor(cutoff / step) + 1) if mult else (1,)
        items += [(AffineVector(k * period, zero_vector(dim)), mult) for k in rungs]
        self.items = _checked_items(dim, items, grading, cutoff)

    @property
    def rank(self) -> int:
        return span_rank(self.roots)[0]


AffineSupportSpec = ExplicitAffineSupport | GeneratedAffineSupport


def enumerate_support(spec: AffineSupportSpec) -> list[tuple[AffineVector, int]]:
    """All support items of grade in (0, cutoff], sorted by grade then level then part.

    Both kinds of spec build their items at construction, where their errors
    raise, so this is a copy of spec.items.
    """
    return list(spec.items)


# -- structure of the real part -----------------------------------------------------


class AffineView(NamedTuple):
    r1: tuple[Vector, ...]
    rinf: tuple[Vector, ...]
    q: dict
    u: dict


def decompose(roots) -> AffineView:
    """Split truncated real items by direction into one-level and ladder directions.

    Ladder directions must show equally spaced levels ("non-arithmetic
    levels" otherwise); u is the spacing, q the lowest-level representative.
    """
    by_dir: dict[Vector, set] = {}
    for av in roots:
        if is_zero(av.part):
            raise ValueError("isotropic item in the real part")
        by_dir.setdefault(av.part, set()).add(av.level)
    r1 = []
    rinf = []
    q: dict[Vector, AffineVector] = {}
    u: dict[Vector, Fraction] = {}
    for part, levels in by_dir.items():
        ordered = sorted(levels)
        q[part] = AffineVector(ordered[0], part)
        if len(ordered) == 1:
            r1.append(part)
            continue
        gaps = {b - a for a, b in zip(ordered, ordered[1:])}
        if len(gaps) != 1:
            raise ValueError("non-arithmetic levels")
        rinf.append(part)
        u[part] = gaps.pop()
    return AffineView(tuple(sorted(r1)), tuple(sorted(rinf)), q, u)


def imaginary_roots(view: AffineView, base_dirs, cutoff, grading: AffineVector) -> list[tuple[AffineVector, int]]:
    """Isotropic items k*(u_a; 0) over ladder base directions, with counting multiplicity.

    For each base direction a with a ladder of spacing u_a, the items are
    k*(u_a; 0) for k = 1, 2, ... while k * u_a * level <= cutoff, so a
    cutoff <= 0 gives none.  A grading level that is not positive raises
    ValueError("grading level must be positive").
    """
    cutoff = rational(cutoff)
    p1 = grading.level
    if p1 <= 0:
        raise ValueError("grading level must be positive")
    counts: dict[Fraction, int] = {}
    dim = grading.dim
    for b in base_dirs:
        b = vector(b)
        if b not in view.u:
            continue
        ua = view.u[b]
        for k in range(1, floor(cutoff / (ua * p1)) + 1):
            counts[k * ua] = counts.get(k * ua, 0) + 1
    return [(AffineVector(level, zero_vector(dim)), counts[level]) for level in sorted(counts)]


# -- axioms at a truncation level ----------------------------------------------------


class AffineAxiomReport(NamedTuple):
    ar1: bool
    ar2: bool
    ar3: bool
    ar4: bool
    ar5: bool
    irreducible: bool
    rank: int
    cutoff: Fraction
    real_count: int

    def all_pass(self) -> bool:
        return self.ar1 and self.ar2 and self.ar3 and self.ar4 and self.ar5


def check_affine_axioms(spec: AffineSupportSpec) -> AffineAxiomReport:
    """AR1-AR5 plus irreducibility, all relative to the truncation cutoff.

    AR1 asks the truncated real roots to span the level axis together with
    the span of their parts; AR2 closure is demanded only for reflection
    images whose grade stays within the cutoff in absolute value; AR4 is
    finiteness, witnessed by the enumeration itself.  Every real item has
    positive grade, so the integer keys of the real items are one key of
    each pair k, -k: the half that the ranks, the components and the one
    AR2/AR3 reflection pass run over, with mirror (0; part) as in FR2/FR3
    (see _reflection_closure).  The window |grade| <= cutoff is symmetric.
    """
    real = [av.flatten() for av, _ in spec.items if not is_zero(av.part)]
    g = spec.grading.flatten()
    scale = _common_denominator([*real, g])
    half = {_int_key(f, scale) for f in real}
    keys = half | {tuple(-x for x in k) for k in half}
    gint = _int_key(g, scale)
    num, den = _grade_bound(spec.cutoff, scale)

    def inside(u) -> bool:
        return abs(sum(map(mul, gint, u))) * den <= num

    parts = list({k[1:] for k in half})
    rank = span_rank(half)[0]
    ar1 = rank == 1 + span_rank(parts)[0]
    steps = [((0, *k[1:]), sum(x * x for x in k[1:]), k) for k in half]
    ar2, ar3 = _reflection_closure(steps, half, keys, inside)
    ar5 = _only_opposite_parallels(half)
    # p and -p have the same neighbours, so the parts of half give the components of the parts of keys
    irreducible = len(_components(parts)) == 1

    return AffineAxiomReport(
        ar1=ar1,
        ar2=ar2,
        ar3=ar3,
        ar4=True,
        ar5=ar5,
        irreducible=irreducible,
        rank=rank,
        cutoff=spec.cutoff,
        real_count=len(real),
    )


# -- alternating Weyl sum ------------------------------------------------------------


def _affine_base(items, grading: AffineVector) -> list[AffineVector]:
    """Positive real items that are not sums of two positive items (isotropic included)."""
    out = [unflatten(f) for f in base([av.flatten() for av, _ in items]) if not is_zero(f[1:])]
    return sorted(out, key=lambda a: _graded(a, grading))


def affine_weyl_rhs(spec: AffineSupportSpec, bound: int = DEFAULT_WEYL_BOUND) -> GroupRingElement:
    """Sum of det(w) e^{s(w)} over group elements with grade(s(w)) <= cutoff.

    s(w) is the sum of the positive real roots sent negative by w.  The
    orbit walk steps by s(s_i w) = s_i(s(w)) + a_i, the reflection pairing
    parts only.  Along a reduced word each step adds
    <rho, w^-1 a_i^v> * grade(a_i) > 0 to the grade, so a node above the
    cutoff is dropped with everything beyond it, exactly.  bound counts the
    elements kept, those with grade(s(w)) <= cutoff; when more are found,
    GroupTooLargeError is raised.

    A spec that is not a GeneratedAffineSupport raises ValueError, and so
    do roots that are not a root system, as in classify: the rise along
    reduced words is a fact about root systems.  The base is never empty: a
    generated spec holds a real item, and its real item of least grade is
    not a sum of two items.
    """
    if not isinstance(spec, GeneratedAffineSupport):
        raise ValueError("affine Weyl sum needs a generated spec")
    _checked_components(spec.roots)
    simples = _affine_base(spec.items, spec.grading)
    roots = [a.flatten() for a in simples]
    mirrors = [(Q(0),) + a.part for a in simples]
    nodes, scale = _orbit_walk(mirrors, roots, bound, spec.grading.flatten(), spec.cutoff)
    return GroupRingElement._from_ints(1 + spec.dim, scale, {key: (-1) ** d for key, d, _ in nodes})


# -- characterization ----------------------------------------------------------------


class AffineVerdict(NamedTuple):
    on_paraboloid: bool
    fit: ParaboloidFit | None
    cutoff: Fraction
    grading: AffineVector
    axioms: AffineAxiomReport
    real_multiplicities_ok: bool
    imaginary_multiplicities_ok: bool
    levels_arithmetic: bool
    irreducible: bool
    imaginary_base: tuple[Vector, ...]

    def axiomatic_verdict(self) -> bool:
        return (
            self.real_multiplicities_ok
            and self.imaginary_multiplicities_ok
            and self.levels_arithmetic
            and self.axioms.all_pass()
            and self.irreducible
        )


def characterize_affine(spec: AffineSupportSpec) -> AffineVerdict:
    """Truncated paraboloid test against the axiomatic conditions.

    The truncated expansion is exactly the low-grade part of the full one, so
    when the axiomatic route accepts, the truncated support must admit an
    exact paraboloid fit; that direction is asserted (given irreducibility).
    A fit may still exist for defective supports when the cutoff is too
    shallow to expose the defect geometrically, so the converse is reported,
    not asserted.
    """
    from .quadric import _fit_paraboloid_keys

    items = spec.items
    real = [(av, m) for av, m in items if not is_zero(av.part)]
    iso = [(av, m) for av, m in items if is_zero(av.part)]

    factors = [(av.flatten(), m) for av, m in items]
    expansion = truncated_product(factors, spec.grading.flatten(), spec.cutoff)
    scale, ints = expansion._scale, expansion._ints
    fit = _fit_paraboloid_keys(list(ints), scale)
    on_paraboloid = fit is not None

    axioms = check_affine_axioms(spec)
    real_ok = all(m == 1 for _, m in real)

    levels_arithmetic = True
    imag_ok = False
    base_dirs: tuple[Vector, ...] = ()
    try:
        view = decompose([av for av, _ in real])
    except ValueError:
        view = None
        levels_arithmetic = False
    if view is not None:
        # the lexicographically positive one of each projected pair +-p is the greater
        base_dirs = tuple(base({max(av.part, vneg(av.part)) for av, _ in real}))
        expected = imaginary_roots(view, base_dirs, spec.cutoff, spec.grading)
        # items are sorted by grade, and an isotropic item's grade is its level times grading.level > 0
        imag_ok = expected == iso

    verdict = AffineVerdict(
        on_paraboloid=on_paraboloid,
        fit=fit,
        cutoff=spec.cutoff,
        grading=spec.grading,
        axioms=axioms,
        real_multiplicities_ok=real_ok,
        imaginary_multiplicities_ok=imag_ok,
        levels_arithmetic=levels_arithmetic,
        irreducible=axioms.irreducible,
        imaginary_base=base_dirs,
    )
    if verdict.axiomatic_verdict() and not on_paraboloid:
        raise VerdictMismatchError("axiomatic verdict True disagrees with paraboloid verdict False")
    return verdict


# -- serialization ----------------------------------------------------------------


def affine_vector_to_json(a: AffineVector) -> dict:
    return {"level": str(a.level), "v": [str(c) for c in a.part]}


def affine_vector_from_json(d: dict, where: str = "input") -> AffineVector:
    return AffineVector(json_field(d, "level", where, rational), json_field(d, "v", where, vector))


def explicit_spec_to_json(spec: ExplicitAffineSupport) -> dict:
    return {
        "kind": "explicit",
        "dim": spec.dim,
        "items": [dict(affine_vector_to_json(av), mult=m) for av, m in spec.items],
        "grading": affine_vector_to_json(spec.grading),
        "cutoff": str(spec.cutoff),
    }


def explicit_spec_from_json(d: dict) -> ExplicitAffineSupport:
    """The explicit spec d holds; a "kind" other than "explicit" (a generated spec's, say) raises ValueError."""
    if isinstance(d, dict) and d.get("kind", "explicit") != "explicit":
        raise ValueError('input: field "kind" must be "explicit"')
    dim = json_field(d, "dim", coerce=integer)
    items = tuple(
        (affine_vector_from_json(item, where), json_field(item, "mult", where, integer))
        for where, item in json_items(d, "items").items()
    )
    return ExplicitAffineSupport(
        dim=dim,
        items=items,
        grading=affine_vector_from_json(json_field(d, "grading"), "grading"),
        cutoff=json_field(d, "cutoff", coerce=rational),
    )


def affine_axiom_report_to_json(rep: AffineAxiomReport) -> dict:
    return {**rep._asdict(), "cutoff": str(rep.cutoff)}


def affine_verdict_to_json(v: AffineVerdict) -> dict:
    from .quadric import paraboloid_fit_to_json

    return {
        "on_paraboloid": v.on_paraboloid,
        "fit": paraboloid_fit_to_json(v.fit),
        "cutoff": str(v.cutoff),
        "grading": affine_vector_to_json(v.grading),
        "axioms_at_level": affine_axiom_report_to_json(v.axioms),
        "real_multiplicities_ok": v.real_multiplicities_ok,
        "multiplicities_ok": v.imaginary_multiplicities_ok,
        "levels_arithmetic": v.levels_arithmetic,
        "irreducible": v.irreducible,
        "imaginary_base": [[str(c) for c in b] for b in v.imaginary_base],
    }
