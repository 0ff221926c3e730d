"""Finite root systems: axioms, Weyl groups, denominator sums, characterization."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, prod
from operator import mul, sub
from typing import TYPE_CHECKING, NamedTuple

from .exact import (
    GroupTooLargeError,
    Q,
    Vector,
    VerdictMismatchError,
    _Value,
    _common_denominator,
    _grade_bound,
    _int_key,
    _lex_functional,
    generic_separator,
    inner,
    integer,
    json_field,
    json_items,
    norm_sq,
    span_rank,
    vadd,
    vector,
    vneg,
    vscale,
    vsub,
    zero_vector,
)

if TYPE_CHECKING:
    from .group_ring import GroupRingElement, SupportMap
    from .quadric import SphereFit


class RootSystem(_Value):
    """A finite set of nonzero roots of dimension dim.

    The constructor coerces the roots to Fractions, drops repeats and sorts
    them.
    """

    __slots__ = _fields = ("dim", "roots")

    def __init__(self, dim: int, roots: tuple[Vector, ...]):
        if dim < 0:
            raise ValueError("dim must be >= 0")
        rs = sorted({vector(r) for r in roots})
        for r in rs:
            if len(r) != dim:
                raise ValueError("dimension mismatch")
            if all(c == 0 for c in r):
                raise ValueError("0 is not a root")
        self.dim, self.roots = dim, tuple(rs)

    @property
    def rank(self) -> int:
        return span_rank(self.roots)[0]


class AxiomReport(NamedTuple):
    fr1: bool
    fr2: bool
    fr3: bool
    fr4: bool
    fr5: bool
    rank: int

    def all_pass(self) -> bool:
        return self.fr1 and self.fr2 and self.fr3 and self.fr4 and self.fr5


def reflect(v: Vector, a: Vector) -> Vector:
    """Reflection of v in the hyperplane orthogonal to a: the vector first, the mirror root second.

    Note the order differs from affine_root.affine_reflect_vec(a, v), which
    takes the root first.
    """
    a = vector(a)
    return _reflect(a, a, vector(v), "the zero vector")


def _mirror_norm(m: Vector, what: str) -> Fraction:
    """<m, m>, the divisor of a reflection with mirror m; 0 raises ValueError("cannot reflect in " + what)."""
    mm = norm_sq(m)
    if mm == 0:
        raise ValueError(f"cannot reflect in {what}")
    return mm


def _reflect(m: Vector, r: Vector, v: Vector, what: str) -> Vector:
    """v - (2<m, v>/<m, m>) r: the reflection with mirror m and root r.

    A finite reflection has m = r; the affine one in a = (level; part) has
    m = (0; part) and r = a, the form _reflection_closure and _orbit_walk
    step by on integer keys.  what names m in the error of <m, m> = 0.
    """
    mm = _mirror_norm(m, what)
    return vsub(v, vscale(2 * inner(m, v) / mm, r))


Matrix = tuple[Vector, ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(inner(row, v) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b))
    return tuple(tuple(inner(row, col) for col in bt) for row in a)


def mat_det(m: Matrix) -> Fraction:
    n = len(m)
    rows = [list(r) for r in m]
    det = Q(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            return Q(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = -det
        det *= rows[c][c]
        inv = rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def reflection_matrix(a: Vector) -> Matrix:
    """Matrix of the reflection in the hyperplane orthogonal to a; the dimension is len(a)."""
    a = vector(a)
    return _reflection(a, a, "the zero vector")


def _reflection(m: Vector, r: Vector, what: str) -> Matrix:
    """The matrix I - 2 r m^T/<m, m> of _reflect(m, r, ., what)."""
    t = vscale(2 / _mirror_norm(m, what), m)
    return tuple(tuple((Q(1) if i == j else Q(0)) - x * y for j, y in enumerate(t)) for i, x in enumerate(r))


def check_axioms(rs: RootSystem) -> AxiomReport:
    """Axiom report for a candidate root set, span-relative.

    FR1 (spanning) is relative to the span of the set itself, hence always
    true and reported with the rank; FR4 (finiteness) is true for any finite
    input.  FR2 is closure under all reflections, FR3 integrality of the
    Cartan pairings, FR5 that the only parallel root pairs are a, -a.  On
    integer keys, FR2 and FR3 share one pass over the pairs of half, the
    key of each pair k, -k whose first nonzero coordinate is positive (the
    half _lex_positive takes); see _reflection_closure.
    """
    scale = _common_denominator(rs.roots)
    keys = {_int_key(a, scale) for a in rs.roots}
    return _axiom_report({max(k, tuple(-x for x in k)) for k in keys}, keys)


def _axiom_report(half, keys) -> AxiomReport:
    """check_axioms of the integer key set keys, whose half holds max(k, -k) of each k: one pass over half."""
    fr2, fr3 = _reflection_closure([(k, sum(map(mul, k, k)), k) for k in half], half, keys)
    fr5 = _only_opposite_parallels(half)
    return AxiomReport(fr1=True, fr2=fr2, fr3=fr3, fr4=True, fr5=fr5, rank=span_rank(half)[0])


def _reflection_closure(steps, half, keys, inside=None) -> tuple[bool, bool]:
    """(closed, integral) for the steps (m, <m, m>, r): v -> v - (2<m, v>/<m, m>) r on keys.

    closed: every image of a key is a key (every image with inside(image),
    when given); integral: every coefficient 2<m, v>/<m, m> is an integer.
    half holds one key of each pair k, -k, and the steps are those of half.
    That is enough (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 9.1): the reflection in -a is the reflection in
    a, with the coefficient negated; s_a(-v) = -s_a(v); and s_a(a) = -a, so
    a set that is not closed under negation is not closed.  inside must be
    symmetric, inside(-u) == inside(u), and hold on every key.  A
    coefficient that is not an integer stays an exact Fraction, so its image
    is exact too.
    """
    closed = len(keys) == 2 * len(half)
    integral = True
    for m, mm, r in steps:
        for v in half:
            num = 2 * sum(map(mul, m, v))
            c, rem = divmod(num, mm)
            if rem:
                integral = False
                c = Fraction(num, mm)
            if closed:
                u = tuple(x - c * y for x, y in zip(v, r))
                if u not in keys and (inside is None or inside(u)):
                    closed = False
        if not (closed or integral):
            break
    return closed, integral


def _only_opposite_parallels(half) -> bool:
    """True when the only parallel pairs among the nonzero integer keys half and -half are k, -k.

    Parallel keys of half point the same way, as they do in both callers'
    halves, so this holds exactly when no two keys of half share the
    primitive direction k // gcd(k).
    """
    return len({tuple(x // gcd(*k) for x in k) for k in half}) == len(half)


class PositiveSystem(NamedTuple):
    rplus: list[Vector]
    separator: Vector


def positive_roots(rs: RootSystem) -> PositiveSystem:
    """Lexicographic positive half, with a separator that is exactly positive on it.

    A root is positive when its first nonzero coordinate is positive.  The
    separator is generic_separator(roots, 0), the functional
    (M^(n-1), ..., M, 1) with M > 2*max|coordinate| once the coordinates are
    scaled to integers: it takes the sign of the first nonzero coordinate on
    every root.  With no roots it is (1, ..., 1).
    """
    sep = generic_separator(rs.roots, zero_vector(rs.dim)) if rs.roots else (Q(1),) * rs.dim
    return PositiveSystem(_lex_positive(rs.roots), sep)


def _lex_positive(roots) -> list[Vector]:
    """The roots whose first nonzero coordinate is positive, sorted: the half of positive_roots."""
    return sorted(a for a in roots if next(c for c in a if c != 0) > 0)


def base(rplus) -> list[Vector]:
    """Elements of the positive half that are not sums of two of its elements.

    k is such a sum exactly when k - x is an element for some element x.
    """
    pos = [vector(a) for a in rplus]
    scale = _common_denominator(pos)
    keys = [_int_key(a, scale) for a in pos]
    present = set(keys)
    return sorted(a for a, k in zip(pos, keys) if not any(tuple(map(sub, k, x)) in present for x in keys))


def weyl_vector(rplus) -> Vector:
    pos = [vector(a) for a in rplus]
    if not pos:
        raise ValueError("empty positive system")
    acc = zero_vector(len(pos[0]))
    for a in pos:
        acc = vadd(acc, a)
    return vscale(Q(1, 2), acc)


class WeylElement(_Value):
    """A group element w: its lex-least reduced word, det(w) and an orbit vector.

    w is the product of the simple reflections of the word, read left to
    right.  The orbit vector rho - w^-1(rho) is held only as the walk's
    integer key: it is key/scale.  The orbit walk steps by left
    multiplication, so the word is the walk's path from the identity to
    w^-1.  matrix is built from the word on first access and kept.  The
    simple roots the word refers to are not among the fields.
    """

    _fields = ("word", "det", "key", "scale")
    __slots__ = _fields + ("simples", "_matrix")

    def __init__(
        self, word: tuple[int, ...], det: int, key: tuple[int, ...], scale: int, simples: tuple[Vector, ...]
    ):
        self.word, self.det, self.key, self.scale, self.simples = word, det, key, scale, simples
        self._matrix = None

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            m = identity_matrix(len(self.key))
            for i in self.word:
                m = mat_mul(m, reflection_matrix(self.simples[i]))
            if mat_det(m) != self.det:
                raise ArithmeticError("determinant bookkeeping failed")
            self._matrix = m
        return self._matrix


# default cap on the group elements a Weyl sum walks, finite (enumerate_weyl) and affine (affine_weyl_rhs)
DEFAULT_WEYL_BOUND = 10**6

_SERIES_ORDER = {
    "E6": 51840,
    "E7": 2903040,
    "E8": 696729600,
    "F4": 1152,
    "G2": 12,
}


def _component_order(letter: str, rank: int) -> int:
    """Order of the Weyl group of the irreducible type letter+rank: the one table of orders."""
    if letter == "A":
        return factorial(rank + 1)
    if letter in ("B", "C"):
        return 2**rank * factorial(rank)
    if letter == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return _SERIES_ORDER[f"{letter}{rank}"]


def weyl_order(roots) -> int:
    """Order of the Weyl group of a root system given as a sequence of its roots.

    Computed from the classification, without enumerating the group.  A
    set that is not a root system raises ValueError, as in classify.
    """
    roots = [vector(r) for r in roots]
    if not roots:
        raise ValueError("empty root set")
    rs = RootSystem(len(roots[0]), tuple(roots))
    return _order_of_components(_checked_components(rs.roots))


def _order_of_components(components) -> int:
    return prod(_component_order(letter, rank) for letter, rank in components)


def _orbit_walk(mirrors, roots, bound: int, grading=None, cutoff=None):
    """Breadth-first walk over the orbit vectors s(w) of a reflection group.

    Reflection i sends v to v - (2<m_i, v>/<m_i, m_i>) r_i, with m_i =
    mirrors[i] and r_i = roots[i].  The walk steps from s(w) to
    s(s_i w) = s_i(s(w)) + r_i, starting at s(1) = 0: the step of a
    positive system, whose rho pairs to 1 with every simple coroot
    (Humphreys, Introduction to Lie Algebras and Representation Theory,
    10.2, Lemma B).  It deduplicates by the vector, which is exact while
    w -> s(w) is injective.  The depth of a node is the length of w, so
    det(w) = (-1)^depth: a neighbour of a node at depth d-1 must sit at
    depth d-2 or d, and anything else (an odd cycle, so s is not injective)
    raises ArithmeticError.  With a grading, a node of grade above the
    cutoff is dropped; this is exact when the grade of s(w) rises along
    every reduced word.  bound caps the number of nodes kept.

    Vectors are keyed by their coordinates times a common denominator, the
    returned scale.  Every coefficient 2<m_i, v>/<m_i, m_i> is an integer
    for the roots of a root system; one that is not raises ArithmeticError.
    Returns (nodes, scale); nodes are (key, depth, word) in order of depth
    then lexicographic word, where word is the lex-least path from the
    identity.
    """
    vectors = [*mirrors, *roots]
    prune = grading is not None
    if prune:
        vectors.append(grading)
    scale = _common_denominator(vectors)
    steps = []
    for m, r in zip(mirrors, roots):
        m = _int_key(m, scale)
        steps.append((m, sum(map(mul, m, m)), _int_key(r, scale)))
    if prune:
        g = _int_key(grading, scale)
        num, den = _grade_bound(cutoff, scale)
        top = num // den

    zero = (0,) * len(steps[0][0])
    depth = {zero: 0}
    nodes = [(zero, 0, ())]
    layer = [(zero, ())]
    d = 0
    while layer:
        d += 1
        nxt = []
        for v, word in layer:
            for i, (m, mm, r) in enumerate(steps):
                # c is the coefficient less 1: s_i(v) + r_i = v - c r_i
                c, rem = divmod(2 * sum(map(mul, m, v)) - mm, mm)
                if rem:
                    raise ArithmeticError("reflection coefficient is not an integer")
                u = tuple(x - c * y for x, y in zip(v, r))
                seen = depth.get(u)
                if seen is not None:
                    if seen != d and seen != d - 2:
                        raise ArithmeticError("orbit collision: w -> s(w) was not injective")
                    continue
                if prune and sum(map(mul, g, u)) > top:
                    continue
                if len(depth) >= bound:
                    raise GroupTooLargeError("group too large")
                depth[u] = d
                nxt.append((u, word + (i,)))
        nodes.extend((u, d, word) for u, word in nxt)
        layer = nxt
    return nodes, scale


def enumerate_weyl(rplus, bound: int = DEFAULT_WEYL_BOUND) -> list[WeylElement]:
    """The reflection group of base(rplus), from the orbit walk of rho.

    rplus is a positive system; its simple roots are taken as base(rplus)
    and rho = weyl_vector(rplus).  The one precondition: rho pairs to 1
    with every simple coroot, <rho, a_i^v> = 1, as it does for every
    positive system of a root system; an rplus that breaks it raises
    ValueError, and so does a base of no finite type ("unrecognized"), as
    in classify.  The walk then steps by s(s_i w) = s_i(s(w)) + a_i on
    s(w) = rho - w(rho).  Elements come out sorted by word length then
    lexicographic word.  The classification-based order check makes
    oversized groups fail before the walk starts; the bound is enforced
    during the walk as well, and a walk shorter than the classified order
    means w -> rho - w(rho) was not injective.
    """
    pos = [vector(a) for a in rplus]
    simples = base(pos)
    if not simples:
        raise ValueError("empty positive system")
    order = _order_of_components(_classify_components(simples))
    rho = weyl_vector(pos)
    if any(2 * inner(rho, a) != norm_sq(a) for a in simples):
        raise ValueError("not a positive system: rho does not pair to 1 with every simple coroot")
    if order > bound:
        raise GroupTooLargeError("group too large")

    nodes, scale = _orbit_walk(simples, simples, bound)
    if len(nodes) != order:
        raise ArithmeticError("orbit collision: w -> rho - w(rho) was not injective")
    gens = tuple(simples)
    return [WeylElement(word, (-1) ** d, key, scale, gens) for key, d, word in nodes]


def denominator_rhs(rplus, bound: int = DEFAULT_WEYL_BOUND) -> GroupRingElement:
    """Alternating sum over the reflection group: sum_w det(w) e^{rho - w(rho)}.

    It is summed as sum_w det(w) e^{rho - w^-1(rho)}, the same sum, since
    w -> w^-1 permutes the group and keeps det.  enumerate_weyl coerces
    rplus, refuses an empty one and checks the one precondition, that rho
    pairs to 1 with every simple coroot; the identity's key gives the
    dimension.
    """
    from .group_ring import GroupRingElement

    els = enumerate_weyl(rplus, bound)
    return GroupRingElement._from_ints(len(els[0].key), els[0].scale, {w.key: w.det for w in els})


# -- classification ----------------------------------------------------------------


def _components(vectors) -> list[list[int]]:
    """Connected components of the non-orthogonality graph, as lists of indices.

    The components come in the order of their least index, and the indices
    of each in ascending order; a zero vector is a component of its own.
    Each component grows from the least index not yet reached.
    """
    rest = list(range(len(vectors)))
    components = []
    while rest:
        component, rest = rest[:1], rest[1:]
        for i in component:
            far = []
            for j in rest:
                (component if sum(map(mul, vectors[i], vectors[j])) else far).append(j)
            rest = far
        components.append(sorted(component))
    return components


def _root_orbit(keys) -> set[tuple[int, ...]]:
    """The orbit of the integer simple keys under the group their reflections generate: their roots.

    From the keys, v steps to v - (2<a, v>/<a, a>) a for each key a, and a
    coefficient that is not an integer raises ValueError("unrecognized").
    For independent, pairwise obtuse keys (_typed_orbits checks), the steps
    with a negative coefficient climb in height and reach every positive
    root (Humphreys, Introduction to Lie Algebras and Representation Theory,
    10.2-10.3); the negatives are added at the end.  No size cap is needed:
    every image is an integer combination of the independent keys with the
    length of a key, and a lattice holds finitely many vectors of bounded length.
    """
    steps = [(a, sum(map(mul, a, a))) for a in keys]
    positive = set(keys)
    layer = list(keys)
    while layer:
        nxt = []
        for v in layer:
            for a, aa in steps:
                c, rem = divmod(2 * sum(map(mul, a, v)), aa)
                if rem:
                    raise ValueError("unrecognized")
                if c < 0:
                    u = tuple(x - c * y for x, y in zip(v, a))
                    if u not in positive:
                        positive.add(u)
                        nxt.append(u)
        layer = nxt
    return positive | {tuple(-x for x in k) for k in positive}


def _typed_orbits(keys) -> list[tuple[tuple[str, int], set[tuple[int, ...]]]]:
    """((letter, rank), root orbit) of each component of the system with these integer simple keys.

    Dependent keys, an acute pair or a coefficient that is not an integer
    raise ValueError("unrecognized").  A component of rank n is named by
    its roots: of one length, A_n at n(n+1), D_n at 2n(n-1), else E_n; of
    two, G2 at 12, F4 at 48, B_n at 2n short ones, else C_n (Humphreys 12.2).
    """
    if not keys or span_rank(keys)[0] < len(keys) or any(sum(map(mul, a, b)) > 0 for a, b in combinations(keys, 2)):
        raise ValueError("unrecognized")
    typed = []
    for idx in _components(keys):
        n = len(idx)
        orbit = _root_orbit([keys[i] for i in idx])
        norms = [sum(map(mul, k, k)) for k in orbit]
        short = norms.count(min(norms))
        if short == len(orbit):
            letter = "A" if short == n * (n + 1) else "D" if short == 2 * n * (n - 1) else "E"
        else:
            letter = "G" if len(orbit) == 12 else "F" if len(orbit) == 48 else "B" if short == 2 * n else "C"
        typed.append(((letter, n), orbit))
    return sorted(typed, key=lambda t: (-t[0][1], t[0][0]))


def _classify_components(simples: list[Vector]) -> list[tuple[str, int]]:
    """Types of the components of the system with these simple roots (see _typed_orbits)."""
    scale = _common_denominator(simples)
    return [name for name, _ in _typed_orbits([_int_key(a, scale) for a in simples])]


def _checked_components(roots) -> list[tuple[str, int]]:
    """Types of the components of the root system roots; ValueError("not a root system") if it is not one.

    Every root is W-conjugate to a simple root, so roots must be the union
    of the orbits of its base, keyed at the common denominator of all roots.
    No roots raise ValueError("empty root set").
    """
    if not roots:
        raise ValueError("empty root set")
    scale = _common_denominator(roots)
    typed = _typed_orbits([_int_key(a, scale) for a in base(_lex_positive(roots))])
    if set().union(*(orbit for _, orbit in typed)) != {_int_key(a, scale) for a in roots}:
        raise ValueError("not a root system")
    return [name for name, _ in typed]


def classify(rs: RootSystem) -> str:
    """Type name such as "A2" or "B2×A1", named from the root orbit of each component of a base.

    Raises ValueError "empty root set", "not a root system", or
    "unrecognized" for a base of no finite type.
    """
    return "×".join(f"{letter}{rank}" for letter, rank in _checked_components(rs.roots))


# -- characterization ----------------------------------------------------------------


class FiniteVerdict(NamedTuple):
    on_sphere: bool
    fit: SphereFit | None
    axioms: AxiomReport
    multiplicities_ok: bool
    support_disjoint: bool
    recovered: RootSystem | None
    type_name: str | None


def characterize_finite(m: SupportMap) -> FiniteVerdict:
    """Decide sphere support geometrically and axiomatically; the routes must agree.

    Geometric route: test one distance on half the support of
    F = prod (1-e^s)^m(s).  Axiomatic route: S and -S disjoint, all
    multiplicities 1, and S union -S passes the root-system axioms relative
    to its span.  Disagreement raises VerdictMismatchError.  A negative
    multiplicity (only a SignedSupportMap has one) raises ValueError before
    any expansion.

    The support is symmetric about rho_m = 1/2 sum m(s)*s: the coefficient
    at 2*rho_m - x is (-1)^(sum m) times the one at x, as
    1 - e^-s = -e^-s (1 - e^s).  So the hull circumcenter, the center of any
    sphere through the support, is rho_m.  S is keyed once, on integers at
    its common denominator, and each key k flips to the lexicographically
    greater of k and -k by (1-e^s)^j = (-1)^j e^(js) (1-e^-s)^j (s and -s
    sum into one factor): that translates the support.  The lexicographic
    functional g of the flipped keys (exact._lex_functional, the closed form
    of generic_separator at 0) is positive on each of them, which is checked
    exactly, so every factor of the flipped product F' has positive grade;
    F' has 0 in its support and its center rho' at grade g(rho').  Its terms
    of grade at most g(rho'), which group_ring._times_binomials builds from
    the integer keys, meet every pair x, 2*rho' - x; the point reflection
    keeps the sphere about rho', so F is on a sphere exactly when that half
    is on the sphere about rho'.  The witness is centered at rho_m, with the
    same radius.  S and -S are disjoint exactly when no two keys flip
    together.  A one-point support, rho_m itself (0 for an empty S), keeps
    fit_sphere's witness, one unit along e_1 at radius 1 (none in dimension
    0): the library refuses radius 0.

    The flipped keys are the half of S union -S that check_axioms takes, so
    the axioms are one pass over them and their negatives (_axiom_report);
    RootSystem(S union -S) is built only for an accepted verdict, as
    recovered.
    """
    from .group_ring import _times_binomials
    from .quadric import SphereFit, _fit_sphere_keys, _sphere_about

    if any(c < 0 for c in m.entries.values()):
        raise ValueError("finite check needs nonnegative multiplicities")
    flipped: dict = {}
    if m.entries:
        scale = _common_denominator(m.entries)
        keys = {_int_key(v, scale): j for v, j in m.entries.items()}
        for k, j in keys.items():
            k = max(k, tuple(-x for x in k))
            flipped[k] = flipped.get(k, 0) + j
        factors = sorted(flipped.items())
        grading = _lex_functional([k for k, _ in factors])
        grades = [sum(map(mul, k, grading)) for k, _ in factors]
        if any(g <= 0 for g in grades):
            raise ArithmeticError("a flipped factor with nonpositive grade")
        two_rho = [sum(j * k[i] for k, j in factors) for i in range(m.dim)]
        half = _times_binomials(factors, grades, sum(map(mul, two_rho, grading)) // 2, m.dim)
        fit = _sphere_about(list(half), scale, 2, two_rho)
        if fit is not None:
            center = tuple(Q(sum(j * k[i] for k, j in keys.items()), 2 * scale) for i in range(m.dim))
            fit = SphereFit(center, fit.radius_sq)
    else:
        fit = _fit_sphere_keys([(0,) * m.dim], 1)
    on_sphere = fit is not None

    disjoint = len(flipped) == len(m.entries)
    mults_ok = all(c == 1 for c in m.entries.values())
    axioms = _axiom_report(flipped, {*flipped, *(tuple(-x for x in k) for k in flipped)})
    axiomatic = disjoint and mults_ok and axioms.all_pass()

    if axiomatic != on_sphere:
        raise VerdictMismatchError(
            f"sphere verdict {on_sphere} disagrees with axiomatic verdict {axiomatic}"
        )

    recovered = RootSystem(m.dim, (*m.entries, *map(vneg, m.entries))) if axiomatic else None
    type_name = classify(recovered) if axiomatic and recovered.roots else None
    return FiniteVerdict(
        on_sphere=on_sphere,
        fit=fit,
        axioms=axioms,
        multiplicities_ok=mults_ok,
        support_disjoint=disjoint,
        recovered=recovered,
        type_name=type_name,
    )


# -- serialization ----------------------------------------------------------------


def root_system_to_json(rs: RootSystem) -> dict:
    return {"dim": rs.dim, "roots": [[str(c) for c in r] for r in rs.roots]}


def root_system_from_json(d: dict) -> RootSystem:
    dim = json_field(d, "dim", coerce=integer)
    roots = json_items(d, "roots")
    return RootSystem(dim, tuple(json_field(roots, where, coerce=vector) for where in roots))


def axiom_report_to_json(rep: AxiomReport) -> dict:
    return rep._asdict()


def finite_verdict_to_json(v: FiniteVerdict) -> dict:
    from .quadric import sphere_fit_to_json

    return {
        "on_sphere": v.on_sphere,
        "fit": sphere_fit_to_json(v.fit),
        "axioms": axiom_report_to_json(v.axioms),
        "multiplicities_ok": v.multiplicities_ok,
        "support_disjoint": v.support_disjoint,
        "recovered": root_system_to_json(v.recovered) if v.recovered else None,
        "type": v.type_name,
    }
