"""Exact rational vectors, integer keys, linear solving, and generic separating functionals."""

from __future__ import annotations

from fractions import Fraction
from itertools import count, product
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

Q = Fraction
Vector = tuple[Fraction, ...]


def rational(x) -> Fraction:
    """Coerce ints, strings like "3/5" or "-2", and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point is not allowed; use Fraction or str")
    return Fraction(x)


def integer(x) -> int:
    """Coerce ints, integer strings like "-2", and integral Fractions to int.

    bool and float raise TypeError, and any other value that is not an
    integer raises ValueError: int() would truncate it.
    """
    if type(x) is int:
        return x
    if isinstance(x, bool):
        raise TypeError("a boolean is not an integer")
    q = rational(x)
    if q.denominator != 1:
        raise ValueError(f"not an integer: {x!r}")
    return q.numerator


def json_field(d, name: str, where: str = "input"):
    """Field name of the JSON object d, which sits at place where (such as "support[0]").

    ValueError reads "<where>: expected an object" when d is not an object,
    and '<where>: missing field "<name>"' when it has no such field.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{where}: expected an object")
    if name not in d:
        raise ValueError(f'{where}: missing field "{name}"')
    return d[name]


def vector(coords: Iterable) -> Vector:
    return tuple(rational(c) for c in coords)


def zero_vector(dim: int) -> Vector:
    return (Q(0),) * dim


def is_zero(v: Vector) -> bool:
    return all(c == 0 for c in v)


def vadd(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return tuple(a - b for a, b in zip(u, v))


def vneg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def vscale(t, v: Vector) -> Vector:
    t = rational(t)
    return tuple(t * a for a in v)


def inner(u: Vector, v: Vector) -> Fraction:
    """Standard inner product; exact."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum((a * b for a, b in zip(u, v)), Q(0))


def norm_sq(v: Vector) -> Fraction:
    return inner(v, v)


# -- integer keys: coordinates times a common denominator, for exact hot loops ------


def _common_denominator(vectors: Iterable[Vector]) -> int:
    d = 1
    for v in vectors:
        for c in v:
            d = lcm(d, c.denominator)
    return d


def _int_key(v: Vector, scale: int) -> tuple[int, ...]:
    return tuple(int(c * scale) for c in v)


class _Value:
    """Base of the value classes: equality, hash and repr over the fields named in _fields.

    Two instances are equal when they are of one exact class and their
    fields are equal in order; == against any other class returns
    NotImplemented.  hash is the hash of the tuple of fields, so a class
    whose fields hold a dict sets __hash__ = None.  repr is
    Name(f1=v1!r, f2=v2!r, ...).  A subclass states its fields once, as
    __slots__ = _fields = (...); slots outside _fields, such as caches,
    take no part.  Values are not to be mutated.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class AffineVector(_Value):
    """A vector of the extended space: a level (first coordinate) plus a spatial part."""

    __slots__ = _fields = ("level", "part")

    def __init__(self, level: Fraction, part: Vector):
        self.level, self.part = level, part

    def flatten(self) -> Vector:
        return (self.level,) + self.part

    @property
    def dim(self) -> int:
        return len(self.part)


def affine(level, part: Iterable) -> AffineVector:
    return AffineVector(rational(level), vector(part))


def unflatten(v: Vector) -> AffineVector:
    if not v:
        raise ValueError("empty vector cannot be split into level and part")
    return AffineVector(v[0], v[1:])


class LinearSolution(NamedTuple):
    """Outcome of an exact linear solve.

    kind is "unique", "affine-family", or "inconsistent".  For consistent
    systems, particular has every free variable set to 0 and kernel_basis
    holds one vector per free column.
    """

    kind: str
    particular: Vector | None
    kernel_basis: tuple[Vector, ...]


def solve_linear(rows: Sequence[Iterable], rhs: Sequence, ncols: int | None = None) -> LinearSolution:
    """Solve rows . x = rhs exactly by Gauss-Jordan elimination.

    Pivots are chosen in column order, scanning rows top-down, so the result
    is deterministic for a given input ordering.
    """
    mat = [vector(r) for r in rows]
    b = [rational(x) for x in rhs]
    if len(mat) != len(b):
        raise ValueError("row/rhs length mismatch")
    if mat:
        n = len(mat[0])
        if any(len(r) != n for r in mat):
            raise ValueError("dimension mismatch")
        if ncols is not None and ncols != n:
            raise ValueError("ncols disagrees with row width")
    elif ncols is not None:
        n = ncols
    else:
        raise ValueError("empty system needs an explicit column count")

    aug = [list(r) + [b[i]] for i, r in enumerate(mat)]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][n] != 0:
            return LinearSolution("inconsistent", None, ())

    free = [c for c in range(n) if c not in set(pivots)]
    part = [Q(0)] * n
    for i, c in enumerate(pivots):
        part[c] = aug[i][n]
    kernel = []
    for fc in free:
        k = [Q(0)] * n
        k[fc] = Q(1)
        for i, c in enumerate(pivots):
            k[c] = -aug[i][fc]
        kernel.append(tuple(k))
    kind = "unique" if not free else "affine-family"
    return LinearSolution(kind, tuple(part), tuple(kernel))


def span_rank(vectors: Sequence[Iterable]) -> tuple[int, list[int]]:
    """Rank of the span plus the indices of a greedy basis, in input order.

    Row i is picked when it is independent of the rows picked before it, so
    the answer depends on the input alone.  The elimination is fraction-free
    (cf. Bareiss 1968): each row is scaled to integers by its own denominator
    lcm, which keeps its direction; a row is reduced by the basis as
    w <- b[p]*w - w[p]*b, which clears w at the pivot p of b and keeps the
    zeros at earlier pivots; a new basis row is divided by its gcd.  Once
    the rank is the row width, every later row is dependent.
    """
    basis: list[tuple[list[int], int]] = []
    picked: list[int] = []
    for i, raw in enumerate(vectors):
        row = [c if isinstance(c, int) else rational(c) for c in raw]
        d = lcm(*(c.denominator for c in row))
        w = [c.numerator * (d // c.denominator) for c in row]
        for bv, pc in basis:
            f = w[pc]
            if f:
                g = bv[pc]
                w = [g * x - f * y for x, y in zip(w, bv)]
        pivot = next((j for j, x in enumerate(w) if x), None)
        if pivot is not None:
            g = gcd(*w)
            basis.append(([x // g for x in w], pivot))
            picked.append(i)
            if len(picked) == len(w):
                break
    return len(picked), picked


_BOX_CAP = 20000


def _int_candidates(k: int):
    """Nonzero integer k-tuples from growing boxes, a fixed deterministic stream.

    Each box of radius B contributes a geometric probe (1, B, B^2, ...) first
    (it separates any fixed finite set once B is large enough, so termination
    never depends on walking a huge box), then the full box when it is small
    enough to enumerate, with per-coordinate order 0, 1, -1, 2, -2, ...
    """
    for bound in count(1):
        yield tuple(bound**j for j in range(k))
        seq = [0]
        for m in range(1, bound + 1):
            seq.extend((m, -m))
        if len(seq) ** k <= _BOX_CAP:
            for coeffs in product(seq, repeat=k):
                if max(abs(c) for c in coeffs) == bound:
                    yield coeffs


def generic_separator(S: Sequence[Iterable], p: Iterable) -> Vector:
    """First deterministic n with {s in S : <s,n> = 0} = (line through p) intersect S.

    Candidates are integer combinations of a basis of the orthogonal
    complement of p (the whole space when p = 0), enumerated over growing
    boxes; each candidate is verified exactly before being returned.
    """
    pts = [vector(s) for s in S]
    if not pts:
        raise ValueError("empty set has no separator")
    n = len(pts[0])
    pv = vector(p)
    if len(pv) != n:
        raise ValueError("dimension mismatch")

    if is_zero(pv):
        dirs: list[Vector] = [tuple(Q(1) if j == i else Q(0) for j in range(n)) for i in range(n)]
    else:
        dirs = list(solve_linear([pv], [0]).kernel_basis)

    def on_line(s: Vector) -> bool:
        if is_zero(pv):
            return is_zero(s)
        # s = t*p exactly, for the t suggested by the first nonzero coordinate
        j = next(i for i, c in enumerate(pv) if c != 0)
        t = s[j] / pv[j]
        return s == vscale(t, pv)

    targets = [s for s in pts if on_line(s)]
    others = [s for s in pts if not on_line(s)]
    if not dirs:
        # p spans V (dimension 1): every point is on the line, nothing to separate
        return (Q(1),) * n

    for coeffs in _int_candidates(len(dirs)):
        cand = zero_vector(n)
        for c, d in zip(coeffs, dirs):
            if c:
                cand = vadd(cand, vscale(c, d))
        if all(inner(s, cand) == 0 for s in targets) and all(inner(s, cand) != 0 for s in others):
            return cand
    raise RuntimeError("unreachable")
