"""Exact rational vectors, integer keys, one fraction-free elimination, and separating functionals."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

Q = Fraction
Vector = tuple[Fraction, ...]


# raised by finite_root and affine_root; defined here so that cli.main can catch them
# without loading either
class GroupTooLargeError(RuntimeError):
    pass


class VerdictMismatchError(RuntimeError):
    """The geometric and axiomatic routes disagreed; this is a fatal internal error."""


def rational(x) -> Fraction:
    """Coerce ints, strings like "3/5" or "-2", and Fractions to Fraction.

    bool and float raise TypeError: a JSON true is not the number 1.  A zero
    denominator, as in "1/0", raises ValueError, the error of any other
    string that names no rational.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("a boolean is not a number")
    if isinstance(x, float):
        raise TypeError("floating point is not allowed; use Fraction or str")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {x!r}") from None


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


def json_field(d, name: str, where: str = "input", coerce=None):
    """Field name of the JSON object d, which sits at place where (such as "support[0]"), read through coerce.

    ValueError reads "<where>: expected an object" when d is not an object,
    and '<where>: missing field "<name>"' when it has no such field.  A
    TypeError or ValueError of coerce(value) is raised again, of its type,
    with the place prefixed: the field's name for a field of the input
    itself ("dim: ..."), where for a field of an entry ("support[0]: ...").
    """
    if not isinstance(d, dict):
        raise ValueError(f"{where}: expected an object")
    if name not in d:
        raise ValueError(f'{where}: missing field "{name}"')
    if coerce is None:
        return d[name]
    try:
        return coerce(d[name])
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{name if where == 'input' else where}: {exc}") from None


def json_items(d, name: str) -> dict[str, object]:
    """The entries of the list field name of the JSON input d, keyed by their place, like "support[0]".

    So json_field(entries, place, coerce=...) reads one entry and names its
    place in an error.  Besides json_field's errors for the input, ValueError
    reads 'input: field "<name>" must be a list' when the field is not a list.
    """
    items = json_field(d, name)
    if not isinstance(items, list):
        raise ValueError(f'input: field "{name}" must be a list')
    return {f"{name}[{i}]": item for i, item in enumerate(items)}


def vector(coords: Iterable) -> Vector:
    """The coordinates as a tuple of Fractions; a string, though iterable, raises TypeError."""
    if isinstance(coords, str):
        raise TypeError(f"expected a list of coordinates, not the string {coords!r}")
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
    """v times scale, which must be a multiple of every denominator of v, as _common_denominator's is."""
    return tuple(c.numerator * (scale // c.denominator) for c in v)


def _grade_bound(cutoff, scale: int) -> tuple[int, int]:
    """(num, den), num/den = cutoff * scale^2: grade(v) <= cutoff exactly when <v_int, g_int> * den <= num.

    v_int and g_int are v and the grading times scale.  The test stays exact
    when v_int is off the integers, as the image of a reflection whose
    coefficient is not an integer is; for integer keys it reads
    <v_int, g_int> <= num // den.
    """
    return (cutoff * scale * scale).as_integer_ratio()


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
    """Solve rows . x = rhs exactly.

    The augmented rows [row | rhs] go through _echelon; a pivot in the rhs
    column means the system is inconsistent.  Otherwise the pivot variables
    are found by back-substitution in reverse pick order, since each basis
    row is zero at the pivots of the rows picked before it.  The particular
    solution and the kernel vectors are the unique ones with the free
    variables at 0 (a kernel vector has 1 at its own free column), so the
    result depends on the solution set alone, not on the order of the rows.
    """
    mat = [[c if isinstance(c, int) else rational(c) for c in r] for r in rows]
    b = [c if isinstance(c, int) else rational(c) for c in rhs]
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

    basis, _ = _echelon(r + [c] for r, c in zip(mat, b))
    pivots = {p for _, p in basis}
    if n in pivots:
        return LinearSolution("inconsistent", None, ())

    def back_substituted(x: list, t: int) -> Vector:
        # x holds the free variables and 0 elsewhere; t weighs the rhs column
        for bv, p in reversed(basis):
            x[p] = Q(t * bv[n] - sum(map(mul, bv, x)), bv[p])
        return tuple(x)

    free = [c for c in range(n) if c not in pivots]
    part = back_substituted([Q(0)] * n, 1)
    kernel = tuple(back_substituted([Q(int(c == fc)) for c in range(n)], 0) for fc in free)
    return LinearSolution("affine-family" if free else "unique", part, kernel)


def _echelon(rows: Iterable[list]) -> tuple[list[tuple[list[int], int]], list[int]]:
    """Greedy fraction-free echelon basis of rows of ints and Fractions, with its pivots and picks.

    Row i is picked when it is independent of the rows picked before it, so
    the answer depends on the input alone.  The elimination is fraction-free
    (cf. Bareiss 1968): each row is scaled to integers by its own denominator
    lcm, which keeps its direction; a row is reduced by each basis row b with
    pivot p (b's first nonzero column) as w <- b[p]*w - w[p]*b, which clears
    w at p and keeps the zeros at earlier pivots, so each basis row is zero
    at the pivots of the rows picked before it; a new basis row is divided
    by its gcd.  Once the rank is the row width, every later row is
    dependent and is not read.
    """
    basis: list[tuple[list[int], int]] = []
    picked: list[int] = []
    for i, row in enumerate(rows):
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
    return basis, picked


def span_rank(vectors: Sequence[Iterable]) -> tuple[int, list[int]]:
    """Rank of the span plus the indices of a greedy basis, in input order (see _echelon)."""
    _, picked = _echelon([c if isinstance(c, int) else rational(c) for c in raw] for raw in vectors)
    return len(picked), picked


def _lex_functional(rows) -> list[int]:
    """Weights (M^(k-1), ..., M, 1), M = 2*max|x| + 1, for nonempty integer rows of length k.

    The dot product of a row with them takes the sign of the row's first
    nonzero entry, whose term outweighs all later ones together.
    """
    m = 2 * max(abs(x) for row in rows for x in row) + 1
    return [m**j for j in reversed(range(len(rows[0])))]


def generic_separator(S: Sequence[Iterable], p: Iterable) -> Vector:
    """A functional n with {s in S : <s,n> = 0} = (line through p) intersect S, in closed form.

    With d_0, ..., d_(k-1) the kernel basis of <p, x> = 0 (the unit vectors
    when p = 0), s is on the line exactly when every <s, d_j> is 0.  With
    those values scaled to integers a_j (by the common denominators of S and
    of the d_j), n = sum_j w_j*d_j with the weights w of _lex_functional
    gives <s, n> the sign of the first nonzero a_j.  n is checked exactly on
    every point before it is returned.
    """
    pts = [vector(s) for s in S]
    if not pts:
        raise ValueError("empty set has no separator")
    dim = len(pts[0])
    pv = vector(p)
    if len(pv) != dim or any(len(s) != dim for s in pts):
        raise ValueError("dimension mismatch")
    dirs = list(solve_linear([pv], [0]).kernel_basis)
    if not dirs:
        # p spans V (dimension 0 or 1): every point is on the line, nothing to separate
        return (Q(1),) * dim

    ds, dd = _common_denominator(pts), _common_denominator(dirs)
    keys, dkeys = [_int_key(s, ds) for s in pts], [_int_key(d, dd) for d in dirs]
    a = [[sum(map(mul, s, d)) for d in dkeys] for s in keys]
    w = _lex_functional(a)
    sep = [sum(map(mul, w, col)) for col in zip(*dkeys)]
    for s, row in zip(keys, a):
        if (sum(map(mul, s, sep)) == 0) != (not any(row)):
            raise ArithmeticError("separator failed exact verification")
    return tuple(Q(x, dd) for x in sep)
