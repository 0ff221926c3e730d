"""Integer group ring of a rational vector lattice, with exact product expansion."""

from __future__ import annotations

import sys
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Iterable

from .exact import (
    Vector,
    _common_denominator,
    _grade_bound,
    _Value,
    _int_key,
    integer,
    json_field,
    json_items,
    rational,
    vector,
    vneg,
    zero_vector,
)

# Resource limits: quotient terms of an exact division, and accumulator terms
# of a product expansion (E6's peak is ~170 k terms, E7's result 2 903 040).
MAX_DIVISION_STEPS = 200000
MAX_EXPANSION_TERMS = 1000000


class NotDivisibleError(ArithmeticError):
    pass


class DivisionTooLargeError(ArithmeticError):
    """Exact division reached MAX_DIVISION_STEPS quotient terms without a verdict."""


class ExpansionTooLargeError(ArithmeticError):
    """A product expansion passed MAX_EXPANSION_TERMS accumulator terms."""


class GroupRingElement(_Value):
    """Finite integer combination of formal exponentials e^v, keyed by lattice vector.

    The one state is (scale, ints): integer key k stands for the vector
    k/scale, scale being the lcm of the denominators of the coordinates
    present (1 for the zero element), so the pair is canonical and equality
    compares it.  The public constructor takes terms as a dict or as
    (vector, coefficient) pairs, coerces the keys, checks their length, sums
    the coefficients of keys that coerce to one vector and drops zeros; a
    kernel builds the pair directly.  .terms, the dict keyed by Fraction
    tuples, is a view built on each read, and repr shows it.
    """

    __slots__ = _fields = ("dim", "_scale", "_ints")
    __hash__ = None

    def __init__(self, dim: int, terms: dict | Iterable | None = None):
        clean = _summed(dim, terms or {})
        self.dim, self._scale = dim, _common_denominator(clean)
        self._ints = {_int_key(v, self._scale): c for v, c in clean.items()}

    @classmethod
    def _from_ints(cls, dim: int, scale: int, ints: dict) -> "GroupRingElement":
        """Element of integer keys k/scale (tuples of length dim, no zero coefficient)."""
        g = scale
        for k in ints:
            if g == 1:
                break
            g = gcd(g, *k)
        if g > 1:
            scale //= g
            ints = {tuple(x // g for x in k): c for k, c in ints.items()}
        x = object.__new__(cls)
        x.dim, x._scale, x._ints = dim, scale, ints
        return x

    def _fractions(self) -> dict:
        """Each integer coordinate present, mapped to its Fraction."""
        s = self._scale
        return {x: Fraction(x, s) for x in {x for k in self._ints for x in k}}

    @property
    def terms(self) -> dict:
        get = self._fractions().__getitem__
        return {tuple(map(get, k)): c for k, c in self._ints.items()}

    def __len__(self) -> int:
        return len(self._ints)

    def __repr__(self) -> str:
        return f"GroupRingElement(dim={self.dim}, terms={self.terms!r})"

    def support(self) -> list[Vector]:
        get = self._fractions().__getitem__
        return [tuple(map(get, k)) for k in sorted(self._ints)]

    def coefficient(self, v) -> int:
        v = vector(v)
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        k = [c * self._scale for c in v]
        if any(c.denominator != 1 for c in k):
            return 0
        return self._ints.get(tuple(map(int, k)), 0)

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        scale, (ia, ib) = _common_ints(self, other)
        out = dict(ia)
        for k, c in ib.items():
            out[k] = out.get(k, 0) + c
        return GroupRingElement._from_ints(self.dim, scale, {k: c for k, c in out.items() if c})

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement._from_ints(self.dim, self._scale, {k: -c for k, c in self._ints.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        return mul(self, other)


def _summed(dim: int, pairs) -> dict:
    """Coefficients of the (vector, int) pairs, or of a dict's items, keyed by coerced vector of length dim.

    Pairs whose vectors coerce to one key are summed, then zeros dropped.
    """
    if dim < 0:
        raise ValueError("dim must be >= 0")
    out: dict = {}
    for v, c in pairs.items() if isinstance(pairs, dict) else pairs:
        v = vector(v)
        if len(v) != dim:
            raise ValueError("dimension mismatch")
        out[v] = out.get(v, 0) + integer(c)
    return {v: c for v, c in out.items() if c}


def one(dim: int) -> GroupRingElement:
    return GroupRingElement(dim, {zero_vector(dim): 1})


def monomial(dim: int, v, c: int = 1) -> GroupRingElement:
    return GroupRingElement(dim, {vector(v): c})


def mul(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    scale, (ia, ib) = _common_ints(a, b)
    if not ia or not ib:
        return GroupRingElement._from_ints(a.dim, 1, {})
    (alo, ahi), (blo, bhi) = _box(ia), _box(ib)
    pack, unpack, _ = _packing(map(sum, zip(alo, blo)), map(sum, zip(ahi, bhi)))
    out: dict = {}
    get = out.get
    pb = [(pack(k), c) for k, c in ib.items()]
    for ka, ca in ia.items():
        ka = pack(ka)
        for kb, cb in pb:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return GroupRingElement._from_ints(a.dim, scale, {unpack(k): c for k, c in out.items() if c})


def support(x: GroupRingElement) -> list[Vector]:
    return x.support()


class SupportMap(_Value):
    """Finite multiplicity function m with m(0) = 0 and positive values.

    The constructor takes entries as a dict or as (vector, multiplicity)
    pairs, sums the multiplicities of keys that coerce to one vector and
    drops zeros.
    """

    __slots__ = _fields = ("dim", "entries")
    __hash__ = None

    _signed = False

    def __init__(self, dim: int, entries: dict | Iterable | None = None):
        clean = _summed(dim, entries or {})
        for v, m in clean.items():
            if all(c == 0 for c in v):
                raise ValueError("m(0) must be 0")
            if m < 0 and not self._signed:
                raise ValueError("multiplicities must be positive")
        self.dim, self.entries = dim, clean

    def items(self) -> list[tuple[Vector, int]]:
        """The (vector, multiplicity) pairs as a list sorted by vector."""
        return sorted(self.entries.items())


class SignedSupportMap(SupportMap):
    """Support map allowing negative multiplicities (still none at 0)."""

    __slots__ = ()

    _signed = True


def shift_equivalent(m: SupportMap, b) -> SupportMap:
    """Move one unit of multiplicity from b to -b (the sign-flip move).

    A multiplicity that reaches 0 leaves the result, since the constructor
    of m's type drops zeros.
    """
    b = vector(b)
    entries = dict(m.entries)
    if entries.get(b, 0) <= 0:
        raise ValueError("b must be a key of m with positive multiplicity")
    nb = vneg(b)
    entries[b] -= 1
    entries[nb] = entries.get(nb, 0) + 1
    return type(m)(m.dim, entries)


# -- packed integer-key kernels ---------------------------------------------------


def _common_ints(*xs: GroupRingElement) -> tuple[int, list[dict]]:
    """The integer dicts of the elements, rescaled to one common scale."""
    views = [(x._scale, x._ints) for x in xs]
    scale = lcm(*(s for s, _ in views))
    return scale, [
        ints if s == scale else {tuple(x * (scale // s) for x in k): c for k, c in ints.items()}
        for s, ints in views
    ]


def _box(keys) -> tuple[list[int], list[int]]:
    """Per-coordinate minima and maxima of nonempty integer keys."""
    cols = list(zip(*keys))
    return [min(c) for c in cols], [max(c) for c in cols]


def _packing(lo, hi):
    """Kronecker substitution for integer keys k with lo <= k <= hi coordinatewise.

    k becomes the int sum_j k_j * B^(n-1-j), B = 2^s, with balanced digits
    |k_j| < B/2.  The map is linear, so adding keys adds ints, and on the
    box it is injective and keeps lexicographic order.  Returns (pack,
    unpack, w): unpack reads the n digits below bit w = s*n, so a grade
    added as g * 2^w rides above them as a leading digit.
    """
    lo, hi = list(lo), list(hi)
    n = len(lo)
    s = max(map(abs, lo + hi), default=0).bit_length() + 1
    half, mask = 1 << (s - 1), (1 << s) - 1
    shifts = [s * (n - 1 - j) for j in range(n)]
    off = sum(half << sh for sh in shifts)

    def pack(k) -> int:
        return sum(x << sh for x, sh in zip(k, shifts))

    def unpack(x: int) -> tuple[int, ...]:
        y = x + off
        return tuple(((y >> sh) & mask) - half for sh in shifts)

    return pack, unpack, s * n


def _times_binomials(keys, grades, top: int, dim: int) -> dict:
    """Product of (1 - e^k)^mult over integer keys (k, mult) of length dim, keeping the terms of grade <= top.

    Each factor's integer grade is given in grades, and a term's grade is
    the sum of its factors' grades.  Keys are packed (_packing) over the box
    of every partial product, coordinate j between sum mult*min(0, k_j) and
    sum mult*max(0, k_j), and the grade rides on the packed key as a leading
    digit, so packed keys of higher grade are greater.  The factors are
    multiplied into one accumulator in order.  A factor's terms e^{jk} carry
    c_j = (-1)^j * C(mult, j), built by the recurrence
    c_j = -c_(j-1) * (mult - j + 1) / j only while their packed key is below
    the cap, the least packed key of grade top + 1, so a term above grade
    top is never built.  With positive grades the terms rise with j and the
    inner loop stops at the first key at or above the cap; every key of the
    accumulator is then >= 0, so that loop would not have read the terms
    left out.  With every grade 0 and top 0, as in expand_product, every
    term is kept.  ExpansionTooLargeError is raised once the accumulator
    passes MAX_EXPANSION_TERMS.  Returns the unpacked keys' coefficients.
    """
    lo = [sum(mult * min(0, k[j]) for k, mult in keys) for j in range(dim)]
    hi = [sum(mult * max(0, k[j]) for k, mult in keys) for j in range(dim)]
    pack, unpack, w = _packing(lo, hi)
    # a key carries grade g exactly when g * 2^w - 2^w/2 < key < g * 2^w + 2^w/2; in dimension 0, w = 0 and key = g
    cap = ((top + 1) << w) - ((1 << w) >> 1)
    acc = {0: 1}
    for (k, mult), g in zip(keys, grades):
        p = (g << w) + pack(k)
        out = dict(acc)
        get = out.get
        fac, c = [], 1
        for j in range(1, mult + 1):
            if j * p >= cap:
                break
            c = -c * (mult - j + 1) // j
            fac.append((j * p, c))
        for ka, ca in acc.items():
            for kb, cb in fac:
                k = ka + kb
                if k >= cap:
                    break
                c = get(k, 0) + ca * cb
                if c:
                    out[k] = c
                else:
                    del out[k]
        if len(out) > MAX_EXPANSION_TERMS:
            raise ExpansionTooLargeError("expansion too large")
        acc = out
    return {unpack(k): c for k, c in acc.items() if k < cap}


def expand_product(m: SupportMap) -> GroupRingElement:
    """Exact expansion of prod_s (1 - e^s)^m(s), factor by factor.

    The binomial factors of the positive multiplicities, on integer keys and
    in lexicographic order of their support vectors, go to _times_binomials
    with every grade 0 and top 0, which keeps every term.  With no positive
    multiplicity the product is one(dim).  A negative multiplicity (only a
    SignedSupportMap has one) divides its factor out exactly, once per unit,
    from the product of the positive factors; NotDivisibleError is raised
    when the quotient is not a Laurent polynomial.
    """
    entries = [(v, mult) for v, mult in m.items() if mult > 0]
    scale = _common_denominator(v for v, _ in entries)
    keys = [(_int_key(v, scale), mult) for v, mult in entries]
    out = GroupRingElement._from_ints(m.dim, scale, _times_binomials(keys, [0] * len(keys), 0, m.dim))
    for v, mult in m.items():
        for _ in range(-mult):
            out = exact_divide(out, one(m.dim) - monomial(m.dim, v))
    return out


def truncated_product(factors: Iterable[tuple], grading, cutoff) -> GroupRingElement:
    """Product of (1 - e^s)^mult keeping only terms of grade <= cutoff.

    Every factor must have strictly positive grade, so a term of grade
    above the cutoff has no descendant below it.  Factors and grading are
    keyed at one scale, the lcm of their denominators, which is 1 when they
    are integers; _times_binomials multiplies the factors in order with
    their integer grades <v_int, g_int> and top (cutoff * scale^2) rounded
    down.
    """
    nhat = vector(grading)
    cutoff = rational(cutoff)
    fac = [(vector(v), integer(mult)) for v, mult in factors]
    dim = len(nhat)
    for v, mult in fac:
        if len(v) != dim:
            raise ValueError("dimension mismatch")
        if mult <= 0:
            raise ValueError("multiplicities must be positive")

    scale = _common_denominator([v for v, _ in fac] + [nhat])
    gint = _int_key(nhat, scale)
    keys = [(_int_key(v, scale), mult) for v, mult in fac]
    grades = [sum(map(int.__mul__, k, gint)) for k, _ in keys]
    if any(g <= 0 for g in grades):
        raise ValueError("a factor with nonpositive grade")
    num, den = _grade_bound(cutoff, scale)
    return GroupRingElement._from_ints(dim, scale, _times_binomials(keys, grades, num // den, dim))


def exact_divide(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Exact quotient a / b in the group ring; raises NotDivisibleError otherwise.

    Long division on integer keys from the lexicographically least term up;
    that order is total and translation-invariant, so least terms multiply.
    If a = q*b, the coordinate-extreme terms of q*b cannot cancel (Newton
    polytopes add; Ostrowski 1921), so every term t of q has
    min_j(a) - min_j(b) <= t_j <= max_j(a) - max_j(b) on every coordinate j.
    A quotient term outside that window proves non-divisibility; the terms
    strictly increase inside its finite box, so the loop ends by itself.
    DivisionTooLargeError is a resource limit: MAX_DIVISION_STEPS terms.

    Keys are packed: the base covers a's box, which holds every remainder
    term, and every candidate t = lt(r) - lt(b) before the window test.
    Packed order is lexicographic order, so the heap pops the same terms.
    A zero dividend leaves the remainder empty, and the quotient is zero.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if not len(b):
        raise ZeroDivisionError("division by the zero element")

    scale, (ia, ib) = _common_ints(a, b)
    (alo, ahi), (blo, bhi) = _box(ia), _box(ib)
    lo = [x - y for x, y in zip(alo, blo)]
    hi = [x - y for x, y in zip(ahi, bhi)]
    pack, unpack, _ = _packing([min(x, x - y) for x, y in zip(alo, bhi)], [max(x, x - y) for x, y in zip(ahi, blo)])
    rem = {pack(k): c for k, c in ia.items()}
    den = [(pack(k), c) for k, c in ib.items()]
    k_b = min(ib)
    lt_b, lc_b = pack(k_b), ib[k_b]

    # a min-heap (a sorted list is one) of the remainder's keys; a key whose
    # term cancelled is skipped when it comes up
    heap = sorted(rem)
    quot: dict = {}
    while rem:
        lt_r = heappop(heap)
        if lt_r not in rem:
            continue
        if len(quot) == MAX_DIVISION_STEPS:
            raise DivisionTooLargeError("division step limit reached")
        c, r = divmod(rem[lt_r], lc_b)
        t = lt_r - lt_b
        if r or not all(l <= x <= h for l, x, h in zip(lo, unpack(t), hi)):
            raise NotDivisibleError("not divisible")
        quot[t] = c
        for kb, cb in den:
            k = t + kb
            nc = rem.get(k, 0) - c * cb
            if nc:
                if k not in rem:
                    heappush(heap, k)
                rem[k] = nc
            else:
                del rem[k]
    return GroupRingElement._from_ints(a.dim, scale, {unpack(t): c for t, c in quot.items()})


# -- serialization ----------------------------------------------------------------


def element_to_json(x: GroupRingElement) -> dict:
    ints = x._ints
    text = {k: str(q) for k, q in x._fractions().items()}
    return {
        "dim": x.dim,
        "terms": [_term_to_json([text[c] for c in k], ints[k]) for k in sorted(ints)],
    }


def _term_to_json(v: list[str], c: int) -> dict:
    """One term; a coefficient past the interpreter's digit limit for str(int) raises ExpansionTooLargeError."""
    try:
        return {"v": v, "c": str(c)}
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ExpansionTooLargeError(
            f"expansion too large to print: the coefficient at v = ({', '.join(v)}) has more than {limit} digits"
        ) from None


def element_from_json(d: dict) -> GroupRingElement:
    dim = json_field(d, "dim", coerce=integer)
    return GroupRingElement(dim, _json_pairs(d, "terms", "c"))


def support_map_to_json(m: SupportMap) -> dict:
    return {
        "dim": m.dim,
        "support": [{"v": [str(c) for c in v], "mult": mult} for v, mult in m.items()],
    }


def support_map_from_json(d: dict, signed: bool = False) -> SupportMap:
    dim = json_field(d, "dim", coerce=integer)
    return (SignedSupportMap if signed else SupportMap)(dim, _json_pairs(d, "support", "mult"))


def _json_pairs(d: dict, name: str, coeff: str):
    """(v, coefficient) of each object in the list d[name], the integer coefficient under key coeff."""
    for where, item in json_items(d, name).items():
        yield json_field(item, "v", where, vector), json_field(item, coeff, where, integer)
