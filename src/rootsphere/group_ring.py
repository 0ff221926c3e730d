"""Integer group ring of a rational vector lattice, with exact product expansion."""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import comb, floor
from operator import mul as _imul
from typing import Iterable

from .exact import Vector, _common_denominator, _frac_key, _int_key, rational, vector, vneg, zero_vector

# Resource limit of exact division: quotient terms produced before giving up.
MAX_DIVISION_STEPS = 200000


class NotDivisibleError(ArithmeticError):
    pass


class DivisionTooLargeError(ArithmeticError):
    """Exact division reached MAX_DIVISION_STEPS quotient terms without a verdict."""


@dataclass(frozen=True)
class GroupRingElement:
    """Finite integer combination of formal exponentials e^v, keyed by lattice vector."""

    dim: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for v, c in self.terms.items():
            c = int(c)
            if c == 0:
                continue
            v = vector(v)
            if len(v) != self.dim:
                raise ValueError("dimension mismatch")
            clean[v] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _unchecked(cls, dim: int, terms: dict) -> "GroupRingElement":
        """Element of terms already keyed by Fraction tuples of length dim, with no zero coefficient."""
        x = object.__new__(cls)
        object.__setattr__(x, "dim", dim)
        object.__setattr__(x, "terms", terms)
        return x

    def support(self) -> list[Vector]:
        return sorted(self.terms)

    def coefficient(self, v) -> int:
        return self.terms.get(vector(v), 0)

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for v, c in other.terms.items():
            out[v] = out.get(v, 0) + c
        return GroupRingElement(self.dim, out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.dim, {v: -c for v, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        return mul(self, other)


def one(dim: int) -> GroupRingElement:
    return GroupRingElement(dim, {zero_vector(dim): 1})


def monomial(dim: int, v, c: int = 1) -> GroupRingElement:
    return GroupRingElement(dim, {vector(v): c})


def mul(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    scale = _common_denominator([*a.terms, *b.terms])
    out = _mul_raw(_int_terms(a, scale), _int_terms(b, scale))
    return GroupRingElement._unchecked(a.dim, {_frac_key(k, scale): c for k, c in out.items()})


def support(x: GroupRingElement) -> list[Vector]:
    return x.support()


@dataclass(frozen=True)
class SupportMap:
    """Finite multiplicity function m with m(0) = 0 and positive values."""

    dim: int
    entries: dict = field(default_factory=dict)

    _signed = False

    def __post_init__(self):
        clean = {}
        for v, m in self.entries.items():
            v = vector(v)
            if len(v) != self.dim:
                raise ValueError("dimension mismatch")
            m = int(m)
            if all(c == 0 for c in v):
                raise ValueError("m(0) must be 0")
            if m == 0:
                continue
            if m < 0 and not self._signed:
                raise ValueError("multiplicities must be positive")
            clean[v] = m
        object.__setattr__(self, "entries", clean)

    def items(self) -> list[tuple[Vector, int]]:
        """The (vector, multiplicity) pairs as a list sorted by vector."""
        return sorted(self.entries.items())


@dataclass(frozen=True)
class SignedSupportMap(SupportMap):
    """Support map allowing negative multiplicities (still none at 0)."""

    _signed = True


def shift_equivalent(m: SupportMap, b) -> SupportMap:
    """Move one unit of multiplicity from b to -b (the sign-flip move)."""
    b = vector(b)
    entries = dict(m.entries)
    cur = entries.get(b, 0)
    if cur <= 0:
        raise ValueError("b must be a key of m with positive multiplicity")
    if cur == 1:
        del entries[b]
    else:
        entries[b] = cur - 1
    nb = vneg(b)
    nc = entries.get(nb, 0) + 1
    if nc == 0:
        del entries[nb]
    else:
        entries[nb] = nc
    return type(m)(m.dim, entries)


# -- internal integer-key kernels ------------------------------------------------


def _int_terms(x: GroupRingElement, scale: int) -> dict:
    return {_int_key(v, scale): c for v, c in x.terms.items()}


def _mul_raw(a: dict, b: dict) -> dict:
    if len(a) < len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    bi = list(b.items())
    for ka, ca in a.items():
        for kb, cb in bi:
            k = tuple(map(int.__add__, ka, kb))
            out[k] = get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _binomial_factor(key: tuple[int, ...], mult: int) -> dict:
    """Expansion of (1 - e^s)^mult over integer keys."""
    zero = (0,) * len(key)
    out = {zero: 1}
    for j in range(1, mult + 1):
        out[tuple(x * j for x in key)] = (-1) ** j * comb(mult, j)
    return out


def expand_product(m: SupportMap) -> GroupRingElement:
    """Exact expansion of prod_s (1 - e^s)^m(s), multiplied as a balanced tree.

    Factors are sorted lexicographically by support vector first, so the
    result and all intermediates are deterministic.  A negative multiplicity
    (only a SignedSupportMap has one) divides its factor out exactly, once
    per unit, from the product of the positive factors; NotDivisibleError is
    raised when the quotient is not a Laurent polynomial.
    """
    entries = [(v, mult) for v, mult in m.items() if mult > 0]
    if entries:
        scale = _common_denominator(v for v, _ in entries)
        layer = [_binomial_factor(_int_key(v, scale), mult) for v, mult in entries]
        while len(layer) > 1:
            nxt = [_mul_raw(layer[i], layer[i + 1]) for i in range(0, len(layer) - 1, 2)]
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        out = GroupRingElement._unchecked(m.dim, {_frac_key(k, scale): c for k, c in layer[0].items()})
    else:
        out = one(m.dim)
    for v, mult in m.items():
        for _ in range(-mult):
            out = exact_divide(out, one(m.dim) - monomial(m.dim, v))
    return out


def truncated_product(factors: Iterable[tuple], grading, cutoff) -> GroupRingElement:
    """Product of (1 - e^s)^mult keeping only terms of grade <= cutoff.

    Every factor must have strictly positive grade, so discarding a term of
    grade above the cutoff after each multiplication loses nothing below it.
    """
    nhat = vector(grading)
    cutoff = rational(cutoff)
    fac = [(vector(v), int(mult)) for v, mult in factors]
    dim = len(nhat)
    for v, mult in fac:
        if len(v) != dim:
            raise ValueError("dimension mismatch")
        if mult <= 0:
            raise ValueError("multiplicities must be positive")

    scale = _common_denominator([v for v, _ in fac] + [nhat])
    gint = _int_key(nhat, scale)
    # grade(v) <= cutoff  <=>  <v_int, g_int> <= cutoff * scale^2
    threshold = floor(cutoff * scale * scale)

    acc = {(0,) * dim: 1}
    for v, mult in fac:
        kv = _int_key(v, scale)
        if sum(map(_imul, kv, gint)) <= 0:
            raise ValueError("a factor with nonpositive grade")
        acc = _mul_raw(acc, _binomial_factor(kv, mult))
        acc = {k: c for k, c in acc.items() if sum(map(_imul, k, gint)) <= threshold}
    return GroupRingElement._unchecked(dim, {_frac_key(k, scale): c for k, c in acc.items()})


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
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if not b.terms:
        raise ZeroDivisionError("division by the zero element")
    if not a.terms:
        return GroupRingElement(a.dim, {})

    scale = _common_denominator([*a.terms, *b.terms])
    rem = _int_terms(a, scale)
    den = _int_terms(b, scale)
    lo = [min(xs) - min(ys) for xs, ys in zip(zip(*rem), zip(*den))]
    hi = [max(xs) - max(ys) for xs, ys in zip(zip(*rem), zip(*den))]
    lt_b = min(den)
    lc_b = den[lt_b]

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
        t = tuple(map(int.__sub__, lt_r, lt_b))
        if r or not all(l <= x <= h for l, x, h in zip(lo, t, hi)):
            raise NotDivisibleError("not divisible")
        quot[t] = c
        for kb, cb in den.items():
            k = tuple(map(int.__add__, t, kb))
            nc = rem.get(k, 0) - c * cb
            if nc:
                if k not in rem:
                    heappush(heap, k)
                rem[k] = nc
            else:
                del rem[k]
    return GroupRingElement._unchecked(a.dim, {_frac_key(k, scale): c for k, c in quot.items()})


# -- serialization ----------------------------------------------------------------


def element_to_json(x: GroupRingElement) -> dict:
    return {
        "dim": x.dim,
        "terms": [{"v": [str(c) for c in v], "c": str(x.terms[v])} for v in x.support()],
    }


def element_from_json(d: dict) -> GroupRingElement:
    dim = int(d["dim"])
    terms = {vector(t["v"]): int(t["c"]) for t in d["terms"]}
    return GroupRingElement(dim, terms)


def support_map_to_json(m: SupportMap) -> dict:
    return {
        "dim": m.dim,
        "support": [{"v": [str(c) for c in v], "mult": mult} for v, mult in m.items()],
    }


def support_map_from_json(d: dict, signed: bool = False) -> SupportMap:
    dim = int(d["dim"])
    entries: dict[Vector, int] = {}
    for item in d["support"]:
        v = vector(item["v"])
        entries[v] = entries.get(v, 0) + int(item["mult"])
    return (SignedSupportMap if signed else SupportMap)(dim, entries)
