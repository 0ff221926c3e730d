"""Group-ring elements, product expansion, truncation, exact division."""

import random
from fractions import Fraction
from math import comb

import pytest

import rootsphere.group_ring as group_ring
from rootsphere.exact import Q, vector, zero_vector
from rootsphere.group_ring import (
    MAX_DIVISION_STEPS,
    DivisionTooLargeError,
    ExpansionTooLargeError,
    GroupRingElement,
    NotDivisibleError,
    SignedSupportMap,
    SupportMap,
    element_from_json,
    element_to_json,
    exact_divide,
    expand_product,
    monomial,
    mul,
    one,
    shift_equivalent,
    support,
    support_map_from_json,
    support_map_to_json,
    truncated_product,
)

A = vector([1, -1, 0])
B = vector([0, 1, -1])


def rand_element(rng, dim, nterms=3, coord=2, cmax=3, dens=(1,)):
    x = GroupRingElement(dim, {})
    for _ in range(nterms):
        v = tuple(Q(rng.randint(-coord, coord), rng.choice(dens)) for _ in range(dim))
        c = rng.randint(-cmax, cmax)
        x = x + monomial(dim, v, c)
    return x


def test_element_canonicalization():
    x = GroupRingElement(1, {(Q(1),): Q(2), (Q(0),): Q(0)})
    assert x.support() == [(Q(1),)]
    assert x.coefficient((Q(0),)) == 0
    with pytest.raises(ValueError):
        GroupRingElement(2, {(Q(1),): Q(1)})


def test_mul_difference_of_squares():
    a = (Q(1),)
    lhs = mul(one(1) - monomial(1, a), one(1) + monomial(1, a))
    assert lhs == one(1) - monomial(1, (Q(2),))


def test_mul_identity_and_zero():
    x = monomial(2, (Q(1), Q(0))) + monomial(2, (Q(0), Q(1)), -2)
    assert mul(x, one(2)) == x
    assert mul(x, GroupRingElement(2, {})) == GroupRingElement(2, {})


def test_mul_a2_triple():
    f = lambda v: one(3) - monomial(3, v)
    prod = mul(mul(f(A), f(B)), f(tuple(x + y for x, y in zip(A, B))))
    ab = tuple(x + y for x, y in zip(A, B))
    a2b = tuple(2 * x + y for x, y in zip(A, B))
    ab2 = tuple(x + 2 * y for x, y in zip(A, B))
    dbl = tuple(2 * c for c in ab)
    expected = (
        one(3)
        - monomial(3, A)
        - monomial(3, B)
        + monomial(3, a2b)
        + monomial(3, ab2)
        - monomial(3, dbl)
    )
    assert prod == expected


def test_mul_associative_commutative():
    rng = random.Random(11)
    for _ in range(25):
        dim = rng.randint(1, 3)
        x, y, z = (rand_element(rng, dim) for _ in range(3))
        assert mul(x, y) == mul(y, x)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_support_sorted_and_zero():
    x = monomial(1, (Q(2),)) + monomial(1, (Q(-1),))
    assert support(x) == [(Q(-1),), (Q(2),)]
    assert support(GroupRingElement(1, {})) == []


def test_support_map_validation():
    with pytest.raises(ValueError):
        SupportMap(2, {(Q(0), Q(0)): 1})
    with pytest.raises(ValueError):
        SupportMap(1, {(Q(1),): -1})
    sm = SignedSupportMap(1, {(Q(1),): -1, (Q(2),): 0})
    assert sm.items() == [((Q(1),), -1)]


def test_support_map_drops_an_explicit_zero_at_the_origin():
    # m(0) = 0 is what the map requires, so saying it explicitly is allowed
    m = SupportMap(2, {(Q(0), Q(0)): 0, (Q(1), Q(0)): 1})
    assert m.items() == [((Q(1), Q(0)), 1)]
    d = {"dim": 2, "support": [{"v": ["0", "0"], "mult": 0}, {"v": ["1", "0"], "mult": 1}]}
    assert support_map_from_json(d).entries == m.entries
    for mult in (1, -1):
        with pytest.raises(ValueError, match="m\\(0\\) must be 0"):
            SignedSupportMap(2, {(Q(0), Q(0)): mult})


def test_non_integer_multiplicities_are_rejected():
    # int() would truncate these to 1 and 2
    with pytest.raises(ValueError):
        SupportMap(1, {(Q(1),): Q(3, 2)})
    with pytest.raises(ValueError):
        GroupRingElement(1, {(Q(1),): "3/2"})
    with pytest.raises(ValueError):
        element_from_json({"dim": 1, "terms": [{"v": ["1"], "c": "2.5"}]})
    with pytest.raises(TypeError):
        element_from_json({"dim": 1, "terms": [{"v": ["1"], "c": 2.5}]})
    with pytest.raises(TypeError):
        support_map_from_json({"dim": 1, "support": [{"v": ["1"], "mult": True}]})
    with pytest.raises(TypeError):
        support_map_from_json({"dim": 1.0, "support": [{"v": ["1"], "mult": 1}]})
    with pytest.raises(ValueError):
        truncated_product([((Q(1),), Q(3, 2))], (Q(1),), 3)
    assert SupportMap(1, {(Q(1),): Q(4, 2)}).entries == {(Q(1),): 2}


def test_keys_that_coerce_to_one_vector_are_summed():
    half = {"dim": 1, "terms": [{"v": ["1/2"], "c": "1"}, {"v": ["2/4"], "c": "1"}]}
    assert element_from_json(half) == monomial(1, (Q(1, 2),), 2)
    x = GroupRingElement(1, {(0,): 1, ("1/2",): 1, ("2/4",): 1})
    assert (x.coefficient(("2/4",)), x.coefficient((0,)), x.coefficient(("1/4",))) == (2, 1, 0)
    assert GroupRingElement(1, {("1",): 1, (1,): -1}) == GroupRingElement(1, {})
    assert len(GroupRingElement(1, {("1",): 1, (1,): -1})) == 0
    assert GroupRingElement(2, {("1/2", 0): 3, (Q(1, 2), "0"): -1}).terms == {(Q(1, 2), Q(0)): 2}
    assert SupportMap(1, {("1",): 1, (1,): 1}).entries == {(Q(1),): 2}
    assert SignedSupportMap(1, {("1",): 1, (Q(1),): -1, (2,): -1}).items() == [((Q(2),), -1)]
    # the m(0) test sees the summed multiplicity
    assert SignedSupportMap(1, {("0",): 1, (0,): -1, (1,): 1}).items() == [((Q(1),), 1)]
    with pytest.raises(ValueError, match="m\\(0\\) must be 0"):
        SupportMap(1, {("0",): 1, (0,): 1})
    with pytest.raises(ValueError, match="must be positive"):
        SupportMap(1, {("1",): 1, (1,): -2})


def test_expand_single_and_double():
    m = SupportMap(3, {A: 1})
    assert expand_product(m) == one(3) - monomial(3, A)
    m2 = SupportMap(3, {A: 2})
    twoA = tuple(2 * c for c in A)
    assert expand_product(m2) == one(3) - monomial(3, A, 2) + monomial(3, twoA)


def test_expand_a2_matches_triple_product():
    ab = tuple(x + y for x, y in zip(A, B))
    m = SupportMap(3, {A: 1, B: 1, ab: 1})
    f = lambda v: one(3) - monomial(3, v)
    assert expand_product(m) == mul(mul(f(A), f(B)), f(ab))


def test_expand_signed_negative_mult_divides():
    # m(a) = -2 contributes the reciprocal square, so multiplying back
    # by (1-e^a)^2 must recover the positive part of the product.
    # (1-e^2a)^2 / (1-e^a)^2 = (1+e^a)^2 is a Laurent polynomial.
    a = (Q(1),)
    one_minus_a = one(1) - monomial(1, a)
    one_plus_a = one(1) + monomial(1, a)
    one_minus_2a = one(1) - monomial(1, (Q(2),))
    m = SignedSupportMap(1, {(Q(2),): 2, a: -2})
    x = expand_product(m)
    assert x == mul(one_plus_a, one_plus_a)
    back = mul(x, mul(one_minus_a, one_minus_a))
    assert back == mul(one_minus_2a, one_minus_2a)
    # (1-e^2a) / (1-e^a)^2 = (1+e^a)/(1-e^a) is not: 1+e^a is 2 at e^a = 1,
    # so 1-e^a does not divide it, and the division must be refused.
    with pytest.raises(NotDivisibleError):
        expand_product(SignedSupportMap(1, {(Q(2),): 1, a: -2}))


@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_expand_empty_map_is_one(dim):
    assert expand_product(SupportMap(dim, {})) == one(dim)


def test_expand_all_negative_signed_map_is_not_divisible():
    # the empty product 1 divided by (1-e^a)(1-e^b)^2 is no Laurent polynomial
    with pytest.raises(NotDivisibleError):
        expand_product(SignedSupportMap(2, {(Q(1), Q(0)): -1, (Q(0), Q(1)): -2}))


def test_expand_invariants_random():
    rng = random.Random(2024)
    sep = None
    for _ in range(30):
        dim = rng.randint(1, 3)
        entries = {}
        for _ in range(rng.randint(1, 3)):
            v = tuple(Q(rng.randint(-2, 2)) for _ in range(dim))
            if all(c == 0 for c in v):
                continue
            entries[v] = rng.randint(1, 2)
        if not entries:
            continue
        m = SupportMap(dim, entries)
        x = expand_product(m)
        # the factors 1-e^s each kill the total coefficient sum
        assert sum(x.terms.values()) == 0
        assert len(x.terms) >= 2
        from rootsphere.exact import generic_separator, inner

        sep = generic_separator(list(entries), zero_vector(dim))
        top = zero_vector(dim)
        for s, k in entries.items():
            if inner(s, sep) > 0:
                top = tuple(t + k * c for t, c in zip(top, s))
        assert x.coefficient(top) in (Q(1), Q(-1))


def test_expand_all_positive_keys_constant_and_top():
    m = SupportMap(3, {A: 1, B: 2})
    x = expand_product(m)
    assert x.coefficient(zero_vector(3)) == 1
    total = tuple(a + 2 * b for a, b in zip(A, B))
    # the only term at A+2B is (-e^A)(+e^2B): sign (-1)^(m(A)+m(B))
    assert x.coefficient(total) == (-1) ** 3


def test_expand_constant_term_can_vanish():
    m = SignedSupportMap(1, {(Q(2),): 1, (Q(-1),): 2})
    x = expand_product(m)
    assert x.coefficient((Q(0),)) == 0


def test_expand_single_vector_matches_binomials():
    v = (Q(2), Q(-1))
    for mult in range(1, 61):
        assert expand_product(SupportMap(2, {v: mult})).terms == _ref_binomial(v, mult), mult


def test_truncated_builds_only_the_terms_below_the_cutoff():
    # (1 - e^a)^10000 (1 - e^b) with grade(a) = grade(b) = 1/2 keeps the 9 terms ja + ib with j + i <= 4;
    # building all 10 001 binomials of the first factor would take seconds
    x = truncated_product([((0, 1), 10000), ((1, -1), 1)], (1, "1/2"), 2)
    expected = {vector((i, j - i)): (-1) ** (i + j) * comb(10000, j) for i in (0, 1) for j in range(5 - i)}
    assert len(expected) == 9
    assert x.terms == expected


def test_truncated_single_factor():
    x = truncated_product([((Q(1),), 1)], (Q(1),), Q(5))
    assert x == one(1) - monomial(1, (Q(1),))


def test_truncated_euler_small():
    factors = [((Q(k),), 1) for k in (1, 2, 3)]
    x = truncated_product(factors, (Q(1),), Q(3))
    expected = {
        (Q(0),): Q(1),
        (Q(1),): Q(-1),
        (Q(2),): Q(-1),
    }
    assert x.terms == expected


def test_truncated_empty_is_one():
    assert truncated_product([], (Q(1),), Q(2)) == one(1)


def test_truncated_empty_product_is_one_only_at_a_nonnegative_cutoff():
    # the constant 1 has grade 0: a negative cutoff leaves zero, with no factor as with one
    assert truncated_product([], (1,), -1) == GroupRingElement(1, {})
    assert truncated_product([((1,), 1)], (1,), -1) == GroupRingElement(1, {})
    assert truncated_product([], (1,), 0) == one(1)
    assert truncated_product([], (), 1) == one(0)
    assert truncated_product([], (), -1) == GroupRingElement(0, {})


def test_truncated_rejects_bad_grades():
    with pytest.raises(ValueError):
        truncated_product([((Q(-1),), 1)], (Q(1),), Q(2))
    with pytest.raises(ValueError):
        truncated_product([((Q(1),), 0)], (Q(1),), Q(2))


def test_truncated_restriction_consistency():
    factors = [
        ((Q(1), Q(0)), 1),
        ((Q(0), Q(1)), 2),
        ((Q(1), Q(1)), 1),
        ((Q(2), Q(-1)), 1),
    ]
    g = (Q(1), Q(1))
    big = truncated_product(factors, g, Q(4))
    small = truncated_product(factors, g, Q(2))
    for v, c in small.terms.items():
        assert big.coefficient(v) == c
    for v, c in big.terms.items():
        gr = sum(a * b for a, b in zip(v, g))
        if gr <= 2:
            assert small.coefficient(v) == c


def test_exact_divide_parallel():
    num = one(1) - monomial(1, (Q(2),))
    den = one(1) - monomial(1, (Q(1),))
    assert exact_divide(num, den) == one(1) + monomial(1, (Q(1),))


def _element(dim, terms):
    return GroupRingElement(dim, {vector(v): c for v, c in terms})


def test_exact_divide_not_divisible():
    cases = [
        (one(2) - monomial(2, (Q(1), Q(0))), one(2) - monomial(2, (Q(0), Q(1)))),
        # 13 terms by 3, not divisible: the fifth quotient term leaves the
        # per-coordinate window, long before any step limit
        (
            _element(2, [
                (["-9/2", "-3"], 2), (["-3", "-4/3"], -4), (["-4", "-1/3"], 4),
                (["1/2", "-8/3"], -2), (["2", "-1"], 4), (["1", "0"], -4),
                (["-1/2", "-3/2"], -2), (["1", "1/6"], 4), (["0", "7/6"], -4),
                (["-1/2", "-5/2"], 1), (["1", "-5/6"], -2), (["0", "1/6"], 2),
                (["-1/3", "1"], 2),
            ]),
            _element(2, [(["-3/2", "-2"], 1), (["0", "-1/3"], -2), (["-1", "2/3"], 2)]),
        ),
    ]
    for num, den in cases:
        with pytest.raises(NotDivisibleError):
            exact_divide(num, den)


def test_exact_divide_step_limit_is_typed():
    # (1 - e^200001) / (1 - e) = 1 + e + ... + e^200000 divides, but its
    # 200001 quotient terms exceed the step limit: the error must say so,
    # not claim that the division is impossible
    num = one(1) - monomial(1, (Q(MAX_DIVISION_STEPS + 1),))
    den = one(1) - monomial(1, (Q(1),))
    with pytest.raises(DivisionTooLargeError, match="division step limit reached"):
        exact_divide(num, den)
    assert not issubclass(DivisionTooLargeError, NotDivisibleError)


def test_exact_divide_zero_cases():
    den = one(1) - monomial(1, (Q(1),))
    assert exact_divide(GroupRingElement(1, {}), den) == GroupRingElement(1, {})
    with pytest.raises(ZeroDivisionError):
        exact_divide(den, GroupRingElement(1, {}))
    # zero over a divisor off the integers, in dimensions 0-3: equality also compares the scale, which must be 1
    for d in range(4):
        for den in (monomial(d, (Q(1, 2),) * d, 2), one(d) - monomial(d, (Q(1, 3),) * d) if d else one(0)):
            assert exact_divide(GroupRingElement(d, {}), den) == GroupRingElement(d, {}), (d, den)


def test_exact_divide_round_trip():
    rng = random.Random(314)
    done = 0
    while done < 60:
        dim = rng.randint(1, 4)
        q = rand_element(rng, dim, nterms=4, dens=(1, 2, 3))
        b = rand_element(rng, dim, nterms=3, dens=(1, 2, 3))
        if not b.terms or not q.terms:
            continue
        prod = mul(q, b)
        assert exact_divide(prod, b) == q
        done += 1


def test_shift_equivalent_example():
    m = SupportMap(1, {(Q(1),): 1, (Q(2),): 1})
    m2 = shift_equivalent(m, (Q(1),))
    assert m2.entries == {(Q(-1),): 1, (Q(2),): 1}
    assert type(m2) is SupportMap


def test_shift_equivalent_involution_and_errors():
    m = SupportMap(2, {(Q(1), Q(0)): 1, (Q(0), Q(1)): 2})
    b = (Q(1), Q(0))
    assert shift_equivalent(shift_equivalent(m, b), (Q(-1), Q(0))).entries == m.entries
    with pytest.raises(ValueError):
        shift_equivalent(m, (Q(5), Q(5)))
    sm = SignedSupportMap(1, {(Q(1),): -1})
    with pytest.raises(ValueError):
        shift_equivalent(sm, (Q(1),))


def test_shift_equivalent_cancels_a_negative_multiplicity():
    m = SignedSupportMap(1, {(Q(1),): 1, (Q(-1),): -1})
    assert shift_equivalent(m, (Q(1),)).entries == {}


def test_shift_identity_on_expansion():
    # flipping one factor's sign of the support key negates and twists
    # the whole expansion by exactly that monomial
    rng = random.Random(161803)
    done = 0
    while done < 20:
        dim = rng.randint(1, 2)
        entries = {}
        for _ in range(rng.randint(1, 3)):
            v = tuple(Q(rng.randint(-2, 2)) for _ in range(dim))
            if all(c == 0 for c in v):
                continue
            entries[v] = rng.randint(1, 2)
        if not entries:
            continue
        m = SupportMap(dim, entries)
        b = rng.choice(list(entries))
        shifted = shift_equivalent(m, b)
        lhs = expand_product(shifted)
        rhs = -mul(monomial(dim, tuple(-c for c in b)), expand_product(m))
        assert lhs == rhs
        done += 1


def test_element_json_round_trip():
    x = monomial(2, (Q(1, 2), Q(-1)), Q(3)) + monomial(2, (Q(0), Q(2)), -1)
    d = element_to_json(x)
    assert d["dim"] == 2
    assert [t["v"] for t in d["terms"]] == [["0", "2"], ["1/2", "-1"]]
    assert element_from_json(d) == x


def test_support_map_json_round_trip():
    m = SupportMap(2, {(Q(1), Q(0)): 2, (Q(0), Q(1)): 1})
    d = support_map_to_json(m)
    assert support_map_from_json(d).entries == m.entries
    sm = SignedSupportMap(1, {(Q(1),): -2})
    d2 = support_map_to_json(sm)
    back = support_map_from_json(d2, signed=True)
    assert back.entries == sm.entries and type(back) is SignedSupportMap
    with pytest.raises(ValueError):
        support_map_from_json(d2)


def test_expansion_size_limit_is_typed(monkeypatch):
    # (1 - e^a)(1 - e^b)(1 - e^(a+b)) has accumulators of 2, 4 and 6 terms
    monkeypatch.setattr(group_ring, "MAX_EXPANSION_TERMS", 5)
    ab = tuple(x + y for x, y in zip(A, B))
    with pytest.raises(ExpansionTooLargeError, match="expansion too large"):
        expand_product(SupportMap(3, {A: 1, B: 1, ab: 1}))
    assert len(expand_product(SupportMap(3, {A: 1, B: 1}))) == 4
    factors = [((Q(1), Q(0)), 1), ((Q(0), Q(1)), 1), ((Q(1), Q(1)), 1)]
    with pytest.raises(ExpansionTooLargeError, match="expansion too large"):
        truncated_product(factors, (Q(1), Q(1)), Q(4))
    # below cutoff 1 the accumulator stays at 3 terms
    assert len(truncated_product(factors, (Q(1), Q(1)), Q(1))) == 3


# -- tuple-key reference of the packed kernels ------------------------------------


def _ref_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = _ref_add(ka, kb)
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _ref_binomial(v, mult) -> dict:
    return {tuple(j * x for x in v): (-1) ** j * comb(mult, j) for j in range(mult + 1)}


def _ref_expand(entries) -> dict:
    out = {tuple(Fraction(0) for _ in next(iter(entries))): 1}
    for v, mult in entries.items():
        out = _ref_mul(out, _ref_binomial(v, mult))
    return out


def _ref_truncated(factors, g, cutoff) -> dict:
    out = {tuple(Fraction(0) for _ in g): 1}
    for v, mult in factors:
        out = _ref_mul(out, _ref_binomial(v, mult))
        out = {k: c for k, c in out.items() if sum(x * y for x, y in zip(k, g)) <= cutoff}
    return out


def _ref_divide(a: dict, b: dict) -> dict:
    """Long division from the lexicographically least term, with the Newton-polytope window."""
    n = len(next(iter(b)))
    lo = [min(k[j] for k in a) - min(k[j] for k in b) for j in range(n)]
    hi = [max(k[j] for k in a) - max(k[j] for k in b) for j in range(n)]
    lt_b = min(b)
    rem, quot = dict(a), {}
    while rem:
        lt = min(rem)
        c, r = divmod(rem[lt], b[lt_b])
        t = tuple(x - y for x, y in zip(lt, lt_b))
        if r or not all(l <= x <= h for l, x, h in zip(lo, t, hi)):
            raise NotDivisibleError("not divisible")
        quot[t] = c
        for kb, cb in b.items():
            k = _ref_add(t, kb)
            rem[k] = rem.get(k, 0) - c * cb
            if not rem[k]:
                del rem[k]
    return quot


def _rand_terms(rng, dim, den, nterms, coord) -> dict:
    out = {}
    for _ in range(nterms):
        v = tuple(Fraction(rng.randint(-coord, coord), den) for _ in range(dim))
        out[v] = out.get(v, 0) + rng.choice([-3, -2, -1, 1, 1, 2, 3])
    return {k: c for k, c in out.items() if c}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotDivisibleError:
        return "not divisible"


def test_packed_kernels_match_tuple_reference():
    rng = random.Random(20260618)
    for case in range(160):
        dim = 1 + case % 8
        den = 1 + (case // 8) % 3
        # coordinates up to 2^b - 1 and 2^b fill or just pass a packing digit
        coord = rng.choice([1, 2, 3, 4, 7, 8, 15, 16])

        # products, both through expand_product and through mul
        entries = {}
        for _ in range(rng.randint(1, 4)):
            v = tuple(Fraction(rng.randint(-coord, coord), den) for _ in range(dim))
            if any(v):
                entries[v] = rng.randint(1, 3)
        if entries:
            ref = _ref_expand(entries)
            x = expand_product(SupportMap(dim, entries))
            assert x.terms == ref
            assert x == GroupRingElement(dim, ref) and GroupRingElement(dim, ref) == x
            assert x.support() == sorted(ref)
            assert element_to_json(x) == element_to_json(GroupRingElement(dim, ref))

        # a truncated product whose cutoff is the grade of a term of the full product
        g = tuple(Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(dim))
        factors = [(v, rng.randint(1, 3)) for v in entries if sum(x * y for x, y in zip(v, g)) > 0]
        full = _ref_truncated(factors, g, Fraction(10**9))
        cutoff = rng.choice(sorted({sum(x * y for x, y in zip(k, g)) for k in full}))
        ref = _ref_truncated(factors, g, cutoff)
        assert any(sum(x * y for x, y in zip(k, g)) == cutoff for k in ref)
        x = truncated_product(factors, g, cutoff)
        assert x.terms == ref
        assert x == GroupRingElement(dim, ref)

        # divisions: a divisible product with the divisor shifted far off a's box
        # (a signed quotient absorbs the shift), then the same product plus one term
        b = _rand_terms(rng, dim, den, rng.randint(1, 3), coord)
        q = _rand_terms(rng, dim, den, rng.randint(1, 4), coord)
        if not b or not q:
            continue
        s = tuple(Fraction(rng.choice([-1, 1]) * rng.randint(0, 6 * coord), den) for _ in range(dim))
        b = {_ref_add(k, s): c for k, c in b.items()}
        q = {tuple(x - y for x, y in zip(k, s)): c for k, c in q.items()}
        a = _ref_mul(q, b)
        bx, ax = GroupRingElement(dim, b), GroupRingElement(dim, a)
        assert mul(GroupRingElement(dim, q), bx).terms == a
        assert exact_divide(ax, bx).terms == _ref_divide(a, b) == q
        extra = dict(a)
        v = tuple(Fraction(rng.randint(-2 * coord, 2 * coord), den) for _ in range(dim))
        extra[v] = extra.get(v, 0) + rng.choice([-1, 1])
        extra = {k: c for k, c in extra.items() if c}
        if extra:
            got = _outcome(lambda: exact_divide(GroupRingElement(dim, extra), bx).terms)
            assert got == _outcome(_ref_divide, extra, b)


@pytest.mark.parametrize("call", [
    lambda: one(1) + one(2),
    lambda: mul(one(1), one(2)),
    lambda: one(1) * one(2),
    lambda: truncated_product([(vector([1, 0]), 1)], vector([1]), 5),
    lambda: exact_divide(one(1), one(2)),
    lambda: one(2).coefficient((1, 0, 0)),
    lambda: one(2).coefficient((1,)),
])
def test_operands_of_two_dimensions_are_refused(call):
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        call()
