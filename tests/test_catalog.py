"""Built-in systems, affine ladders, and the two boundary constructions."""

from itertools import combinations, product
from math import factorial

import pytest

from rootsphere.catalog import (
    MAX_REMARK29_KMAX,
    default_grading,
    divisors,
    mobius,
    remark29_exponents,
    remark210_counterexample,
    series_inversion_oracle,
    standard_finite,
    untwisted_affine,
)
from rootsphere.affine_root import enumerate_support
from rootsphere.exact import Q, inner, vector, vscale
from rootsphere.finite_root import RootSystem, check_axioms, classify, weyl_order
from rootsphere.group_ring import (
    GroupRingElement,
    SupportMap,
    expand_product,
    monomial,
    mul,
    one,
    truncated_product,
)
from rootsphere.quadric import SphereFit

# orders and positive-root counts are classical group-theory facts
EXPECTED = {
    "A1": (2, 1),
    "A2": (6, 3),
    "A3": (24, 6),
    "A4": (120, 10),
    "B2": (8, 4),
    "B3": (48, 9),
    "C3": (48, 9),
    "D4": (192, 12),
    "G2": (12, 6),
    "F4": (1152, 24),
    "E6": (51840, 36),
    "E7": (2903040, 63),
    "E8": (696729600, 120),
}


def test_a2_roots():
    entry = standard_finite("A2")
    a = vector([1, -1, 0])
    b = vector([0, 1, -1])
    ab = vector([1, 0, -1])
    want = {a, b, ab, tuple(-c for c in a), tuple(-c for c in b), tuple(-c for c in ab)}
    assert set(entry.roots.roots) == want
    assert entry.ambient_dim == 3


def test_g2_roots():
    entry = standard_finite("G2")
    roots = entry.roots.roots
    assert len(roots) == 12
    assert all(sum(r) == 0 for r in roots)
    assert vector([1, -1, 0]) in roots
    assert vector([2, -1, -1]) in roots


# The classical root sets by their textbook definitions (Humphreys, Introduction to Lie Algebras and
# Representation Theory, 12.1): the reference for the catalog's simple-root orbits of A_n to D_n.
def _pm_pairs(n, idx):
    out = []
    for i, j in combinations(idx, 2):
        for si, sj in product((1, -1), repeat=2):
            v = [Q(0)] * n
            v[i], v[j] = Q(si), Q(sj)
            out.append(tuple(v))
    return out


def _axis(n, i, s):
    v = [Q(0)] * n
    v[i] = Q(s)
    return tuple(v)


def _classical_roots(letter, n):
    """(ambient dimension, roots): +-e_i +- e_j, with +-e_i for B_n or +-2e_i for C_n; A_n's sum to 0 in n + 1 coordinates."""
    if letter == "A":
        return n + 1, [a for a in _pm_pairs(n + 1, range(n + 1)) if sum(a) == 0]
    roots = _pm_pairs(n, range(n))
    if letter in "BC":
        roots += [_axis(n, i, s * (1 if letter == "B" else 2)) for i in range(n) for s in (1, -1)]
    return n, roots


# Weyl group orders and positive-root counts (Bourbaki, Lie Groups and Lie Algebras, Plates I-IV)
CLASSICAL_ORDERS = {
    "A": lambda n: (factorial(n + 1), n * (n + 1) // 2),
    "B": lambda n: (2**n * factorial(n), n * n),
    "C": lambda n: (2**n * factorial(n), n * n),
    "D": lambda n: (2 ** (n - 1) * factorial(n), n * (n - 1)),
}
CLASSICAL_NAMES = [f"{letter}{n}" for letter, least in zip("ABCD", (1, 2, 3, 4)) for n in range(least, 9)]


@pytest.mark.parametrize("name", CLASSICAL_NAMES)
def test_classical_entries_match_their_textbook_definitions(name):
    letter, n = name[0], int(name[1:])
    dim, roots = _classical_roots(letter, n)
    # the catalog's positives are those of the functional (1, 2, 4, ...)
    positive = tuple(sorted(a for a in roots if sum(2**i * c for i, c in enumerate(a)) > 0))
    order, npos = CLASSICAL_ORDERS[letter](n)
    assert len(positive) == npos and len(roots) == 2 * npos
    entry = standard_finite(name)
    assert entry == (name, dim, RootSystem(dim, tuple(roots)), positive, order, npos)


# The exceptional root sets by their textbook definitions (Humphreys, Introduction to Lie
# Algebras and Representation Theory, 12.1): the reference for the catalog's simple-root orbits.
def _e8_roots():
    roots = _pm_pairs(8, range(8))
    for signs in product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(tuple(Q(s, 2) for s in signs))
    return roots


def _f4_roots():
    roots = _pm_pairs(4, range(4))
    roots += [_axis(4, i, s) for i in range(4) for s in (1, -1)]
    roots += [tuple(Q(s, 2) for s in signs) for signs in product((1, -1), repeat=4)]
    return roots


def _g2_roots():
    half = [(1, -1, 0), (0, 1, -1), (1, 0, -1), (2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
    return [vector(v) for v in half] + [vector([-c for c in v]) for v in half]


TEXTBOOK_ROOTS = {
    "E8": _e8_roots,
    # coordinates counted from 1: the E8 roots with a7 + a8 = 0, and with a6 = a7 = -a8
    "E7": lambda: [a for a in _e8_roots() if a[6] + a[7] == 0],
    "E6": lambda: [a for a in _e8_roots() if a[5] == a[6] == -a[7]],
    "F4": _f4_roots,
    "G2": _g2_roots,
}


@pytest.mark.parametrize("name", sorted(TEXTBOOK_ROOTS))
def test_exceptional_roots_match_their_textbook_definitions(name):
    assert set(standard_finite(name).roots.roots) == set(TEXTBOOK_ROOTS[name]())


def test_unknown_names():
    for bad in ("Z9", "A0", "B1", "", "E9"):
        with pytest.raises(ValueError):
            standard_finite(bad)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_entry_consistency(name):
    entry = standard_finite(name)
    order, npos = EXPECTED[name]
    assert entry.expected_weyl_order == order
    assert entry.expected_positive_count == npos
    assert len(entry.positive) == npos
    assert len(entry.roots.roots) == 2 * npos
    rep = check_axioms(entry.roots)
    assert rep.all_pass()
    assert classify(entry.roots) == name
    assert weyl_order(entry.roots.roots) == order
    sep_side = [a for a in entry.roots.roots if a in set(entry.positive)]
    assert len(sep_side) == npos


def test_default_grading_levels():
    entry = standard_finite("A2")
    g = default_grading(entry)
    assert g.level == 1
    # the catalog's positives are those of the functional (1, 2, 4, ...), so
    # rho(A2) = (-1, 0, 1), as the docstring of standard_finite states; the
    # lexicographic half of positive_roots would give (1, 0, -1) instead
    rho = vector([-1, 0, 1])
    assert g.part == vscale(Q(1, 4), rho)


def test_untwisted_a1_small():
    spec = untwisted_affine("A1", 3)
    items = enumerate_support(spec)
    real = [(av, m) for av, m in items if any(x != 0 for x in av.part)]
    iso = [(av, m) for av, m in items if all(x == 0 for x in av.part)]
    assert len(real) == 6
    assert [str(av.level) for av, _ in iso] == ["1", "2", "3"]
    assert all(m == 1 for _, m in iso)
    level0 = sorted(av.part for av, _ in real if av.level == 0)
    assert level0 == sorted(standard_finite("A1").positive)


def test_untwisted_level0_matches_positive():
    for name in ("A2", "B2", "G2"):
        entry = standard_finite(name)
        spec = untwisted_affine(name, 2)
        level0 = sorted(
            av.part for av, _ in enumerate_support(spec)
            if av.level == 0 and any(x != 0 for x in av.part)
        )
        assert level0 == sorted(entry.positive)


def test_untwisted_rejects_bad_cutoff():
    with pytest.raises(ValueError, match="cutoff"):
        untwisted_affine("A1", 0)
    with pytest.raises(ValueError, match="cutoff"):
        untwisted_affine("A1", -2)


def test_mobius():
    assert [mobius(n) for n in (1, 2, 3, 4, 5, 6, 12, 30)] == [1, -1, -1, 0, -1, 1, 0, -1]
    with pytest.raises(ValueError):
        mobius(0)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_exponents_first_six():
    assert remark29_exponents(6) == [2, 1, 2, 3, 6, 9]
    with pytest.raises(ValueError):
        remark29_exponents(0)


def test_exponents_match_inversion_oracle():
    assert series_inversion_oracle(1) == [2]
    assert remark29_exponents(30) == series_inversion_oracle(30)
    with pytest.raises(ValueError, match="^kmax must be >= 1$"):
        series_inversion_oracle(0)
    # the oracle's time grows about as kmax^3, so both routes refuse a kmax past the limit
    for f in (remark29_exponents, series_inversion_oracle):
        with pytest.raises(ValueError, match=f"^kmax must be <= {MAX_REMARK29_KMAX}$"):
            f(MAX_REMARK29_KMAX + 1)


def test_exponents_positivity_bound():
    for k, a in enumerate(remark29_exponents(40), start=1):
        assert k * a >= 2


def test_exponents_product_collapses():
    # third route: multiply the factors out and watch everything above
    # degree 1 cancel
    kmax = 12
    exps = remark29_exponents(kmax)
    factors = [((Q(k),), a) for k, a in enumerate(exps, start=1)]
    got = truncated_product(factors, (Q(1),), Q(kmax))
    assert got == one(1) - monomial(1, (Q(1),), 2)


def test_counterexample_gram():
    m, _, _ = remark210_counterexample()
    keys = sorted(m.entries)
    neg = [k for k in keys if m.entries[k] < 0]
    alpha, beta = sorted(neg, reverse=True)
    assert inner(alpha, alpha) == 4
    assert inner(beta, beta) == 4
    assert inner(alpha, beta) == -2


def test_counterexample_expansion():
    m, expansion, fit = remark210_counterexample()
    alpha = vector([2, 0, 0, 0])
    beta = vector([-1, 1, 1, 1])
    gamma = vector([1, 1, 1, 1])
    assert m.entries == {
        vscale(Q(2), alpha): 1,
        vscale(Q(2), beta): 1,
        gamma: 1,
        alpha: -1,
        beta: -1,
    }
    built = mul(
        mul(one(4) + monomial(4, alpha), one(4) + monomial(4, beta)),
        one(4) - monomial(4, gamma),
    )
    assert expansion == built
    assert len(expansion.terms) == 6
    assert sorted(expansion.terms.values()) == [-1, -1, -1, 1, 1, 1]
    assert fit == SphereFit((Q(1), Q(1), Q(1), Q(1)), Q(4))


def test_counterexample_quotient_times_divisor():
    m, expansion, _ = remark210_counterexample()
    divisor = one(4)
    numerator_keys = {}
    for k, v in m.entries.items():
        if v > 0:
            numerator_keys[k] = v
        else:
            for _ in range(-v):
                divisor = mul(divisor, one(4) - monomial(4, k))
    assert mul(expansion, divisor) == expand_product(SupportMap(4, numerator_keys))


def test_counterexample_doubled_support_fails_axioms():
    m, _, _ = remark210_counterexample()
    doubled = sorted({v for v in m.entries} | {tuple(-c for c in v) for v in m.entries})
    rep = check_axioms(RootSystem(4, tuple(doubled)))
    assert not rep.fr2
    assert not rep.fr3
    assert not rep.fr5
    assert not rep.all_pass()


def test_counterexample_fit_survives_permutation():
    _, expansion, fit = remark210_counterexample()
    from rootsphere.quadric import fit_sphere

    perm = (3, 0, 1, 2)
    pts = [tuple(v[i] for i in perm) for v in expansion.support()]
    fit2 = fit_sphere(pts)
    assert fit2 is not None
    assert fit2.radius_sq == fit.radius_sq
    assert fit2.center == tuple(fit.center[i] for i in perm)
