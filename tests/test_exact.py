"""Exact layer: rationals, vectors, linear solving, separating functionals."""

import random

import pytest

from rootsphere.exact import (
    AffineVector,
    Q,
    affine,
    generic_separator,
    inner,
    is_zero,
    norm_sq,
    rational,
    solve_linear,
    span_rank,
    unflatten,
    vadd,
    vector,
    vneg,
    vscale,
    vsub,
    zero_vector,
)


def test_rational_coercions():
    assert rational(3) == Q(3)
    assert rational("3/5") == Q(3, 5)
    assert rational("-2") == Q(-2)
    assert rational(Q(7, 2)) == Q(7, 2)


def test_rational_rejects_floats():
    with pytest.raises(TypeError):
        rational(0.5)
    with pytest.raises(TypeError):
        vector([1, 0.5])
    with pytest.raises(TypeError, match="^a boolean is not a number$"):
        rational(True)


def test_a_zero_denominator_is_a_value_error_and_json_names_its_place():
    from rootsphere.exact import json_field, json_items

    for bad in ("1/0", "-3/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            rational(bad)
    with pytest.raises(ValueError, match=r"^support\[0\]: zero denominator: '1/0'$"):
        json_field({"v": ["1", "1/0"]}, "v", "support[0]", vector)
    roots = json_items({"roots": [["1"], ["2"], ["x"]]}, "roots")
    assert list(roots) == ["roots[0]", "roots[1]", "roots[2]"]
    with pytest.raises(ValueError, match=r"^roots\[2\]: Invalid literal"):
        json_field(roots, "roots[2]", coerce=vector)


def test_the_json_reader_names_a_field_of_the_input_by_its_name_and_keeps_the_error_type():
    from rootsphere.exact import integer, json_field

    assert json_field({"dim": "3"}, "dim", coerce=integer) == 3
    assert json_field({"dim": "3"}, "dim") == "3"
    with pytest.raises(ValueError, match=r"^dim: Invalid literal for Fraction: 'x'$"):
        json_field({"dim": "x"}, "dim", coerce=integer)
    with pytest.raises(TypeError, match=r"^items\[1\]: a boolean is not an integer$"):
        json_field({"mult": True}, "mult", "items[1]", integer)
    with pytest.raises(TypeError, match=r"^support\[0\]: expected a list of coordinates, not the string '12'$"):
        json_field({"v": "12"}, "v", "support[0]", vector)
    # an error of the object or the field itself is not prefixed twice
    with pytest.raises(ValueError, match=r'^grading: missing field "level"$'):
        json_field({}, "level", "grading", integer)


def test_integer_coercions():
    from rootsphere.exact import integer

    assert [integer(x) for x in (3, -2, "7", " -4 ", Q(6, 3))] == [3, -2, 7, -4, 2]
    assert all(type(integer(x)) is int for x in (3, "7", Q(6, 3)))
    for bad in (True, False, 1.0, 1.9):
        with pytest.raises(TypeError):
            integer(bad)
    for bad in (Q(3, 2), "5/2", "2.5", "x"):
        with pytest.raises(ValueError):
            integer(bad)


def test_rational_string_round_trip():
    for s in ["3/5", "-7/11", "0", "12"]:
        assert str(rational(s)) == s


def test_vector_helpers():
    u = vector([1, -2])
    assert vadd(u, u) == (Q(2), Q(-4))
    assert vsub(u, u) == zero_vector(2)
    assert vneg(u) == (Q(-1), Q(2))
    assert vscale("1/2", u) == (Q(1, 2), Q(-1))
    assert is_zero(zero_vector(3)) and not is_zero(u)
    with pytest.raises(ValueError):
        vadd(u, vector([1]))


def test_inner_examples():
    a = vector([1, -1, 0])
    b = vector([0, 1, -1])
    assert inner(a, b) == -1
    assert inner(a, a) == 2
    r0 = vector(["3/5", "4/5"])
    r1 = vector(["-4/5", "3/5"])
    assert inner(r0, r1) == 0
    assert norm_sq(r0) == 1 and norm_sq(r1) == 1


def test_inner_symmetric_bilinear():
    rng = random.Random(90125)
    for _ in range(60):
        n = rng.randint(1, 4)

        def rv():
            return vector([Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)])

        u, v, w = rv(), rv(), rv()
        s = Q(rng.randint(-3, 3), rng.randint(1, 3))
        assert inner(u, v) == inner(v, u)
        assert inner(vadd(vscale(s, u), w), v) == s * inner(u, v) + inner(w, v)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(vector([1]), vector([1, 2]))


def test_affine_vector_round_trip():
    av = affine("3/2", [1, 2])
    assert av == AffineVector(Q(3, 2), (Q(1), Q(2)))
    assert av.dim == 2
    assert av.flatten() == (Q(3, 2), Q(1), Q(2))
    assert unflatten(av.flatten()) == av
    with pytest.raises(ValueError):
        unflatten(())


def test_solve_unique():
    sol = solve_linear([[1]], [1])
    assert sol.kind == "unique"
    assert sol.particular == (Q(1),)
    assert sol.kernel_basis == ()


def test_solve_inconsistent():
    assert solve_linear([[0]], [1]).kind == "inconsistent"


def test_solve_affine_family():
    sol = solve_linear([[1, 1]], [2])
    assert sol.kind == "affine-family"
    assert sol.particular == (Q(2), Q(0))
    assert sol.kernel_basis == ((Q(-1), Q(1)),)


def test_solve_empty_system_needs_ncols():
    sol = solve_linear([], [], ncols=2)
    assert sol.kind == "affine-family"
    assert len(sol.kernel_basis) == 2
    with pytest.raises(ValueError):
        solve_linear([], [])


def test_solve_substitution_property():
    rng = random.Random(5150)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        rows = [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(k)]
        rhs = [Q(rng.randint(-3, 3)) for _ in range(k)]
        sol = solve_linear(rows, rhs, ncols=n)
        if sol.kind == "inconsistent":
            continue
        for row, b in zip(rows, rhs):
            assert inner(vector(row), sol.particular) == b
        for kv in sol.kernel_basis:
            assert all(inner(vector(row), kv) == 0 for row in rows)


def _solve_linear_reference(rows, rhs, n):
    # Gauss-Jordan on Fractions, pivots in column order, free variables at 0
    aug = [list(vector(r)) + [Q(b)] for r, b in zip(rows, rhs)]
    pivots, r = [], 0
    for c in range(n):
        pr = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(row[n] != 0 for row in aug[r:]):
        return ("inconsistent", None, ())
    free = [c for c in range(n) if c not in pivots]
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
    return ("affine-family" if free else "unique", tuple(part), tuple(kernel))


def test_solve_linear_matches_gauss_jordan_reference():
    rng = random.Random(6174)
    kinds = {"unique": 0, "affine-family": 0, "inconsistent": 0, "empty": 0}
    for _ in range(10000):
        n = rng.randint(0, 4)
        # augmented rows [row | rhs]; rows in the span of a few generators make the
        # system rank-deficient, and random rhs make it inconsistent
        gens = [[Q(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n + 1)] for _ in range(rng.randint(1, n + 1))]
        aug = []
        for _ in range(rng.randint(0, n + 2)):
            kind = rng.randrange(4)
            if kind == 0:
                cs = [rng.randint(-2, 2) for _ in gens]
                row = [sum(c * g[j] for c, g in zip(cs, gens)) for j in range(n + 1)]
            elif kind == 1 and aug:
                row = [Q(rng.choice([-2, 1, 3]), rng.choice([1, 2])) * x for x in rng.choice(aug)]
            elif kind == 2:
                row = [Q(rng.randint(-4, 4), rng.choice([1, 3])) for _ in range(n + 1)]
            else:
                row = [rng.randint(-1, 1) for _ in range(n + 1)]
            aug.append(row)
        rows, rhs = [r[:-1] for r in aug], [r[-1] for r in aug]
        expected = _solve_linear_reference(rows, rhs, n)
        sol = solve_linear(rows, rhs, ncols=n)
        assert (sol.kind, sol.particular, sol.kernel_basis) == expected
        kinds[sol.kind] += 1
        kinds["empty"] += not aug
    assert min(kinds.values()) > 300, kinds


def test_solve_linear_rejects_a_float_in_any_row():
    for rows, rhs in [([[0.5, 0]], [1]), ([[1, 0]], [0.5])]:
        with pytest.raises(TypeError):
            solve_linear(rows, rhs)
    # [1, 0 | 1], [0, 1 | 2] and [0, 0 | 3] reach full rank 3, after which the
    # elimination reads no further row: a float in the next row is still refused
    for last_row, last_rhs in [([0.5, 0], 0), ([1, 0], 0.5)]:
        with pytest.raises(TypeError):
            solve_linear([[1, 0], [0, 1], [0, 0], last_row], [1, 2, 3, last_rhs])


@pytest.mark.parametrize("call, message", [
    (lambda: vsub(vector([1]), vector([1, 2])), "dimension mismatch"),
    (lambda: solve_linear([[1]], [1, 2]), "row/rhs length mismatch"),
    (lambda: solve_linear([[1, 2], [1]], [0, 0]), "dimension mismatch"),
    (lambda: solve_linear([[1, 2]], [0], ncols=3), "ncols disagrees with row width"),
])
def test_vector_and_solver_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_span_rank_examples():
    rank, picked = span_rank([vector([1, 0]), vector([2, 0]), vector([0, 1])])
    assert rank == 2 and picked == [0, 2]
    assert span_rank([zero_vector(3)]) == (0, [])


def test_span_rank_matches_pivot_count():
    rng = random.Random(24601)
    for _ in range(40):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        rows = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(k)]
        sol = solve_linear(rows, [Q(0)] * k, ncols=n)
        pivots = n - len(sol.kernel_basis)
        assert span_rank(rows)[0] == pivots


def _span_rank_reference(vectors):
    # greedy basis by Gauss-Jordan on Fractions
    basis, picked = [], []
    for i, raw in enumerate(vectors):
        w = list(vector(raw))
        for bv, pc in basis:
            if w[pc] != 0:
                f = w[pc]
                w = [x - f * y for x, y in zip(w, bv)]
        pivot = next((j for j, x in enumerate(w) if x != 0), None)
        if pivot is not None:
            w = [x / w[pivot] for x in w]
            basis.append((w, pivot))
            picked.append(i)
    return len(picked), picked


def test_span_rank_matches_fraction_reference():
    rng = random.Random(8128)
    past_full_rank = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        gens = [[Q(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(n)] for _ in range(rng.randint(1, n))]
        rows = []
        for _ in range(rng.randint(0, 3 * n)):
            kind = rng.randrange(5)
            if kind == 0:
                row = [0] * n
            elif kind == 1 and rows:
                s = Q(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
                row = [s * x for x in rng.choice(rows)]
            elif kind == 2:
                # in the span of a few generators, so the rank stays below n
                cs = [rng.randint(-2, 2) for _ in gens]
                row = [sum(c * g[j] for c, g in zip(cs, gens)) for j in range(n)]
            elif kind == 3:
                row = [Q(rng.randint(-6, 6), 3) for _ in range(n)]
            else:
                row = [rng.randint(-2, 2) for _ in range(n)]
            rows.append(rng.choice([list, vector])(row))
        expected = _span_rank_reference(rows)
        assert span_rank(rows) == expected
        if expected[0] == n and len(rows) > expected[1][-1] + 1:
            past_full_rank += 1
    assert past_full_rank > 20


def test_separator_orthogonality_forced():
    n = generic_separator([vector([1, 0]), vector([0, 1])], vector([1, 0]))
    assert inner(vector([1, 0]), n) == 0
    assert inner(vector([0, 1]), n) != 0


def test_separator_all_nonzero():
    pts = [vector([1, 0]), vector([0, 1]), vector([1, 1])]
    n = generic_separator(pts, zero_vector(2))
    assert all(inner(s, n) != 0 for s in pts)


def test_separator_dim1_everything_on_the_line():
    assert generic_separator([vector([2])], vector([1])) == (Q(1),)


def test_separator_rejects_empty_or_mismatched():
    with pytest.raises(ValueError):
        generic_separator([], zero_vector(2))
    with pytest.raises(ValueError):
        generic_separator([vector([1, 0])], vector([1]))


def _on_line(s, p):
    if is_zero(p):
        return is_zero(s)
    j = next(i for i, c in enumerate(p) if c != 0)
    return s == vscale(s[j] / p[j], p)


def test_separator_set_equality_and_determinism():
    rng = random.Random(777)
    dims = set()
    for _ in range(200):
        dim = rng.randint(1, 5)
        pts = [
            vector([Q(rng.randint(-2, 2), rng.choice([1, 1, 2])) for _ in range(dim)])
            for _ in range(rng.randint(1, 6))
        ]
        p = vector([rng.randint(-1, 1) for _ in range(dim)])
        if rng.random() < 0.5:
            pts.append(vscale(Q(rng.randint(-3, 3), 2), p))
        n1 = generic_separator(pts, p)
        assert generic_separator(pts, p) == n1
        if dim == 1 and not is_zero(p):
            # everything is on the line; nothing is separable
            continue
        for s in pts:
            assert (inner(s, n1) == 0) == _on_line(s, p)
        dims.add(dim)
    assert dims == {1, 2, 3, 4, 5}
