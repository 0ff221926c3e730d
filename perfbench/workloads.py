"""Seeded job lists for the three benchmark workloads.

Each workload is a fixed-order list of CLI jobs.  A job is a dict with an
``id``, the CLI command name ``cmd``, its argument list ``argv`` (input files
are written by :func:`write_inputs`), the exit code it must end with, and
the fields its checker needs (see ``checks.py``).

Inputs depend only on the seed.  Positive systems are the roots positive on
an integer functional applied to the catalog's full root set
(``standard_finite(name).roots.roots``), never the catalog's own positive
convention, so they stay fixed when that convention changes.  The seed
moves an input to an equivalent one of the same size: a symmetry of the
root set (verdicts), or a scale of the lattice (division), plus the order
of the entries in each file.  Which roots a case modifies is chosen by
height, so it is the same root up to that symmetry for every seed.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

WORKLOADS = ("identities", "verdicts", "division")

# Group orders from the classification tables, kept here so the check does
# not trust the library for the number it verifies.
WEYL_ORDER = {"A4": 120, "B4": 384, "C4": 384, "D4": 192, "F4": 1152}

DENOMINATOR = ("A4", "B4", "C4", "D4", "F4")
MACDONALD = (("A1", 10), ("A2", 6), ("B2", 5), ("G2", 2), ("A3", 2))
FINITE_TYPES = ("A4", "C3", "B4", "D4")
FINITE_CASES = ("pos", "flip", "drop", "mult2", "double")
ACCEPTED_CASES = ("pos", "flip")
AFFINE = (("A1", 10), ("A2", 6), ("B2", 5), ("G2", 4), ("A3", 3))
CLASSIFY = ("E7", "E8")
DIVISIBLE = (("A3", 1), ("A3", 3), ("B3", 2), ("A4", 3), ("D4", 2))
NOT_DIVISIBLE = ("A3", "A4", "B3")


def _roots(name: str) -> list[tuple[Fraction, ...]]:
    from rootsphere.catalog import standard_finite

    return sorted(tuple(Fraction(c) for c in r) for r in standard_finite(name).roots.roots)


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def symmetry(rng: random.Random, roots) -> tuple[list[int], list[int]]:
    """A seeded signed coordinate permutation that maps the root set onto itself."""
    rset = set(roots)
    dim = len(roots[0])
    while True:
        perm = rng.sample(range(dim), dim)
        signs = [rng.choice((1, -1)) for _ in range(dim)]
        if {apply(perm, signs, r) for r in roots} == rset:
            return perm, signs


def apply(perm: list[int], signs: list[int], v) -> tuple:
    return tuple(signs[i] * v[perm[i]] for i in range(len(v)))


def base_functional(dim: int) -> tuple[int, ...]:
    return tuple(5 ** (dim - 1 - i) for i in range(dim))


def generic_functional(rng: random.Random, roots) -> tuple[int, ...]:
    """A seeded integer functional that vanishes on no root.

    It is the image of (5^(n-1), ..., 5, 1) under a seeded symmetry of the
    root set, so the heights <a, f> of the roots are distinct and do not
    depend on the seed: every seed gives an equivalent input of equal size,
    in other coordinates.
    """
    f = apply(*symmetry(rng, roots), base_functional(len(roots[0])))
    heights = [_dot(a, f) for a in roots]
    if 0 in heights or len(set(heights)) != len(heights):
        raise ValueError("functional is not generic on the roots")
    return f


def positive_system(roots, f) -> list:
    """The roots positive on f, by increasing height."""
    return sorted((a for a in roots if _dot(a, f) > 0), key=lambda a: _dot(a, f))


def spread_picks(pos: list, k: int) -> list:
    """k positive roots at evenly spaced heights."""
    return [pos[len(pos) * (j + 1) // (k + 1)] for j in range(k)]


def _scaled_roots(rng: random.Random, name: str) -> list[tuple[Fraction, ...]]:
    c = rng.randint(1, 9)
    return [tuple(c * x for x in r) for r in _roots(name)]


def _vec(v) -> list[str]:
    return [str(Fraction(c)) for c in v]


def support_json(rng: random.Random, dim: int, entries: list[tuple[tuple, int]]) -> dict:
    """A support map file, its entries in seeded order."""
    entries = rng.sample(entries, len(entries))
    return {"dim": dim, "support": [{"v": _vec(v), "mult": m} for v, m in entries]}


def finite_case(case: str, pos: list, a: tuple) -> list[tuple[tuple, int]]:
    """Support entries for one of the five finite cases, modifying root a."""
    rest = [(r, 1) for r in pos if r != a]
    if case == "pos":
        return [(r, 1) for r in pos]
    if case == "flip":
        return rest + [(tuple(-c for c in a), 1)]
    if case == "drop":
        return rest
    if case == "mult2":
        return rest + [(a, 2)]
    if case == "double":
        return rest + [(tuple(2 * c for c in a), 1)]
    raise ValueError(f"unknown case {case}")


def divisible_support(pos: list, chosen: list) -> list[tuple[tuple, int]]:
    """Each chosen root a becomes 2a with multiplicity +1 and a with -1."""
    out = [(r, 1) for r in pos if r not in chosen]
    for a in chosen:
        out += [(tuple(2 * c for c in a), 1), (a, -1)]
    return out


def _parallel(u, v) -> bool:
    j = next(i for i, c in enumerate(v) if c != 0)
    t = u[j] / v[j]
    return all(x == t * y for x, y in zip(u, v))


def non_root_direction(roots, pos) -> tuple:
    """The middle one, in height order, of the sums of two positive roots parallel to no root."""
    sums = []
    for i, a in enumerate(pos):
        for b in pos[i + 1 :]:
            s = tuple(x + y for x, y in zip(a, b))
            if any(s) and not any(_parallel(s, r) for r in roots):
                sums.append(s)
    return sums[len(sums) // 2]


def _identities() -> list[dict]:
    jobs = [
        {"id": f"denominator-{n}", "cmd": "denominator", "argv": ["denominator", n], "exit": 0,
         "name": n, "order": WEYL_ORDER[n]}
        for n in DENOMINATOR
    ]
    jobs += [
        {"id": f"macdonald-{n}@{c}", "cmd": "macdonald", "argv": ["macdonald", n, "--cutoff", str(c)],
         "exit": 0, "name": n, "cutoff": str(c)}
        for n, c in MACDONALD
    ]
    return jobs


def _verdicts(rng: random.Random) -> tuple[list[dict], dict]:
    jobs, files = [], {}
    for name in FINITE_TYPES:
        roots = _roots(name)
        pos = positive_system(roots, generic_functional(rng, roots))
        (a,) = spread_picks(pos, 1)
        for case in FINITE_CASES:
            fname = f"finite-{name}-{case}.json"
            files[fname] = support_json(rng, len(roots[0]), finite_case(case, pos, a))
            jobs.append({"id": f"check-{name}-{case}", "cmd": "check", "argv": ["check", fname], "exit": 0,
                         "name": name, "accept": case in ACCEPTED_CASES})
    for name, cutoff in AFFINE:
        roots = _roots(name)
        f = generic_functional(rng, roots)
        t = Fraction(1, 2 * max(abs(_dot(a, f)) for a in roots))
        fname = f"affine-{name}@{cutoff}.json"
        files[fname] = {"kind": "generated", "name": name, "cutoff": str(cutoff),
                        "grading": {"level": "1", "v": _vec(t * c for c in f)}}
        jobs.append({"id": f"check-affine-{name}@{cutoff}", "cmd": "check",
                     "argv": ["check", fname, "--mode", "affine"], "exit": 0})
    for name in CLASSIFY:
        roots = _roots(name)
        fname = f"roots-{name}.json"
        files[fname] = {"dim": len(roots[0]), "roots": [_vec(r) for r in roots]}
        jobs.append({"id": f"classify-{name}", "cmd": "classify", "argv": ["classify", fname], "exit": 0,
                     "name": name})
    return jobs, files


def _division(rng: random.Random) -> tuple[list[dict], dict]:
    """Signed supports over a seeded multiple of the root lattice.

    Here the seed scales the roots by a positive integer and orders the
    entries, but does not move the positive system by a symmetry: the time
    of exact division depends strongly on the coordinate frame (up to 4x
    between frames of one input), which would swamp a change between
    commits.  Scaling leaves the library's control flow unchanged.
    """
    jobs, files = [], {}
    for name, k in DIVISIBLE:
        roots = _scaled_roots(rng, name)
        pos = positive_system(roots, base_functional(len(roots[0])))
        chosen = spread_picks(pos, k)
        fname = f"divisible-{name}-k{k}.json"
        files[fname] = support_json(rng, len(roots[0]), divisible_support(pos, chosen))
        jobs.append({"id": f"expand-{name}-k{k}", "cmd": "expand", "argv": ["expand", fname], "exit": 0,
                     "support": fname})
    for name in NOT_DIVISIBLE:
        roots = _scaled_roots(rng, name)
        pos = positive_system(roots, base_functional(len(roots[0])))
        v = non_root_direction(roots, pos)
        fname = f"nondivisible-{name}.json"
        files[fname] = support_json(rng, len(roots[0]), [(r, 1) for r in pos] + [(v, -1)])
        jobs.append({"id": f"expand-{name}-nondiv", "cmd": "expand", "argv": ["expand", fname], "exit": 2,
                     "stderr": "not divisible"})
    jobs.append({"id": "counterexample-remark210", "cmd": "counterexample",
                 "argv": ["counterexample", "remark210"], "exit": 0})
    return jobs, files


def build(workload: str, seed: int) -> tuple[list[dict], dict]:
    """Jobs and input files (file name -> JSON data) of a workload for a seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "identities":
        return _identities(), {}
    if workload == "verdicts":
        return _verdicts(rng)
    if workload == "division":
        return _division(rng)
    raise ValueError(f"unknown workload {workload}")


def encode(data: dict) -> bytes:
    return (json.dumps(data, sort_keys=True, indent=1) + "\n").encode()


def write_inputs(jobs: list[dict], files: dict, directory: str) -> list[dict]:
    """Write the input files and return the jobs with file names made paths."""
    os.makedirs(directory, exist_ok=True)
    for fname, data in files.items():
        with open(os.path.join(directory, fname), "wb") as fh:
            fh.write(encode(data))
    out = []
    for job in jobs:
        job = dict(job, argv=[os.path.join(directory, a) if a in files else a for a in job["argv"]])
        if "support" in job:
            job["support"] = files[job["support"]]
        out.append(job)
    return out
