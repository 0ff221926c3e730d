"""Per-job output checks, with the benchmark's own group-ring arithmetic.

``check(job, returncode, stdout, stderr)`` returns ``None`` when the job's
output is correct and a one-line reason otherwise.  The checks decide
correctness from the meaning of the output (verdicts, type names, identity
flags, a quotient that multiplies back), not from its exact bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm


def _scale(vectors) -> int:
    d = 1
    for v in vectors:
        for c in v:
            d = lcm(d, Fraction(c).denominator)
    return d


def _key(v, scale: int) -> tuple[int, ...]:
    return tuple(int(Fraction(c) * scale) for c in v)


def multiply(a: dict, b: dict) -> dict:
    """Product of two integer-keyed group-ring elements (key -> coefficient)."""
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def product_of_factors(keys, dim: int) -> dict:
    """prod_k (1 - e^k) over integer keys, one factor per listed key."""
    acc = {(0,) * dim: 1}
    for k in keys:
        acc = multiply(acc, {(0,) * dim: 1, tuple(k): -1})
    return acc


def quotient_multiplies_back(support: dict, expansion: dict) -> str | None:
    """Does expansion * prod_{m<0} (1-e^v)^|m| equal prod_{m>0} (1-e^v)^m?"""
    entries = [(item["v"], int(item["mult"])) for item in support["support"]]
    terms = expansion["terms"]
    scale = _scale([v for v, _ in entries] + [t["v"] for t in terms])
    dim = int(support["dim"])
    if int(expansion["dim"]) != dim:
        return "quotient has the wrong dimension"
    pos = [_key(v, scale) for v, m in entries for _ in range(max(m, 0))]
    neg = [_key(v, scale) for v, m in entries for _ in range(max(-m, 0))]
    quotient = {_key(t["v"], scale): int(t["c"]) for t in terms}
    if multiply(quotient, product_of_factors(neg, dim)) != product_of_factors(pos, dim):
        return "quotient times the divisors differs from the positive expansion"
    return None


def _check_denominator(job, out) -> str | None:
    if out.get("name") != job["name"]:
        return f"name {out.get('name')!r}, expected {job['name']!r}"
    if out.get("equal") is not True:
        return "denominator identity reported unequal"
    if out.get("weyl_order") != job["order"]:
        return f"weyl_order {out.get('weyl_order')}, expected {job['order']}"
    return None


def _check_macdonald(job, out) -> str | None:
    if out.get("name") != job["name"] or out.get("cutoff") != job["cutoff"]:
        return "macdonald output names another instance"
    if out.get("equal_up_to_C") is not True:
        return "truncated identity reported unequal"
    return None


def _check_finite(job, out) -> str | None:
    accept = job["accept"]
    if out.get("on_sphere") is not accept:
        return f"on_sphere {out.get('on_sphere')}, expected {accept}"
    if (out.get("fit") is not None) is not accept:
        return "sphere fit present/absent against the verdict"
    axioms_pass = all(out.get("axioms", {}).get(k) is True for k in ("fr1", "fr2", "fr3", "fr4", "fr5"))
    axiomatic = axioms_pass and out.get("multiplicities_ok") is True and out.get("support_disjoint") is True
    if axiomatic is not accept:
        return f"axiomatic route says {axiomatic}, expected {accept}"
    if accept and out.get("type") != job["name"]:
        return f"type {out.get('type')!r}, expected {job['name']!r}"
    return None


def _check_affine(job, out) -> str | None:
    if out.get("on_paraboloid") is not True or out.get("fit") is None:
        return "generated affine system not on a paraboloid"
    axioms = out.get("axioms_at_level", {})
    if not all(axioms.get(k) is True for k in ("ar1", "ar2", "ar3", "ar4", "ar5", "irreducible")):
        return "affine axioms failed on a generated system"
    for k in ("real_multiplicities_ok", "multiplicities_ok", "levels_arithmetic", "irreducible"):
        if out.get(k) is not True:
            return f"{k} is not true on a generated system"
    return None


def _check_classify(job, out) -> str | None:
    if out.get("type") != job["name"]:
        return f"type {out.get('type')!r}, expected {job['name']!r}"
    return None


def _check_expand(job, out) -> str | None:
    return quotient_multiplies_back(job["support"], out)


def _check_remark210(job, out) -> str | None:
    if out.get("fit") is None:
        return "remark 2.10 expansion not on a sphere"
    if out.get("axioms_pass") is not False:
        return "remark 2.10 support passes the root axioms"
    return quotient_multiplies_back(out["support"], out["expansion"])


def check(job: dict, returncode: int | None, stdout: str, stderr: str) -> str | None:
    """None if the job behaved as expected, else the reason it failed."""
    if returncode is None:
        return "timed out"
    if returncode != job["exit"]:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return f"exit {returncode}, expected {job['exit']}: {tail[0][:200]}"
    if job["exit"] != 0:
        if job["stderr"] not in stderr:
            return f"stderr lacks {job['stderr']!r}"
        return None
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if job["cmd"] == "denominator":
        return _check_denominator(job, out)
    if job["cmd"] == "macdonald":
        return _check_macdonald(job, out)
    if job["cmd"] == "classify":
        return _check_classify(job, out)
    if job["cmd"] == "check":
        return _check_affine(job, out) if "--mode" in job["argv"] else _check_finite(job, out)
    if job["cmd"] == "expand":
        return _check_expand(job, out)
    if job["cmd"] == "counterexample":
        return _check_remark210(job, out)
    return f"no check for command {job['cmd']!r}"
