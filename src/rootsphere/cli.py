"""JSON command-line front end for the library.

The affine and catalog modules are imported by the commands that use them,
so a command loads only what it runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exact import integer, json_field, rational
from .finite_root import (
    DEFAULT_WEYL_BOUND,
    GroupTooLargeError,
    RootSystem,
    VerdictMismatchError,
    axiom_report_to_json,
    check_axioms,
    characterize_finite,
    classify,
    denominator_rhs,
    finite_verdict_to_json,
    root_system_from_json,
)
from .group_ring import (
    SignedSupportMap,
    SupportMap,
    element_to_json,
    expand_product,
    support_map_from_json,
    support_map_to_json,
    truncated_product,
)
from .quadric import sphere_fit_to_json


class CliError(ValueError):
    pass


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise CliError("input must be a JSON object")
    return data


def _emit(data: dict, output: str | None) -> None:
    text = json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _one_source(args) -> str:
    given = [s for s in (getattr(args, "source", None), args.input) if s]
    if len(given) != 1:
        raise CliError("exactly one input source is required")
    return given[0]


def _finite_map(src: str):
    if src.startswith("catalog:"):
        from .catalog import standard_finite

        entry = standard_finite(src[len("catalog:"):])
        return SupportMap(entry.ambient_dim, {a: 1 for a in entry.positive})
    data = _load_json(src)
    mults = (json_field(item, "mult", f"support[{i}]") for i, item in enumerate(data.get("support", ())))
    return support_map_from_json(data, signed=any(integer(c) < 0 for c in mults))


def _affine_spec(src: str, cutoff):
    from .affine_root import affine_vector_from_json, explicit_spec_from_json

    if src.startswith("catalog-affine:"):
        if cutoff is None:
            raise CliError("--cutoff is required for affine input")
        from .catalog import untwisted_affine

        return untwisted_affine(src[len("catalog-affine:"):], cutoff)
    data = _load_json(src)
    if data.get("kind") == "generated":
        c = cutoff if cutoff is not None else data.get("cutoff")
        if c is None:
            raise CliError("--cutoff is required for affine input")
        from .catalog import untwisted_affine

        grading = affine_vector_from_json(data["grading"], "grading") if "grading" in data else None
        return untwisted_affine(json_field(data, "name"), c, grading)
    return explicit_spec_from_json(data)


def _cmd_expand(args) -> None:
    m = _finite_map(_one_source(args))
    if isinstance(m, SignedSupportMap) and not any(v > 0 for v in m.entries.values()):
        raise CliError("a signed support needs at least one positive multiplicity")
    _emit(element_to_json(expand_product(m)), args.output)


def _cmd_check(args) -> None:
    src = _one_source(args)
    if args.mode == "affine":
        from .affine_root import affine_verdict_to_json, characterize_affine

        verdict = characterize_affine(_affine_spec(src, args.cutoff))
        _emit(affine_verdict_to_json(verdict), args.output)
        return
    m = _finite_map(src)
    if isinstance(m, SignedSupportMap):
        raise CliError("finite check needs nonnegative multiplicities")
    verdict = characterize_finite(m)
    _emit(finite_verdict_to_json(verdict), args.output)


def _cmd_classify(args) -> None:
    src = _one_source(args)
    if src.startswith("catalog:"):
        from .catalog import standard_finite

        rs = standard_finite(src[len("catalog:"):]).roots
    else:
        rs = root_system_from_json(_load_json(src))
    _emit({"type": classify(rs)}, args.output)


def _cmd_denominator(args) -> None:
    from .catalog import standard_finite

    entry = standard_finite(args.name)
    # group side first: its size gate must fire before any large expansion
    rhs = denominator_rhs(entry.positive, args.weyl_bound)
    lhs = expand_product(SupportMap(entry.ambient_dim, {a: 1 for a in entry.positive}))
    _emit(
        {
            "name": entry.name,
            "lhs_terms": len(lhs),
            "rhs_terms": len(rhs),
            "equal": lhs == rhs,
            "weyl_order": len(rhs),
        },
        args.output,
    )


def _cmd_macdonald(args) -> None:
    from .affine_root import affine_weyl_rhs, enumerate_support
    from .catalog import untwisted_affine

    if args.cutoff is None:
        raise CliError("--cutoff is required for affine input")
    spec = untwisted_affine(args.name, args.cutoff)
    factors = [(av.flatten(), mult) for av, mult in enumerate_support(spec)]
    lhs = truncated_product(factors, spec.grading.flatten(), spec.cutoff)
    rhs = affine_weyl_rhs(spec, args.weyl_bound)
    per_grade: dict[str, int] = {}
    for v in lhs.support():
        g = sum(c * n for c, n in zip(v, spec.grading.flatten()))
        per_grade[str(g)] = per_grade.get(str(g), 0) + 1
    _emit(
        {
            "name": spec.name,
            "cutoff": str(spec.cutoff),
            "equal_up_to_C": lhs == rhs,
            "term_count_per_grade": per_grade,
        },
        args.output,
    )


def _cmd_counterexample(args) -> None:
    from .catalog import remark29_exponents, remark210_counterexample, series_inversion_oracle

    if args.which == "remark29":
        exponents = remark29_exponents(args.kmax)
        oracle = series_inversion_oracle(args.kmax)
        _emit(
            {"exponents": exponents, "oracle": oracle, "agree": exponents == oracle},
            args.output,
        )
        return
    m, expansion, fit = remark210_counterexample()
    doubled = sorted({v for v in m.entries} | {tuple(-c for c in v) for v in m.entries})
    report = check_axioms(RootSystem(m.dim, tuple(doubled)))
    _emit(
        {
            "support": support_map_to_json(m),
            "expansion": element_to_json(expansion),
            "fit": sphere_fit_to_json(fit),
            "axioms": axiom_report_to_json(report),
            "axioms_pass": report.all_pass(),
        },
        args.output,
    )


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rootsphere",
        description="Exact sphere and paraboloid tests for multiplicative support expansions.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, source=True):
        if source:
            sp.add_argument("source", nargs="?", help="input file, catalog:NAME, or catalog-affine:NAME")
            sp.add_argument("--input", help="input file (alternative to the positional source)")
        sp.add_argument("--output", help="write JSON here instead of stdout")

    sp = sub.add_parser("expand", help="expand a product over a support map")
    common(sp)
    sp.set_defaults(fn=_cmd_expand)

    sp = sub.add_parser("check", help="sphere or paraboloid characterization")
    common(sp)
    sp.add_argument("--mode", choices=("finite", "affine"), default="finite")
    sp.add_argument("--cutoff", type=rational, default=None)
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("classify", help="name the isomorphism type of a root system")
    common(sp)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("denominator", help="compare both sides of the product identity")
    sp.add_argument("name", help="catalog name, e.g. A2")
    sp.add_argument(
        "--weyl-bound",
        type=int,
        default=DEFAULT_WEYL_BOUND,
        help="fail with 'group too large' when the classified group order (checked before the walk) "
        "or the number of group elements walked passes this",
    )
    sp.add_argument("--output")
    sp.set_defaults(fn=_cmd_denominator)

    sp = sub.add_parser("macdonald", help="compare the truncated affine identity")
    sp.add_argument("name", help="catalog name, e.g. A1")
    sp.add_argument("--cutoff", type=rational, default=None)
    sp.add_argument(
        "--weyl-bound",
        type=int,
        default=DEFAULT_WEYL_BOUND,
        help="fail with 'group too large' once more group elements than this have grade <= cutoff",
    )
    sp.add_argument("--output")
    sp.set_defaults(fn=_cmd_macdonald)

    sp = sub.add_parser("counterexample", help="built-in boundary examples")
    sp.add_argument("which", choices=("remark29", "remark210"))
    sp.add_argument("--kmax", type=int, default=6)
    sp.add_argument("--output")
    sp.set_defaults(fn=_cmd_counterexample)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.fn(args)
    except VerdictMismatchError as exc:
        print(f"internal verdict disagreement: {exc}", file=sys.stderr)
        return 3
    except GroupTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
