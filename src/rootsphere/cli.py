"""JSON command-line front end for the library.

Each command maps its parsed arguments to one JSON object, which main
writes once, to stdout or to --output.  Exit codes: 0 on success, 2 on an
input or resource error (message on stderr), 3 on a verdict mismatch.
Nothing of the library loads before the arguments are parsed: this module
imports only argparse and sys, and each command imports the modules it
runs, so --help loads no library module, expand of a file loads only
exact and group_ring, and classify of a file only exact and finite_root.
"""

from __future__ import annotations

import argparse
import sys


class CliError(ValueError):
    pass


def rational(text: str):
    """A cutoff, given by --cutoff or read from a file, as a Fraction; argparse names this function in its error."""
    from . import exact

    return exact.rational(text)


def _load_json(path: str, prefix: str) -> dict:
    """The JSON object in the file path, for a command that reads a file or prefix + NAME.

    Each caller reads its own catalog prefix first, so a path with a catalog
    prefix here names the other one, and the error names what the command reads.
    """
    if path.startswith(("catalog:", "catalog-affine:")):
        raise CliError(f"this command reads {prefix}NAME or a file, not {path}")
    import json

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise CliError("input must be a JSON object")
    return data


def _emit(data: dict, output: str | None) -> None:
    import json

    text = json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _one_source(args) -> str:
    given = [s for s in (args.source, args.input) if s]
    if len(given) != 1:
        raise CliError("exactly one input source is required")
    return given[0]


def _finite_map(src: str):
    """The support map of src; a file's multiplicities are summed per vector and may be negative."""
    from .group_ring import SupportMap, support_map_from_json

    if src.startswith("catalog:"):
        from .catalog import standard_finite

        entry = standard_finite(src[len("catalog:"):])
        return SupportMap(entry.ambient_dim, {a: 1 for a in entry.positive})
    return support_map_from_json(_load_json(src, "catalog:"), signed=True)


def _affine_spec(src: str, cutoff):
    """The affine support of src; --cutoff overrides the cutoff a generated file carries.

    An explicit file carries its own cutoff, so --cutoff with one is refused.
    """
    if src.startswith("catalog-affine:"):
        name, grading = src[len("catalog-affine:"):], None
    else:
        from .affine_root import affine_vector_from_json, explicit_spec_from_json
        from .exact import json_field

        data = _load_json(src, "catalog-affine:")
        kind = data.get("kind", "explicit")
        if kind not in ("explicit", "generated"):
            raise CliError('input: field "kind" must be "explicit" or "generated"')
        if kind == "explicit":
            if cutoff is not None:
                raise CliError("--cutoff does not apply to an explicit affine file, which carries its own cutoff")
            return explicit_spec_from_json(data)
        name = json_field(data, "name")
        if not isinstance(name, str):
            raise CliError('input: field "name" must be a string')
        grading = affine_vector_from_json(data["grading"], "grading") if "grading" in data else None
        if cutoff is None and data.get("cutoff") is not None:
            cutoff = json_field(data, "cutoff", coerce=rational)
    if cutoff is None:
        raise CliError("--cutoff is required for affine input")
    from .catalog import untwisted_affine

    return untwisted_affine(name, cutoff, grading)


def _weyl_bound(args) -> int:
    """--weyl-bound, or the library's DEFAULT_WEYL_BOUND when it is not given."""
    from .finite_root import DEFAULT_WEYL_BOUND

    return DEFAULT_WEYL_BOUND if args.weyl_bound is None else args.weyl_bound


def _cmd_expand(args) -> dict:
    from .group_ring import element_to_json, expand_product

    m = _finite_map(_one_source(args))
    if m.entries and not any(v > 0 for v in m.entries.values()):
        raise CliError("a signed support needs at least one positive multiplicity")
    return element_to_json(expand_product(m))


def _cmd_check(args) -> dict:
    src = _one_source(args)
    if args.mode == "affine":
        from .affine_root import affine_verdict_to_json, characterize_affine

        return affine_verdict_to_json(characterize_affine(_affine_spec(src, args.cutoff)))
    if args.cutoff is not None:
        raise CliError("--cutoff applies only to --mode affine")
    from .finite_root import characterize_finite, finite_verdict_to_json

    return finite_verdict_to_json(characterize_finite(_finite_map(src)))


def _cmd_classify(args) -> dict:
    from .finite_root import classify, root_system_from_json

    src = _one_source(args)
    if src.startswith("catalog:"):
        from .catalog import standard_finite

        rs = standard_finite(src[len("catalog:"):]).roots
    else:
        rs = root_system_from_json(_load_json(src, "catalog:"))
    return {"type": classify(rs)}


def _cmd_denominator(args) -> dict:
    from .catalog import standard_finite
    from .finite_root import denominator_rhs
    from .group_ring import SupportMap, expand_product

    entry = standard_finite(args.name)
    # group side first: its size gate must fire before any large expansion
    rhs = denominator_rhs(entry.positive, _weyl_bound(args))
    lhs = expand_product(SupportMap(entry.ambient_dim, {a: 1 for a in entry.positive}))
    return {
        "name": entry.name,
        "lhs_terms": len(lhs),
        "rhs_terms": len(rhs),
        "equal": lhs == rhs,
        "weyl_order": len(rhs),
    }


def _cmd_macdonald(args) -> dict:
    from collections import Counter
    from operator import mul

    from .affine_root import affine_weyl_rhs
    from .exact import Q, _common_denominator, _int_key
    from .group_ring import truncated_product

    spec = _affine_spec("catalog-affine:" + args.name, args.cutoff)
    factors = [(av.flatten(), mult) for av, mult in spec.items]
    grading = spec.grading.flatten()
    lhs = truncated_product(factors, grading, spec.cutoff)
    rhs = affine_weyl_rhs(spec, _weyl_bound(args))
    # a key k of lhs at scale s has grade <k, g>/(s*d), g the grading times d
    d = _common_denominator([grading])
    g = _int_key(grading, d)
    counts = Counter(sum(map(mul, k, g)) for k in lhs._ints)
    per_grade = {str(Q(n, lhs._scale * d)): c for n, c in counts.items()}
    return {
        "name": spec.name,
        "cutoff": str(spec.cutoff),
        "equal_up_to_C": lhs == rhs,
        "term_count_per_grade": per_grade,
    }


def _cmd_counterexample(args) -> dict:
    from .catalog import remark29_exponents, remark210_counterexample, series_inversion_oracle

    if args.which == "remark29":
        kmax = 6 if args.kmax is None else args.kmax
        exponents = remark29_exponents(kmax)
        oracle = series_inversion_oracle(kmax)
        return {"exponents": exponents, "oracle": oracle, "agree": exponents == oracle}
    if args.kmax is not None:
        raise CliError("--kmax applies only to remark29")
    from .exact import vneg
    from .finite_root import RootSystem, axiom_report_to_json, check_axioms
    from .group_ring import element_to_json, support_map_to_json
    from .quadric import sphere_fit_to_json

    m, expansion, fit = remark210_counterexample()
    report = check_axioms(RootSystem(m.dim, (*m.entries, *map(vneg, m.entries))))
    return {
        "support": support_map_to_json(m),
        "expansion": element_to_json(expansion),
        "fit": sphere_fit_to_json(fit),
        "axioms": axiom_report_to_json(report),
        "axioms_pass": report.all_pass(),
    }


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rootsphere",
        description="Exact sphere and paraboloid tests for multiplicative support expansions.",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write JSON here instead of stdout")
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("source", nargs="?", help="input file, catalog:NAME, or catalog-affine:NAME")
    source.add_argument("--input", help="input file (alternative to the positional source)")
    sub = p.add_subparsers(dest="cmd", required=True)

    def command(name, fn, summary, *parents):
        sp = sub.add_parser(name, help=summary, parents=[*parents, output])
        sp.set_defaults(fn=fn)
        return sp

    command("expand", _cmd_expand, "expand a product over a support map", source)

    sp = command("check", _cmd_check, "sphere or paraboloid characterization", source)
    sp.add_argument("--mode", choices=("finite", "affine"), default="finite")
    sp.add_argument("--cutoff", type=rational, default=None)

    command(
        "classify",
        _cmd_classify,
        "name the isomorphism type of a root system; a set that is not one exits 2",
        source,
    )

    sp = command("denominator", _cmd_denominator, "compare both sides of the product identity")
    sp.add_argument("name", help="catalog name, e.g. A2")
    sp.add_argument(
        "--weyl-bound",
        type=int,
        default=None,
        help="fail with 'group too large' when the classified group order (checked before the walk) "
        "or the number of group elements walked passes this",
    )

    sp = command("macdonald", _cmd_macdonald, "compare the truncated affine identity")
    sp.add_argument("name", help="catalog name, e.g. A1")
    sp.add_argument("--cutoff", type=rational, default=None)
    sp.add_argument(
        "--weyl-bound",
        type=int,
        default=None,
        help="fail with 'group too large' once more group elements than this have grade <= cutoff",
    )

    sp = command("counterexample", _cmd_counterexample, "built-in boundary examples")
    sp.add_argument("which", choices=("remark29", "remark210"))
    sp.add_argument("--kmax", type=int, default=None)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    from .exact import GroupTooLargeError, VerdictMismatchError

    try:
        _emit(args.fn(args), args.output)
    except VerdictMismatchError as exc:
        print(f"internal verdict disagreement: {exc}", file=sys.stderr)
        return 3
    except (GroupTooLargeError, ValueError, ArithmeticError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
