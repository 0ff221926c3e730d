"""Run the rootsphere CLI with a span around each listed library function.

Usage: ``python perfbench/tracer.py SPANS_FILE <cli arguments...>``

The library is not modified.  Each listed function is wrapped, and the
wrapper is rebound under every name that holds the original object in any
loaded ``rootsphere.*`` module, so calls through ``from .x import f`` names
are traced too.  Spans stay in memory and are written to SPANS_FILE as JSON
when the CLI returns.  The process exits with the CLI's exit code.

This module also holds the span arithmetic (self time and per-function
totals) that the benchmark applies to the collected spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict


def _first(args, kwargs):
    if args:
        return args[0]
    return next(iter(kwargs.values()))


def _size(x) -> int:
    terms = getattr(x, "terms", None)
    return len(terms if terms is not None else x)


# Counters read from a traced call:
# function -> (counter names, (args, kwargs, result) -> counter values).
COUNTERS = {
    "finite_root.enumerate_weyl": (("elements",), lambda a, k, r: (len(r),)),
    "finite_root.denominator_rhs": (("terms_out",), lambda a, k, r: (_size(r),)),
    "affine_root.affine_weyl_rhs": (("terms_out",), lambda a, k, r: (_size(r),)),
    "finite_root.check_axioms": (("pairs",), lambda a, k, r: (len(_first(a, k).roots) ** 2,)),
    "affine_root.check_affine_axioms": (("pairs",), lambda a, k, r: ((2 * r.real_count) ** 2,)),
    "affine_root.enumerate_support": (("items",), lambda a, k, r: (len(r),)),
    "quadric.fit_sphere": (("points", "found"), lambda a, k, r: (len(_first(a, k)), int(r is not None))),
    "quadric.fit_paraboloid": (("points", "found"), lambda a, k, r: (len(_first(a, k)), int(r is not None))),
    "exact.solve_linear": (("rows",), lambda a, k, r: (len(_first(a, k)),)),
    "exact.span_rank": (("vectors",), lambda a, k, r: (len(_first(a, k)),)),
    "exact.generic_separator": (("points",), lambda a, k, r: (len(_first(a, k)),)),
    "group_ring.exact_divide": (
        ("dividend_terms", "quotient_terms"),
        lambda a, k, r: (_size(_first(a, k)), _size(r)),
    ),
    "group_ring.expand_product": (("factors", "terms_out"), lambda a, k, r: (len(_first(a, k).entries), _size(r))),
    "group_ring.truncated_product": (("terms_out",), lambda a, k, r: (_size(r),)),
}

# The traced functions, as <module>.<function> under the rootsphere package.
TRACED = (
    "finite_root.enumerate_weyl",
    "finite_root.denominator_rhs",
    "affine_root.affine_weyl_rhs",
    "finite_root.check_axioms",
    "affine_root.check_affine_axioms",
    "affine_root.enumerate_support",
    "finite_root.characterize_finite",
    "affine_root.characterize_affine",
    "quadric.fit_sphere",
    "quadric.fit_paraboloid",
    "exact.solve_linear",
    "exact.span_rank",
    "exact.generic_separator",
    "finite_root.positive_roots",
    "finite_root.base",
    "finite_root.classify",
    "group_ring.exact_divide",
    "group_ring.expand_product",
    "group_ring.truncated_product",
    "catalog.standard_finite",
    "catalog.untwisted_affine",
    "cli.main",
)


class Recorder:
    """In-memory span list; one open-span stack, since the CLI is single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        names, counter = COUNTERS.get(name, ((), None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "id": len(self.spans), "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                try:
                    span["counters"] = dict(zip(names, counter(args, kwargs, result)))
                except (TypeError, AttributeError, StopIteration):
                    span["counters"] = {}
            return result

        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every TRACED function; returns the names not found in the library."""
    import rootsphere

    for info in pkgutil.iter_modules(rootsphere.__path__):
        importlib.import_module(f"rootsphere.{info.name}")
    modules = [m for n, m in sorted(sys.modules.items()) if n == "rootsphere" or n.startswith("rootsphere.")]
    missing = []
    for name in TRACED:
        mod, fn_name = name.rsplit(".", 1)
        original = getattr(sys.modules.get(f"rootsphere.{mod}"), fn_name, None)
        if original is None:
            missing.append(name)
            continue
        wrapper = recorder.wrap(name, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
    return missing


def _key(span: dict, span_id) -> tuple:
    # span ids restart at 0 in every job process, so a span is named by (job, id)
    return span.get("job"), span_id


def self_times(spans: list[dict]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover (ns)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[_key(s, s["parent"])].append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered, reach = 0, s["start"]
        for a, b in sorted(children[_key(s, s["id"])]):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out.append(s["end"] - s["start"] - covered)
    return out


def totals(spans: list[dict]) -> dict:
    """Per function: calls, self and total (inclusive) time in seconds, summed counters.

    Total time counts a span only when no span of the same function encloses
    it, so recursion is not counted twice.
    """
    out: dict = {name: defaultdict(float) for name in TRACED}
    by_key = {_key(s, s["id"]): s for s in spans}
    for s, self_ns in zip(spans, self_times(spans)):
        t = out.setdefault(s["name"], defaultdict(float))
        t["calls"] += 1
        t["self_s"] += self_ns / 1e9
        if not _has_ancestor(s, by_key):
            t["total_s"] += (s["end"] - s["start"]) / 1e9
        for k, v in s.get("counters", {}).items():
            t[k] += v
    return {name: dict(t) for name, t in out.items()}


def _has_ancestor(span: dict, by_key: dict) -> bool:
    """Is the span nested in another span of the same function?"""
    parent = span["parent"]
    while parent is not None:
        outer = by_key[_key(span, parent)]
        if outer["name"] == span["name"]:
            return True
        parent = outer["parent"]
    return False


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    missing = install(recorder)
    import rootsphere.cli

    try:
        code = rootsphere.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"missing": missing, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
