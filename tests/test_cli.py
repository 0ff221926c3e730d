"""Command-line behavior: JSON in, JSON out, deterministic bytes, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import rootsphere
from rootsphere.affine_root import (
    ExplicitAffineSupport,
    GeneratedAffineSupport,
    characterize_affine,
    enumerate_support,
    explicit_spec_to_json,
)
from rootsphere.catalog import untwisted_affine
from rootsphere.cli import main
from rootsphere.exact import AffineVector, Q, affine
from rootsphere.finite_root import (
    RootSystem,
    VerdictMismatchError,
    WeylElement,
    characterize_finite,
    root_system_to_json,
)
from rootsphere.group_ring import GroupRingElement, SignedSupportMap, SupportMap, support_map_to_json


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_json(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


def test_expand_catalog(capsys):
    code, out, err = run(capsys, "expand", "catalog:A2")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["dim"] == 3
    assert len(data["terms"]) == 6


def test_expand_deterministic_bytes(capsys):
    _, out1, _ = run(capsys, "expand", "catalog:A2")
    _, out2, _ = run(capsys, "expand", "catalog:A2")
    assert out1 == out2


def test_expand_file(tmp_path, capsys):
    src = write_json(
        tmp_path, "m.json", support_map_to_json(SupportMap(1, {(Q(2),): 1}))
    )
    code, out, _ = run(capsys, "expand", src)
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"v": ["0"], "c": "1"}, {"v": ["2"], "c": "-1"}]


def test_expand_rejects_zero_key(tmp_path, capsys):
    src = write_json(tmp_path, "m.json", {"dim": 1, "support": [{"v": ["0"], "mult": 1}]})
    code, _, err = run(capsys, "expand", src)
    assert code == 2
    assert "m(0) must be 0" in err


def test_expand_signed_quotient(tmp_path, capsys):
    src = write_json(
        tmp_path,
        "m.json",
        {"dim": 1, "support": [{"v": ["2"], "mult": 1}, {"v": ["1"], "mult": -1}]},
    )
    code, out, _ = run(capsys, "expand", src)
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"v": ["0"], "c": "1"}, {"v": ["1"], "c": "1"}]


def test_expand_names_a_coefficient_too_long_to_print(tmp_path, capsys):
    # (1 - e^v)^15000 has coefficients C(15000, k); the first past the default limit of 4300 digits
    # for str(int) is at k = 5592, and the limit itself is left as it is
    src = write_json(tmp_path, "m.json", {"dim": 1, "support": [{"v": ["1"], "mult": 15000}]})
    code, out, err = run(capsys, "expand", src)
    assert (code, out) == (2, "")
    assert err == "error: expansion too large to print: the coefficient at v = (5592) has more than 4300 digits\n"
    assert sys.get_int_max_str_digits() == 4300


def test_check_rejects_signed(tmp_path, capsys):
    src = write_json(
        tmp_path,
        "m.json",
        {"dim": 1, "support": [{"v": ["2"], "mult": 1}, {"v": ["1"], "mult": -1}]},
    )
    code, _, err = run(capsys, "check", src)
    assert code == 2
    assert "nonnegative multiplicities" in err


def test_check_reads_the_sign_of_the_summed_multiplicities(tmp_path, capsys):
    # the two entries at (1, 0) cancel, so the map is {(0, 1): 1}: nonnegative
    cancelling = [{"v": ["1", "0"], "mult": 1}, {"v": ["1", "0"], "mult": -1}, {"v": ["0", "1"], "mult": 1}]
    src = write_json(tmp_path, "cancel.json", {"dim": 2, "support": cancelling})
    summed = write_json(tmp_path, "summed.json", {"dim": 2, "support": [{"v": ["0", "1"], "mult": 1}]})
    code, out, err = run(capsys, "check", src)
    assert (code, err) == (0, "")
    assert out == run(capsys, "check", summed)[1]
    assert json.loads(out)["on_sphere"] is True


def test_check_catalog_a2(capsys):
    code, out, _ = run(capsys, "check", "catalog:A2")
    assert code == 0
    data = json.loads(out)
    assert data["on_sphere"] is True
    assert data["type"] == "A2"
    assert data["fit"] == {"center": ["-1", "0", "1"], "radius_sq": "2"}
    assert data["multiplicities_ok"] is True


def test_check_of_the_empty_support_keeps_the_one_point_witness(tmp_path, capsys):
    # the one point 0 = rho_m: a sphere about rho_m would have radius 0, so the center is e_1
    code, out, err = run(capsys, "check", write_json(tmp_path, "empty.json", {"dim": 2, "support": []}))
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["fit"] == {"center": ["1", "0"], "radius_sq": "1"}
    assert (data["on_sphere"], data["recovered"], data["type"]) == (True, {"dim": 2, "roots": []}, None)
    code, out, err = run(capsys, "check", write_json(tmp_path, "dim0.json", {"dim": 0, "support": []}))
    assert (code, out, err) == (2, "", "error: no sphere in dimension 0: its one point has no center off it\n")


def test_check_file_negative(tmp_path, capsys):
    m = SupportMap(3, {(Q(1), Q(-1), Q(0)): 1, (Q(0), Q(1), Q(-1)): 1})
    src = write_json(tmp_path, "m.json", support_map_to_json(m))
    code, out, _ = run(capsys, "check", src)
    assert code == 0
    data = json.loads(out)
    assert data["on_sphere"] is False
    assert data["axioms"]["fr2"] is False


def test_check_affine_catalog(capsys):
    code, out, _ = run(capsys, "check", "catalog-affine:A1", "--mode", "affine", "--cutoff", "10")
    assert code == 0
    data = json.loads(out)
    assert data["on_paraboloid"] is True
    assert data["irreducible"] is True


def test_check_affine_needs_cutoff(capsys):
    code, _, err = run(capsys, "check", "catalog-affine:A1", "--mode", "affine")
    assert code == 2
    assert "--cutoff is required" in err


def test_check_affine_explicit_file(tmp_path, capsys):
    spec = untwisted_affine("A1", 2)
    ex = ExplicitAffineSupport(
        dim=spec.dim,
        items=tuple(enumerate_support(spec)),
        grading=spec.grading,
        cutoff=spec.cutoff,
    )
    src = write_json(tmp_path, "spec.json", explicit_spec_to_json(ex))
    code, out, _ = run(capsys, "check", src, "--mode", "affine")
    assert code == 0
    assert json.loads(out)["on_paraboloid"] is True


def test_check_affine_generated_file(tmp_path, capsys):
    src = write_json(tmp_path, "spec.json", {"kind": "generated", "name": "A1", "cutoff": "3"})
    code, out, _ = run(capsys, "check", src, "--mode", "affine")
    assert code == 0
    assert json.loads(out)["cutoff"] == "3"
    code, out, _ = run(capsys, "check", src, "--mode", "affine", "--cutoff", "4")
    assert code == 0
    assert json.loads(out)["cutoff"] == "4"


def test_classify_catalog(capsys):
    for name in ("D4", "E8"):
        code, out, _ = run(capsys, "classify", f"catalog:{name}")
        assert code == 0
        assert json.loads(out) == {"type": name}


def test_classify_file(tmp_path, capsys):
    rs = RootSystem(
        2, ((Q(1), Q(0)), (Q(-1), Q(0)), (Q(0), Q(1)), (Q(0), Q(-1)))
    )
    # G2's catalog roots in coordinates 1-3, then +-e_4 and +-e_5: a product named by descending rank
    g2a1a1 = {"dim": 5, "roots": [
        ["1", "-1", "0", "0", "0"], ["0", "1", "-1", "0", "0"], ["1", "0", "-1", "0", "0"],
        ["2", "-1", "-1", "0", "0"], ["-1", "2", "-1", "0", "0"], ["-1", "-1", "2", "0", "0"],
        ["-1", "1", "0", "0", "0"], ["0", "-1", "1", "0", "0"], ["-1", "0", "1", "0", "0"],
        ["-2", "1", "1", "0", "0"], ["1", "-2", "1", "0", "0"], ["1", "1", "-2", "0", "0"],
        ["0", "0", "0", "1", "0"], ["0", "0", "0", "-1", "0"], ["0", "0", "0", "0", "1"], ["0", "0", "0", "0", "-1"]]}
    for data, name in ((root_system_to_json(rs), "A1×A1"), (g2a1a1, "G2×A1×A1")):
        code, out, _ = run(capsys, "classify", write_json(tmp_path, "rs.json", data))
        assert code == 0
        assert json.loads(out) == {"type": name}


def test_classify_refuses_sets_that_are_not_root_systems(tmp_path, capsys):
    for roots, message in [
        ([["1", "0"], ["-1", "0"], ["0", "1"]], "not a root system"),
        ([["1", "0"], ["0", "1"], ["1", "1"]], "not a root system"),
        ([], "empty root set"),
    ]:
        src = write_json(tmp_path, "rs.json", {"dim": 2, "roots": roots})
        code, out, err = run(capsys, "classify", src)
        assert (code, out) == (2, "") and err == f"error: {message}\n", roots


def test_classify_unknown_name(capsys):
    code, _, err = run(capsys, "classify", "catalog:Z9")
    assert code == 2
    assert "unknown catalog name" in err


def test_catalog_names_take_ascii_digits_only(capsys):
    # str.isdigit takes the Arabic-Indic three and the superscript two
    for name in ("A\u0663", "A\u00b2"):
        assert run(capsys, "denominator", name) == (2, "", f"error: unknown catalog name: {name}\n"), name


def test_denominator_a2(capsys):
    code, out, _ = run(capsys, "denominator", "A2")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "name": "A2",
        "lhs_terms": 6,
        "rhs_terms": 6,
        "equal": True,
        "weyl_order": 6,
    }


def test_denominator_d4(capsys):
    code, out, _ = run(capsys, "denominator", "D4")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert data["weyl_order"] == 192


def test_denominator_huge_group_fails_fast(capsys):
    t0 = time.monotonic()
    code, _, err = run(capsys, "denominator", "E8")
    assert code == 2
    assert "group too large" in err
    assert time.monotonic() - t0 < 10


def test_macdonald_a1(capsys):
    code, out, _ = run(capsys, "macdonald", "A1", "--cutoff", "10")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "A1"
    assert data["cutoff"] == "10"
    assert data["equal_up_to_C"] is True
    assert data["term_count_per_grade"]["0"] == 1


def test_macdonald_weyl_bound(capsys):
    code, _, err = run(capsys, "macdonald", "A2", "--cutoff", "6", "--weyl-bound", "5")
    assert code == 2
    assert "group too large" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["denominator", "A2", "--weyl-bound", "-3"], "must be at least 1, not -3"),
        (["macdonald", "A1", "--cutoff", "2", "--weyl-bound", "0"], "must be at least 1, not 0"),
        (["denominator", "A2", "--weyl-bound", "x"], "invalid int value: 'x'"),
    ],
)
def test_a_weyl_bound_below_one_is_refused_when_parsed(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].endswith(f"error: argument --weyl-bound: {message}")


def test_check_e8_fails_fast_on_expansion_size(capsys):
    # the E8 expansion has |W(E8)| = 696729600 terms; the accumulator guard
    # must stop it after about a million, in seconds
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "catalog:E8")
    assert code == 2 and out == ""
    assert "expansion too large" in err
    assert time.perf_counter() - start < 60


def test_macdonald_rejects_nonpositive_cutoff(capsys):
    code, _, err = run(capsys, "macdonald", "A1", "--cutoff", "0")
    assert code == 2
    assert "cutoff must be positive" in err


def test_macdonald_needs_cutoff(capsys):
    code, _, err = run(capsys, "macdonald", "A1")
    assert code == 2
    assert "--cutoff is required" in err


def test_counterexample_remark29(capsys):
    code, out, _ = run(capsys, "counterexample", "remark29", "--kmax", "6")
    assert code == 0
    data = json.loads(out)
    assert data["exponents"] == [2, 1, 2, 3, 6, 9]
    assert data["agree"] is True
    code, _, err = run(capsys, "counterexample", "remark29", "--kmax", "0")
    assert code == 2
    assert "kmax" in err


def test_counterexample_remark29_refuses_a_kmax_above_its_limit(capsys, monkeypatch):
    import rootsphere.catalog as catalog_mod

    def no_oracle(kmax):
        raise AssertionError("ran the oracle")

    monkeypatch.setattr(catalog_mod, "series_inversion_oracle", no_oracle)
    code, out, err = run(capsys, "counterexample", "remark29", "--kmax", str(catalog_mod.MAX_REMARK29_KMAX + 1))
    assert (code, out) == (2, "")
    assert err == "error: kmax must be <= 1000\n"


def test_counterexample_remark210(capsys):
    code, out, _ = run(capsys, "counterexample", "remark210")
    assert code == 0
    data = json.loads(out)
    assert data["fit"]["radius_sq"] == "4"
    assert data["axioms_pass"] is False
    assert data["axioms"]["fr2"] is False
    assert len(data["expansion"]["terms"]) == 6


def test_output_file_matches_stdout(tmp_path, capsys):
    jobs = [
        ("expand", "catalog:A2"),
        ("check", "catalog:A2"),
        ("check", "catalog-affine:A1", "--mode", "affine", "--cutoff", "4"),
        ("classify", "catalog:B2"),
        ("denominator", "A2"),
        ("macdonald", "A1", "--cutoff", "4"),
        ("counterexample", "remark29"),
        ("counterexample", "remark210"),
    ]
    assert {argv[0] for argv in jobs} == {"expand", "check", "classify", "denominator", "macdonald", "counterexample"}
    for i, argv in enumerate(jobs):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        dest = tmp_path / f"out{i}.json"
        assert run(capsys, *argv, "--output", str(dest)) == (0, "", ""), argv
        assert dest.read_text(encoding="utf-8") == out, argv


def test_source_required(capsys):
    code, _, err = run(capsys, "expand")
    assert code == 2
    assert "exactly one input source" in err


def test_source_conflict(tmp_path, capsys):
    src = write_json(tmp_path, "m.json", support_map_to_json(SupportMap(1, {(Q(1),): 1})))
    code, _, err = run(capsys, "expand", src, "--input", src)
    assert code == 2
    assert "exactly one input source" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "expand", "/nonexistent/path.json")
    assert code == 2
    assert "error:" in err


def test_non_integer_multiplicity_is_an_error(tmp_path, capsys):
    src = write_json(
        tmp_path, "m.json", {"dim": 2, "support": [{"v": [1, 0], "mult": 1.9}, {"v": [0, 1], "mult": True}]}
    )
    for cmd in ("check", "expand"):
        code, out, err = run(capsys, cmd, src)
        assert code == 2 and out == ""
        assert err.startswith("error:")


def test_input_that_is_not_an_object_is_an_error(tmp_path, capsys):
    src = write_json(tmp_path, "list.json", [1, 2])
    for argv in (("check", src), ("expand", src), ("check", src, "--mode", "affine"), ("classify", src)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "input must be a JSON object" in err, argv


def test_missing_json_fields_are_named_with_their_place(tmp_path, capsys):
    cases = [
        (("check",), {"support": []}, 'input: missing field "dim"'),
        (("check",), {"dim": 1, "support": [{"v": [1]}]}, 'support[0]: missing field "mult"'),
        (("expand",), {"dim": 1, "support": [{"v": [1], "mult": 1}, {"mult": 1}]}, 'support[1]: missing field "v"'),
        (("check",), {"dim": 1, "support": [[1]]}, "support[0]: expected an object"),
        (("classify",), {"dim": 2}, 'input: missing field "roots"'),
        (("check", "--mode", "affine", "--cutoff", "2"), {"kind": "generated"}, 'input: missing field "name"'),
        (("check", "--mode", "affine"), {"kind": "generated", "name": 5, "cutoff": "2"}, 'input: field "name" must be a string'),
        (
            ("check", "--mode", "affine"),
            {"dim": 1, "items": [{"level": "1", "v": ["1"]}], "grading": {"level": "1", "v": ["0"]}, "cutoff": "2"},
            'items[0]: missing field "mult"',
        ),
        (
            ("check", "--mode", "affine"),
            {"dim": 1, "items": [], "grading": {"v": ["0"]}, "cutoff": "2"},
            'grading: missing field "level"',
        ),
        (
            ("expand",),
            {"dim": 2, "support": [{"v": "12", "mult": 1}]},
            "support[0]: expected a list of coordinates, not the string '12'",
        ),
        (("expand",), {"dim": 2, "support": 5}, 'input: field "support" must be a list'),
        (("classify",), {"dim": 2, "roots": "ab"}, 'input: field "roots" must be a list'),
        (("classify",), {"dim": 1, "roots": ["1"]}, "roots[0]: expected a list of coordinates, not the string '1'"),
        (
            ("check", "--mode", "affine"),
            {"dim": 1, "items": {}, "grading": {"level": "1", "v": ["0"]}, "cutoff": "2"},
            'input: field "items" must be a list',
        ),
        (
            ("expand",),
            {"dim": 1, "support": [{"v": ["1"], "mult": 1}, {"v": [1.5], "mult": 1}]},
            "support[1]: floating point is not allowed; use Fraction or str",
        ),
        (
            ("check", "--mode", "affine"),
            {
                "dim": 1,
                "items": [{"level": "1", "v": "1", "mult": 1}],
                "grading": {"level": "1", "v": ["0"]},
                "cutoff": "2",
            },
            "items[0]: expected a list of coordinates, not the string '1'",
        ),
        (
            ("check", "--mode", "affine"),
            {"dim": 1, "items": [], "grading": {"level": "1", "v": "0"}, "cutoff": "2"},
            "grading: expected a list of coordinates, not the string '0'",
        ),
        (
            ("check", "--mode", "affine"),
            {"kind": "generated", "name": "A1", "grading": {"level": "1", "v": "0"}, "cutoff": "2"},
            "grading: expected a list of coordinates, not the string '0'",
        ),
        # a number that is not one names its place too: a field of the input by its name, a field
        # of an entry by the entry
        (
            ("expand",),
            {"dim": 1, "support": [{"v": ["1"], "mult": "x"}]},
            "support[0]: Invalid literal for Fraction: 'x'",
        ),
        (("check",), {"dim": 1, "support": [{"v": ["1"], "mult": True}]}, "support[0]: a boolean is not an integer"),
        # a JSON true is no coordinate and no cutoff, though Fraction(True) is 1
        (("check",), {"dim": 1, "support": [{"v": [True], "mult": 1}]}, "support[0]: a boolean is not a number"),
        (
            ("check", "--mode", "affine"),
            {"kind": "generated", "name": "A1", "cutoff": True},
            "cutoff: a boolean is not a number",
        ),
        (
            ("expand",),
            {"dim": 1, "support": [{"v": ["1"], "mult": 1.5}]},
            "support[0]: floating point is not allowed; use Fraction or str",
        ),
        (("expand",), {"dim": "x", "support": []}, "dim: Invalid literal for Fraction: 'x'"),
        (("classify",), {"dim": "x", "roots": []}, "dim: Invalid literal for Fraction: 'x'"),
        (
            ("check", "--mode", "affine"),
            {"dim": 1, "items": [], "grading": {"level": "1/0", "v": ["0"]}, "cutoff": "2"},
            "grading: zero denominator: '1/0'",
        ),
        (
            ("check", "--mode", "affine"),
            {
                "dim": 1,
                "items": [{"level": "x", "v": ["1"], "mult": 1}],
                "grading": {"level": "1", "v": ["0"]},
                "cutoff": "2",
            },
            "items[0]: Invalid literal for Fraction: 'x'",
        ),
        (
            ("check", "--mode", "affine"),
            {
                "dim": 1,
                "items": [{"level": "1", "v": ["1"], "mult": "2/3"}],
                "grading": {"level": "1", "v": ["0"]},
                "cutoff": "2",
            },
            "items[0]: not an integer: '2/3'",
        ),
        (
            ("check", "--mode", "affine"),
            {"dim": 1, "items": [], "grading": {"level": "1", "v": ["0"]}, "cutoff": "x"},
            "cutoff: Invalid literal for Fraction: 'x'",
        ),
        (
            ("check", "--mode", "affine"),
            {"kind": "generated", "name": "A1", "cutoff": "1/0"},
            "cutoff: zero denominator: '1/0'",
        ),
        (
            ("check", "--mode", "affine"),
            {"kind": "generated", "name": "A1", "grading": {"level": "y", "v": ["1/2"]}, "cutoff": "2"},
            "grading: Invalid literal for Fraction: 'y'",
        ),
    ]
    for argv, data, message in cases:
        src = write_json(tmp_path, "in.json", data)
        code, out, err = run(capsys, *argv, src)
        assert (code, out, err) == (2, "", f"error: {message}\n"), (argv, data)


def _fresh_python(code: str) -> str:
    """stdout of code run by a new interpreter that sees only the standard library and this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rootsphere.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_cli_import_loads_no_dataclasses_or_inspect():
    out = _fresh_python("import sys, rootsphere.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert out.strip() == "[]"


def test_each_command_loads_only_its_modules(tmp_path):
    m = write_json(tmp_path, "m.json", support_map_to_json(SupportMap(2, {(Q(1), Q(0)): 1, (Q(0), Q(1)): 1})))
    rs = write_json(tmp_path, "rs.json", root_system_to_json(RootSystem(1, ((Q(1),), (Q(-1),)))))
    out = str(tmp_path / "out.json")
    parsing = {"rootsphere", "rootsphere.cli"}
    expanding = parsing | {"rootsphere.exact", "rootsphere.group_ring"}
    finite = expanding | {"rootsphere.quadric", "rootsphere.finite_root"}
    classifying = parsing | {"rootsphere.exact", "rootsphere.finite_root"}
    affine = expanding | {"rootsphere.finite_root", "rootsphere.catalog", "rootsphere.affine_root"}
    explicit = write_json(tmp_path, "explicit.json", EXPLICIT_A1)
    cases = [
        (["--help"], 0, parsing),
        (["no-such-command"], 2, parsing),
        (["expand", m, "--output", out], 0, expanding),
        (["expand", "catalog:B3", "--output", out], 0, expanding | {"rootsphere.finite_root", "rootsphere.catalog"}),
        (["check", m, "--output", out], 0, finite),
        (["check", "catalog:B3", "--output", out], 0, finite | {"rootsphere.catalog"}),
        (["classify", rs, "--output", out], 0, classifying),
        (["classify", "catalog:B2", "--output", out], 0, classifying | {"rootsphere.catalog"}),
        (["denominator", "A2", "--output", out], 0, expanding | {"rootsphere.finite_root", "rootsphere.catalog"}),
        (["macdonald", "A2", "--cutoff", "6", "--output", out], 0, affine),
        (["check", "catalog-affine:A2", "--mode", "affine", "--cutoff", "6", "--output", out], 0,
         affine | {"rootsphere.quadric"}),
        (["check", explicit, "--mode", "affine", "--output", out], 0,
         (affine - {"rootsphere.catalog"}) | {"rootsphere.quadric"}),
        (["counterexample", "remark29", "--output", out], 0, classifying | {"rootsphere.catalog"}),
        (["counterexample", "remark210", "--output", out], 0, finite | {"rootsphere.catalog"}),
    ]
    for argv, code, modules in cases:
        last = _fresh_python(
            "import sys\n"
            "from rootsphere.cli import main\n"
            "try:\n"
            f"    code = main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(code, *sorted(n for n in sys.modules if n.split('.')[0] == 'rootsphere'))\n"
            "print('json' in sys.modules, 'fractions' in sys.modules)"
        ).splitlines()[-2:]
        assert last[0].split() == [str(code), *sorted(modules)], argv
        if modules == parsing:
            assert last[1] == "False False", argv


def test_cutoff_type_error_and_the_library_weyl_bound(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["check", "catalog-affine:A1", "--mode", "affine", "--cutoff", "x"])
    assert exc.value.code == 2
    assert "invalid rational value: 'x'" in capsys.readouterr().err
    # without --weyl-bound the CLI reads the library's one default when the command runs
    monkeypatch.setattr("rootsphere.finite_root.DEFAULT_WEYL_BOUND", 5)
    for argv in (["denominator", "A3"], ["macdonald", "A2", "--cutoff", "6"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "group too large" in err, argv



def test_a_zero_denominator_is_an_input_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "catalog-affine:A1", "--mode", "affine", "--cutoff", "1/0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid rational value: '1/0'" in err and "Traceback" not in err
    src = write_json(tmp_path, "m.json", {"dim": 1, "support": [{"v": ["1/0"], "mult": 1}]})
    assert run(capsys, "expand", src) == (2, "", "error: support[0]: zero denominator: '1/0'\n")


@pytest.mark.parametrize(
    "argv, reads",
    [
        (("check", "catalog:A1", "--mode", "affine"), "catalog-affine:NAME"),
        (("expand", "catalog-affine:A1"), "catalog:NAME"),
        (("check", "catalog-affine:A1"), "catalog:NAME"),
        (("classify", "catalog-affine:A1"), "catalog:NAME"),
    ],
)
def test_a_catalog_prefix_of_the_other_kind_names_the_source_the_command_reads(capsys, argv, reads):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: this command reads {reads} or a file, not {argv[1]}\n")


EXPLICIT_A1 = {"dim": 1, "items": [{"level": "0", "v": ["1"], "mult": 1}], "grading": {"level": "1", "v": ["1/2"]}, "cutoff": "2"}


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (("check", "catalog:A2", "--cutoff", "3"), None, "--cutoff applies only to --mode affine"),
        (
            ("check", "FILE", "--mode", "affine", "--cutoff", "1"),
            EXPLICIT_A1,
            "--cutoff does not apply to an explicit affine file, which carries its own cutoff",
        ),
        (("counterexample", "remark210", "--kmax", "0"), None, "--kmax applies only to remark29"),
        (
            ("check", "FILE", "--mode", "affine"),
            {"kind": "generatd", "name": "A1", "cutoff": "3"},
            'input: field "kind" must be "explicit" or "generated"',
        ),
    ],
    ids=["finite-cutoff", "explicit-file-cutoff", "remark210-kmax", "unknown-kind"],
)
def test_a_flag_or_kind_the_command_would_ignore_is_refused(tmp_path, capsys, argv, data, message):
    if data is not None:
        argv = [write_json(tmp_path, "in.json", data) if a == "FILE" else a for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    if data is EXPLICIT_A1:
        # without the flag the file reads as it did, with its own cutoff
        code, out, _ = run(capsys, *argv[:-2])
        assert code == 0 and json.loads(out)["cutoff"] == "2"


def test_every_public_name_resolves_and_star_import_binds_them_all():
    out = _fresh_python(
        "import rootsphere\n"
        "ns = {}\n"
        "exec('from rootsphere import *', ns)\n"
        "print(len(rootsphere.__all__), [n for n in rootsphere.__all__ if ns.get(n) is not getattr(rootsphere, n)])"
    )
    assert out.strip() == f"{len(rootsphere.__all__)} []"
    assert len(set(rootsphere.__all__)) == len(rootsphere.__all__) == 55


def test_equal_records_compare_and_hash_equal():
    def twice(make):
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        return a, b

    for make in (
        lambda: RootSystem(1, ((Q(1),), (Q(-1),))),
        lambda: AffineVector(Q(1), (Q(1, 2), Q(0))),
        lambda: characterize_finite(SupportMap(2, {(Q(1), Q(0)): 1, (Q(0), Q(1)): 1, (Q(1), Q(1)): 1})),
        lambda: WeylElement((0, 1), 1, (2, 1), 1, ((Q(1),),)),
        lambda: ExplicitAffineSupport(1, ((affine(1, [1]), 1), (affine(1, [1]), 1)), affine(1, [0]), 2),
        lambda: GeneratedAffineSupport(1, ((1,), (-1,), ("-1",)), affine(1, ["1/2"]), 2, name="A1"),
    ):
        a, b = twice(make)
        assert hash(a) == hash(b) and len({a, b}) == 1 and b in {a}
    # the simple roots a Weyl element refers to take no part in equality or hash
    w = WeylElement((0,), -1, (1,), 1, ((Q(1),),))
    assert w == WeylElement((0,), -1, (1,), 1, ((Q(2),),)) and len({w, WeylElement((0,), -1, (1,), 1, ())}) == 1
    # a support map holds a dict, so it compares by value but is not hashable
    m, _ = twice(lambda: SupportMap(2, {(1, 0): 2}))
    assert m == SupportMap(2, {("1", "0"): 2})
    with pytest.raises(TypeError):
        hash(m)
    assert m != SignedSupportMap(2, {(1, 0): 2}) and m != SupportMap(3, {(1, 0, 0): 2})
    assert repr(RootSystem(1, ((Q(1),), (Q(-1),)))) == "RootSystem(dim=1, roots=((Fraction(-1, 1),), (Fraction(1, 1),)))"
    assert repr(AffineVector(Q(1), (Q(0),))) == "AffineVector(level=Fraction(1, 1), part=(Fraction(0, 1),))"
    s, _ = twice(lambda: SignedSupportMap(1, {(1,): -1}))
    with pytest.raises(TypeError, match="unhashable type: 'SignedSupportMap'"):
        hash(s)
    assert s != SignedSupportMap(1, {(1,): 1})
    # the repr of every value class
    for value, text in (
        (SupportMap(1, {(1,): 2}), "SupportMap(dim=1, entries={(Fraction(1, 1),): 2})"),
        (s, "SignedSupportMap(dim=1, entries={(Fraction(1, 1),): -1})"),
        (
            ExplicitAffineSupport(1, ((affine(1, [1]), 1),), affine(1, [0]), 2),
            "ExplicitAffineSupport(dim=1, items=((AffineVector(level=Fraction(1, 1), part=(Fraction(1, 1),)), 1),),"
            " grading=AffineVector(level=Fraction(1, 1), part=(Fraction(0, 1),)), cutoff=Fraction(2, 1))",
        ),
        (
            GeneratedAffineSupport(1, ((1,), (-1,)), affine(1, ["1/2"]), 2, name="A1"),
            "GeneratedAffineSupport(dim=1, roots=((Fraction(-1, 1),), (Fraction(1, 1),)),"
            " grading=AffineVector(level=Fraction(1, 1), part=(Fraction(1, 2),)), cutoff=Fraction(2, 1),"
            " period=Fraction(1, 1), name='A1')",
        ),
        (WeylElement((0,), -1, (1,), 1, ((Q(1),),)), "WeylElement(word=(0,), det=-1, key=(1,), scale=1)"),
        (GroupRingElement(1, {(1,): 2}), "GroupRingElement(dim=1, terms={(Fraction(1, 1),): 2})"),
    ):
        assert repr(value) == text


def test_finite_check_in_dimension_0_is_an_error(tmp_path, capsys):
    # the expansion is the constant 1, a single point of R^0, which lies on no sphere
    src = write_json(tmp_path, "m.json", {"dim": 0, "support": []})
    code, out, err = run(capsys, "check", src)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "dimension 0" in err
    code, out, err = run(capsys, "expand", src)
    assert code == 0 and json.loads(out) == {"dim": 0, "terms": [{"c": "1", "v": []}]}


def test_check_of_the_empty_support_names_no_type(tmp_path, capsys):
    # the empty set passes the axioms, so it is recovered, but classify has no type for it
    src = write_json(tmp_path, "m.json", {"dim": 2, "support": []})
    code, out, _ = run(capsys, "check", src)
    data = json.loads(out)
    assert code == 0 and data["on_sphere"] is True
    assert data["recovered"] == {"dim": 2, "roots": []} and data["type"] is None


def test_negative_dimension_is_named(tmp_path, capsys):
    src = write_json(tmp_path, "m.json", {"dim": -1, "support": []})
    for command in ("check", "expand"):
        code, out, err = run(capsys, command, src)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "dim" in err and "mismatch" not in err
    for build in (lambda: SupportMap(-1, {}), lambda: GroupRingElement(-1, {}), lambda: RootSystem(-2, ())):
        with pytest.raises(ValueError, match="dim must be >= 0"):
            build()


def test_verdict_mismatch_exit_code(capsys, monkeypatch):
    def boom(_):
        raise VerdictMismatchError("routes disagree")

    monkeypatch.setattr("rootsphere.finite_root.characterize_finite", boom)
    code, _, err = run(capsys, "check", "catalog:A2")
    assert code == 3
    assert "internal verdict disagreement" in err


def test_expand_signed_needs_a_positive_multiplicity(tmp_path, capsys):
    src = write_json(tmp_path, "m.json", {"dim": 1, "support": [{"v": ["1"], "mult": -1}, {"v": ["2"], "mult": -2}]})
    code, out, err = run(capsys, "expand", src)
    assert code == 2 and out == ""
    assert "needs at least one positive multiplicity" in err


def test_check_generated_affine_file_needs_cutoff(tmp_path, capsys):
    src = write_json(tmp_path, "gen.json", {"kind": "generated", "name": "A1"})
    code, out, err = run(capsys, "check", src, "--mode", "affine")
    assert code == 2 and out == ""
    assert "--cutoff is required" in err


def test_check_affine_levels_not_arithmetic(tmp_path, capsys):
    # ladders over +1 at levels 0, 1, 3 and over -1 at levels 1, 2: no
    # arithmetic progression of levels fits them, so decompose rejects them
    def av(level, x):
        return AffineVector(Q(level), (Q(x),))

    items = [(av(lv, 1), 1) for lv in (0, 1, 3)]
    items += [(av(lv, -1), 1) for lv in (1, 2)]
    items += [(av(lv, 0), 1) for lv in (1, 2, 3)]
    ex = ExplicitAffineSupport(dim=1, items=tuple(items), grading=av(1, Q(1, 4)), cutoff=Q(13, 4))
    v = characterize_affine(ex)
    assert not v.levels_arithmetic and not v.axiomatic_verdict() and not v.on_paraboloid
    src = write_json(tmp_path, "spec.json", explicit_spec_to_json(ex))
    code, out, err = run(capsys, "check", src, "--mode", "affine")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["levels_arithmetic"] is False
    assert data["on_paraboloid"] is False
    assert data["fit"] is None


# the files the pinned commands below read, written to tmp_path by the test
GOLDEN_INPUT_FILES = {
    # B2's positives with (1, 0) doubled: a support off every sphere
    "b2-double.json": {
        "dim": 2,
        "support": [
            {"v": ["-1", "1"], "mult": 1}, {"v": ["0", "1"], "mult": 1},
            {"v": ["2", "0"], "mult": 1}, {"v": ["1", "1"], "mult": 1},
        ],
    },
    # the one point of an empty S
    "empty-support.json": {"dim": 2, "support": []},
    # mixed denominators (common scale 6) with s and -s together, which flip into one factor
    "mixed.json": {
        "dim": 2,
        "support": [{"v": ["1/2", "0"], "mult": 1}, {"v": ["-1/2", "0"], "mult": 2}, {"v": ["1/3", "1"], "mult": 1}],
    },
}

# sha256 of the default stdout of each pinned command: a change of internal
# representation must leave the default JSON bytes as they are
GOLDEN_STDOUT_SHA256 = {
    ("expand", "catalog:B3"): "1291ad889a18166afe122720a7c5d6cb08e39050c5967bdd186dbb4062438e9a",
    ("check", "catalog:B3"): "7304539b8303e67c1866640341b3a95d5c4cd529fe117565cfd5b7ea33e5a1be",
    ("check", "catalog-affine:G2", "--mode", "affine", "--cutoff", "6"): (
        "9158f7d155814bfbd5ffbdf0d77226fadc15f14b8e9775d67d86160c1b2fc301"
    ),
    ("classify", "catalog:F4"): "8b872f38351ab6aeae63f5f22236a386875ab85e2373dbf462bd65599f59dfcc",
    ("denominator", "A3"): "7bc1686d3ea4773f8a9a2876e617f47b10808d60e49177f308ccdd261c258d1d",
    ("macdonald", "A2", "--cutoff", "4"): "0dd3b1e2512d9dd3b67cf65e0b0f69f39076041285fdd8a85e4cb404362dd186",
    # remark 2.10's fit reads the quotient's integer keys
    ("counterexample", "remark210"): "53d55a1cf070eb2f118e892beeb7d2b81df1ec40eb76b4f5e265d5ab03e2b61f",
    # the finite check's three paths (a sphere about rho_m, a support off every sphere and the
    # one point of an empty S), mixed denominators, then the other classical orbits and the
    # exceptional coordinates, each through its witness and recovered roots
    ("check", "catalog:D6"): "b1b1d21fd8d5550cb419e6ad6d3e3f1dd00439fc2a070cd147f9c2936ffcad55",
    ("check", "b2-double.json"): "80c779e18baa285552e21c31ac7afbc625cd5cd7ec44858ac1669934ef5a1cb2",
    ("check", "empty-support.json"): "2af5947d318ebba747db301b1e1ca8e93698054a4af6aa00233842394d93fcbc",
    ("check", "mixed.json"): "1944325beb3427035227b5a631f404574f108ccd7324bb77c8de8c8d0149a1c4",
    ("check", "catalog:A4"): "cf4b3c36d1d8047afd1f0bff7e340c63883a36531771ebfc60a225ea64a3b997",
    ("check", "catalog:B4"): "59d0973954adfd5222532db6a8e1d3c78c0fe28e55d0b455fecafa38a0169cb3",
    ("check", "catalog:C4"): "9fd3d46d1f7a381f4a01a0efa2b47b040bb21679477352390e7e97674b17dd4f",
    ("check", "catalog:F4"): "3e40e45b4fa783fd98c6032c6cf8b60699ce8081efe6d2208475c0b68bb35e4f",
    ("expand", "catalog:G2"): "bc48e5a840f64185383fe13deb2d079f86105d190eb4de49d723038a83adf984",
    # the largest sphere checks: E6, 51 840 points of rank 6 in 8 coordinates, and D7, whose
    # full expansion passes the accumulator limit, so the check builds half the flipped product
    ("check", "catalog:E6"): "085c5026c64e117e67f20ee929b4f2d4026dcab84233537b9e9d6be319881f70",
    ("check", "catalog:D7"): "0912692407a23410a450123dc48319126c9906ec425e6ed801e323f981c14ff4",
    # both Weyl sums: the finite orbit walk (F4, E6) and the graded affine one (G2)
    ("denominator", "F4"): "c2df21fc100e1f70b56fbe4b66fa68773fecf5172cbbbdc722b50198d55abe84",
    ("denominator", "E6"): "29d38e45daf8bb904535bbb4a5c97c8131f15f2c777d135f9fec830aae099a16",
    ("macdonald", "G2", "--cutoff", "6"): "d418a1a1ae5a13a91ffe36b05b1b203c016cb3b2938ec5d151cda37b9f87af40",
    # paraboloid fits of some 2 800 points (F4) and the exceptional affine coordinates
    ("check", "catalog-affine:F4", "--mode", "affine", "--cutoff", "4"): (
        "b89fb31801237f77c9115f790cbd8180cd703c8b3c464c211d311505e3a0f0e6"
    ),
    ("check", "catalog-affine:E7", "--mode", "affine", "--cutoff", "1"): (
        "e287daf08c66ac2535d94f12f2d52783a23f5d8f7f8a6b5ca5c8637e4a3f98a5"
    ),
    ("check", "catalog-affine:E8", "--mode", "affine", "--cutoff", "1/2"): (
        "f5e5fb224a5e8a2a0a919ae4c78238df7d0671abd7a597f8b05157ae1f32f6ba"
    ),
}


def test_default_stdout_bytes_are_pinned(tmp_path, capsys):
    files = {name: write_json(tmp_path, name, data) for name, data in GOLDEN_INPUT_FILES.items()}
    changed, outs = {}, {}
    for argv, digest in GOLDEN_STDOUT_SHA256.items():
        start = time.perf_counter()
        code, out, err = run(capsys, *(files.get(a, a) for a in argv))
        # every row, the largest included, within two minutes
        assert time.perf_counter() - start < 120, argv
        assert code == 0 and err == "", argv
        if hashlib.sha256(out.encode("utf-8")).hexdigest() != digest:
            changed[" ".join(argv)] = out[:200]
        outs[argv] = json.loads(out)
    assert changed == {}
    assert outs[("denominator", "E6")]["equal"] is True
    assert outs[("check", "catalog-affine:F4", "--mode", "affine", "--cutoff", "4")]["on_paraboloid"] is True
    # 0 is a point of D7's support, so its witness's radius_sq is |center|^2
    d7 = outs[("check", "catalog:D7")]
    assert (d7["on_sphere"], d7["type"]) == (True, "D7")
    assert Q(d7["fit"]["radius_sq"]) == sum(Q(x) ** 2 for x in d7["fit"]["center"])
