"""Command-line behavior: JSON in, JSON out, deterministic bytes, exit codes."""

import hashlib
import json
import time

import pytest

import rootsphere.cli as cli_mod
from rootsphere.affine_root import (
    ExplicitAffineSupport,
    characterize_affine,
    enumerate_support,
    explicit_spec_to_json,
)
from rootsphere.catalog import untwisted_affine
from rootsphere.cli import main
from rootsphere.exact import AffineVector, Q
from rootsphere.finite_root import RootSystem, VerdictMismatchError, root_system_to_json
from rootsphere.group_ring import SupportMap, support_map_to_json


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


def test_check_rejects_signed(tmp_path, capsys):
    src = write_json(
        tmp_path,
        "m.json",
        {"dim": 1, "support": [{"v": ["2"], "mult": 1}, {"v": ["1"], "mult": -1}]},
    )
    code, _, err = run(capsys, "check", src)
    assert code == 2
    assert "nonnegative multiplicities" in err


def test_check_catalog_a2(capsys):
    code, out, _ = run(capsys, "check", "catalog:A2")
    assert code == 0
    data = json.loads(out)
    assert data["on_sphere"] is True
    assert data["type"] == "A2"
    assert data["fit"] == {"center": ["-1", "0", "1"], "radius_sq": "2"}
    assert data["multiplicities_ok"] is True


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
    code, out, _ = run(capsys, "classify", "catalog:D4")
    assert code == 0
    assert json.loads(out) == {"type": "D4"}


def test_classify_file(tmp_path, capsys):
    rs = RootSystem(
        2, ((Q(1), Q(0)), (Q(-1), Q(0)), (Q(0), Q(1)), (Q(0), Q(-1)))
    )
    src = write_json(tmp_path, "rs.json", root_system_to_json(rs))
    code, out, _ = run(capsys, "classify", src)
    assert code == 0
    assert json.loads(out) == {"type": "A1×A1"}


def test_classify_unknown_name(capsys):
    code, _, err = run(capsys, "classify", "catalog:Z9")
    assert code == 2
    assert "unknown catalog name" in err


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


def test_counterexample_remark210(capsys):
    code, out, _ = run(capsys, "counterexample", "remark210")
    assert code == 0
    data = json.loads(out)
    assert data["fit"]["radius_sq"] == "4"
    assert data["axioms_pass"] is False
    assert data["axioms"]["fr2"] is False
    assert len(data["expansion"]["terms"]) == 6


def test_output_file_matches_stdout(tmp_path, capsys):
    _, out, _ = run(capsys, "expand", "catalog:A2")
    dest = tmp_path / "out.json"
    code, out2, _ = run(capsys, "expand", "catalog:A2", "--output", str(dest))
    assert code == 0
    assert out2 == ""
    assert dest.read_text(encoding="utf-8") == out


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


def test_verdict_mismatch_exit_code(capsys, monkeypatch):
    def boom(_):
        raise VerdictMismatchError("routes disagree")

    monkeypatch.setattr(cli_mod, "characterize_finite", boom)
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


# sha256 of the default stdout of one command per subcommand: a change of
# internal representation must leave the default JSON bytes as they are
GOLDEN_STDOUT_SHA256 = {
    ("expand", "catalog:B3"): "1291ad889a18166afe122720a7c5d6cb08e39050c5967bdd186dbb4062438e9a",
    ("check", "catalog:B3"): "7304539b8303e67c1866640341b3a95d5c4cd529fe117565cfd5b7ea33e5a1be",
    ("check", "catalog-affine:G2", "--mode", "affine", "--cutoff", "6"): (
        "9158f7d155814bfbd5ffbdf0d77226fadc15f14b8e9775d67d86160c1b2fc301"
    ),
    ("classify", "catalog:F4"): "8b872f38351ab6aeae63f5f22236a386875ab85e2373dbf462bd65599f59dfcc",
    ("denominator", "A3"): "7bc1686d3ea4773f8a9a2876e617f47b10808d60e49177f308ccdd261c258d1d",
    ("macdonald", "A2", "--cutoff", "4"): "0dd3b1e2512d9dd3b67cf65e0b0f69f39076041285fdd8a85e4cb404362dd186",
    ("counterexample", "remark210"): "53d55a1cf070eb2f118e892beeb7d2b81df1ec40eb76b4f5e265d5ab03e2b61f",
}


def test_default_stdout_bytes_are_pinned(capsys):
    changed = {}
    for argv, digest in GOLDEN_STDOUT_SHA256.items():
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "", argv
        if hashlib.sha256(out.encode("utf-8")).hexdigest() != digest:
            changed[" ".join(argv)] = out[:200]
    assert changed == {}
