"""Tests of the benchmark's own code: generator, output checks, span arithmetic.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    def inputs(seed):
        jobs, files = workloads.build(workload, seed)
        return json.dumps(jobs, sort_keys=True), {n: workloads.encode(d) for n, d in files.items()}

    assert inputs(7) == inputs(7)
    if workload != "identities":
        assert inputs(7)[1] != inputs(8)[1]


def test_positive_systems_are_halves_with_seed_independent_heights():
    roots = workloads._roots("B4")
    heights = []
    for seed in (1, 2, 3):
        f = workloads.generic_functional(workloads.random.Random(seed), roots)
        pos = workloads.positive_system(roots, f)
        assert len(pos) * 2 == len(roots)
        assert not set(pos) & {tuple(-c for c in a) for a in pos}
        heights.append([workloads._dot(a, f) for a in pos])
    assert heights[0] == heights[1] == heights[2]


def _job(workload, job_id, seed=3):
    jobs, files = workloads.build(workload, seed)
    job = next(j for j in jobs if j["id"] == job_id)
    if "support" in job:
        job = dict(job, support=files[job["support"]])
    return job


def _quotient_json(support):
    """The exact quotient of a divisible support: (1 - e^(2a)) / (1 - e^a) = 1 + e^a."""
    entries = {tuple(int(c) for c in item["v"]): int(item["mult"]) for item in support["support"]}
    zero = (0,) * support["dim"]
    quotient = {zero: 1}
    for v, m in entries.items():
        half = tuple(c // 2 for c in v)
        if m < 0:
            continue
        if all(c % 2 == 0 for c in v) and entries.get(half) == -1:
            factor = {zero: 1, half: 1}
        else:
            factor = {zero: 1, v: -1}
        quotient = checks.multiply(quotient, factor)
    terms = [{"v": [str(c) for c in k], "c": str(c)} for k, c in sorted(quotient.items())]
    return {"dim": support["dim"], "terms": terms}


def test_expand_check_accepts_the_quotient_and_rejects_one_changed_coefficient():
    job = _job("division", "expand-A3-k3")
    out = _quotient_json(job["support"])
    assert checks.check(job, 0, json.dumps(out), "") is None
    bad = copy.deepcopy(out)
    bad["terms"][3]["c"] = str(int(bad["terms"][3]["c"]) + 1)
    assert "differs" in checks.check(job, 0, json.dumps(bad), "")


def test_finite_check_rejects_a_flipped_verdict_and_a_wrong_type():
    from rootsphere.finite_root import characterize_finite, finite_verdict_to_json
    from rootsphere.group_ring import support_map_from_json

    job = _job("verdicts", "check-A4-pos")
    _, files = workloads.build("verdicts", 3)
    out = finite_verdict_to_json(characterize_finite(support_map_from_json(files["finite-A4-pos.json"])))
    assert checks.check(job, 0, json.dumps(out), "") is None
    assert checks.check(job, 0, json.dumps(dict(out, on_sphere=False)), "") is not None
    assert "type" in checks.check(job, 0, json.dumps(dict(out, type="D4")), "")
    drop = _job("verdicts", "check-A4-drop")
    assert checks.check(drop, 0, json.dumps(out), "") is not None


def test_other_checks_reject_corrupted_outputs():
    affine = _job("verdicts", "check-affine-A2@6")
    good = {"on_paraboloid": True, "fit": {}, "real_multiplicities_ok": True, "multiplicities_ok": True,
            "levels_arithmetic": True, "irreducible": True,
            "axioms_at_level": {k: True for k in ("ar1", "ar2", "ar3", "ar4", "ar5", "irreducible")}}
    assert checks.check(affine, 0, json.dumps(good), "") is None
    assert checks.check(affine, 0, json.dumps(dict(good, on_paraboloid=False)), "") is not None

    classify = _job("verdicts", "classify-E8")
    assert checks.check(classify, 0, '{"type": "E8"}', "") is None
    assert checks.check(classify, 0, '{"type": "E7"}', "") is not None

    denominator = _job("identities", "denominator-F4")
    good = {"name": "F4", "equal": True, "weyl_order": 1152}
    assert checks.check(denominator, 0, json.dumps(good), "") is None
    assert checks.check(denominator, 0, json.dumps(dict(good, weyl_order=1151)), "") is not None
    assert checks.check(denominator, 0, json.dumps(dict(good, equal=False)), "") is not None

    macdonald = _job("identities", "macdonald-A2@6")
    good = {"name": "A2", "cutoff": "6", "equal_up_to_C": True}
    assert checks.check(macdonald, 0, json.dumps(good), "") is None
    assert checks.check(macdonald, 0, json.dumps(dict(good, equal_up_to_C=False)), "") is not None

    nondiv = _job("division", "expand-A4-nondiv")
    assert checks.check(nondiv, 2, "", "error: not divisible\n") is None
    assert checks.check(nondiv, 0, "{}", "") is not None
    assert checks.check(nondiv, None, "", "") == "timed out"


def test_self_time_of_nested_spans():
    spans = [
        {"name": "a", "id": 0, "parent": None, "start": 0, "end": 100},
        {"name": "b", "id": 1, "parent": 0, "start": 10, "end": 30},
        {"name": "a", "id": 2, "parent": 0, "start": 40, "end": 70},
        {"name": "c", "id": 3, "parent": 2, "start": 50, "end": 60},
    ]
    assert tracer.self_times(spans) == [50, 20, 20, 10]
    t = tracer.totals(spans)
    assert t["a"]["calls"] == 2
    assert t["a"]["self_s"] == pytest.approx(70e-9)
    assert t["a"]["total_s"] == pytest.approx(100e-9)  # the nested call is not counted twice
    assert t["c"]["total_s"] == pytest.approx(10e-9)


def test_span_ids_are_per_job():
    one_job = [
        {"name": "a", "id": 0, "parent": None, "start": 0, "end": 100},
        {"name": "b", "id": 1, "parent": 0, "start": 10, "end": 30},
    ]
    two_jobs = [dict(s, job="j1") for s in one_job] + [dict(s, job="j2") for s in one_job]
    assert tracer.self_times(two_jobs) == [80, 20, 80, 20]
    assert tracer.totals(two_jobs)["a"]["total_s"] == pytest.approx(200e-9)


def test_recorder_links_parents_and_takes_any_signature():
    rec = tracer.Recorder()
    inner = rec.wrap("inner", lambda *args, **kwargs: len(args) + len(kwargs))
    outer = rec.wrap("outer", lambda x, y=0: inner(x, y, z=1))
    assert outer(1, y=2) == 3
    assert [(s["name"], s["parent"]) for s in rec.spans] == [("outer", None), ("inner", 0)]
    own = tracer.self_times(rec.spans)
    assert 0 <= own[0] <= rec.spans[0]["end"] - rec.spans[0]["start"]


def test_tracer_runs_the_cli_and_records_library_spans(tmp_path):
    spans_file = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, tracer.__file__, str(spans_file), "denominator", "A2"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["equal"] is True
    data = json.loads(spans_file.read_text())
    assert data["missing"] == []
    names = {s["name"] for s in data["spans"]}
    assert {"cli.main", "finite_root.denominator_rhs", "finite_root.enumerate_weyl"} <= names
    # denominator_rhs is reached through the name cli.py imported, so it nests under cli.main
    by_id = {s["id"]: s for s in data["spans"]}
    rhs = next(s for s in data["spans"] if s["name"] == "finite_root.denominator_rhs")
    assert by_id[rhs["parent"]]["name"] == "cli.main"
