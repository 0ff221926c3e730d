"""End-to-end benchmark of the rootsphere CLI, with an optional per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload identities|verdicts|division \\
        --seed N --seconds S --trace 0|1 [--compare EARLIER_RESULT.json]

Load is a closed loop with one client: the benchmark starts one
``python -m rootsphere.cli ...`` process at a time, in a fixed job order, and
checks each output before starting the next.  It repeats passes over the
job list for about S seconds (at least one pass) and reports medians over
passes.  Inputs are generated from the seed by ``workloads.py``; the program
only sees the resulting files and arguments.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes; a traced pass runs each job under ``tracer.py`` and prints the
per-layer metrics, including the tracing overhead.  The full report goes to
stdout; its last line is one JSON object with the keys correct, attempted,
failed and metrics.  Result files, spans and generated inputs are written
under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

import workloads
from checks import check
from tracer import COUNTERS, TRACED, totals

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
TRACER = os.path.join(HERE, "tracer.py")
ENV = dict(os.environ, PYTHONPATH=SRC)  # the checkout's library, never an installed one

JOB_TIMEOUT_S = 60
SETUP_REPEATS = 7
COMMANDS = ("check", "classify", "expand", "denominator", "macdonald")

END_TO_END = {
    "wall_s": "s",
    "job_geomean_s": "s",
    "job_max_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
}


def run_process(cmd: list[str], stdout_path: str, stderr_path: str) -> dict:
    """Run one process to completion; wall time, max RSS and exit code (None on timeout)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=ENV)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], JOB_TIMEOUT_S)[0]
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {
        "seconds": seconds,
        "rss_mib": usage.ru_maxrss / 1024,
        "returncode": None if timed_out else proc.returncode,
        "stdout": stdout,
        "stderr": stderr,
    }


def output_digest(returncode, stdout: str) -> str:
    """Digest of a job's canonical output: exit code and key-sorted JSON."""
    try:
        canon = json.dumps(json.loads(stdout), sort_keys=True, separators=(",", ":"))
    except json.JSONDecodeError:
        canon = stdout
    return hashlib.sha256(f"{returncode}\n{canon}".encode()).hexdigest()


def run_pass(jobs: list[dict], work: str, traced: bool, missing: set) -> tuple[list[dict], list[dict]]:
    """One closed-loop pass: per-job records, and the spans of a traced pass.

    Traced functions that the library no longer defines are added to missing.
    """
    records, spans = [], []
    for job in jobs:
        out_file = os.path.join(work, "stdout")
        err_file = os.path.join(work, "stderr")
        spans_file = os.path.join(work, "spans.json")
        if traced:
            cmd = [sys.executable, TRACER, spans_file, *job["argv"]]
        else:
            cmd = [sys.executable, "-m", "rootsphere.cli", *job["argv"]]
        r = run_process(cmd, out_file, err_file)
        failure = check(job, r["returncode"], r["stdout"], r["stderr"])
        records.append({
            "id": job["id"],
            "cmd": job["cmd"],
            "seconds": r["seconds"],
            "rss_mib": r["rss_mib"],
            "returncode": r["returncode"],
            "out_bytes": len(r["stdout"].encode()),
            "digest": output_digest(r["returncode"], r["stdout"]),
            "failure": failure,
        })
        if traced and os.path.exists(spans_file):
            with open(spans_file, encoding="utf-8") as fh:
                data = json.load(fh)
            os.remove(spans_file)
            for s in data["spans"]:
                s["job"] = job["id"]
            spans.extend(data["spans"])
            missing.update(data["missing"])
    return records, spans


def pass_metrics(records: list[dict]) -> dict:
    times = [r["seconds"] for r in records]
    metrics = {
        "wall_s": sum(times),
        "job_geomean_s": math.exp(sum(math.log(t) for t in times) / len(times)),
        "job_max_s": max(times),
        "peak_rss_mib": max(r["rss_mib"] for r in records),
        "cli.out_bytes": sum(r["out_bytes"] for r in records),
    }
    for c in COMMANDS:
        metrics[f"cmd.{c}_s"] = sum(r["seconds"] for r in records if r["cmd"] == c)
    return metrics


def layer_metrics(spans: list[dict]) -> dict:
    """Flat per-layer metrics from one traced pass."""
    out = {}
    per_fn = totals(spans)
    for name in TRACED:
        t = per_fn[name]
        calls = t.get("calls", 0)
        out[f"{name}.calls"] = int(calls)
        out[f"{name}.self_s"] = t.get("self_s", 0.0)
        out[f"{name}.total_s"] = t.get("total_s", 0.0)
        for counter in COUNTERS.get(name, ((), None))[0]:
            if counter == "found":
                out[f"{name}.found_frac"] = t.get("found", 0) / calls if calls else 0.0
            else:
                out[f"{name}.{counter}"] = int(t.get(counter, 0))
    return out


def measure_setup() -> list[float]:
    """Times of a CLI process that only imports the package and prints --help."""
    work = os.path.join(OUT, "setup")
    os.makedirs(work, exist_ok=True)
    cmd = [sys.executable, "-m", "rootsphere.cli", "--help"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        r = run_process(cmd, os.path.join(work, "stdout"), os.path.join(work, "stderr"))
        if r["returncode"] != 0 or "usage" not in r["stdout"]:
            raise SystemExit(f"error: `rootsphere --help` failed: {r['stderr'].strip()[-300:]}")
        if i:  # the first run fills the bytecode cache
            times.append(r["seconds"])
    return times


def median_of(dicts: list[dict], key: str) -> float:
    return statistics.median(d[key] for d in dicts)


def compare_digests(current: dict, path: str) -> list[str]:
    """Report lines for a digest diff against an earlier result file."""
    with open(path, encoding="utf-8") as fh:
        earlier = json.load(fh)
    if (earlier.get("workload"), earlier.get("seed")) != (current["workload"], current["seed"]):
        return [f"  digest diff vs {path}: not comparable (other workload or seed)"]
    old, new = earlier.get("job_digests", {}), current["job_digests"]
    changed = sorted(j for j in new.keys() | old.keys() if old.get(j) != new.get(j))
    if not changed:
        return [f"  digest diff vs {path}: no job output changed"]
    return [f"  digest diff vs {path}: {len(changed)} job outputs changed (not counted as failures)"] + [
        f"    changed: {j}" for j in changed
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", help="earlier result file to diff output digests against")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rootsphere", "__init__.py")):
        print(f"error: no rootsphere package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    jobs, files = workloads.build(args.workload, args.seed)
    jobs = workloads.write_inputs(jobs, files, os.path.join(OUT, f"inputs-{tag}"))
    work = os.path.join(OUT, f"work-{tag}")
    os.makedirs(work, exist_ok=True)

    setup_times = measure_setup()
    plain, traced, spans_per_pass, rounds, missing = [], [], [], [], set()
    start = time.perf_counter()
    while True:  # start another round only if the slowest one so far still fits
        round_start = time.perf_counter()
        records, _ = run_pass(jobs, work, False, missing)
        plain.append(records)
        if args.trace:
            records, spans = run_pass(jobs, work, True, missing)
            traced.append(records)
            spans_per_pass.append(spans)
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + max(rounds) > args.seconds:
            break

    all_records = [r for records in plain + traced for r in records]
    failures = [r for r in all_records if r["failure"]]
    attempted = len(all_records)
    plain_metrics = [pass_metrics(records) for records in plain]
    summary = {k: median_of(plain_metrics, k) for k in plain_metrics[0]}
    summary["setup_s"] = statistics.median(setup_times)
    summary["ok_frac"] = 1 - len(failures) / attempted
    summary["failed_frac"] = len(failures) / attempted

    job_digests = {r["id"]: r["digest"] for r in plain[0]}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": hashlib.sha256("".join(job_digests.values()).encode()).hexdigest(),
        "job_digests": job_digests,
        "setup_times_s": setup_times,
        "passes": plain,
        "traced_passes": traced,
    }

    lines = [
        f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and {len(traced)} traced passes "
        f"of {len(jobs)} jobs; closed loop, one client; medians over passes",
    ]
    lines += [f"  {k:<16} {summary[k]:.6g} {unit}" for k, unit in END_TO_END.items()]
    lines.append(f"  {'failed_frac':<16} {summary['failed_frac']:.6g} frac")
    lines += [f"  {f'cmd.{c}_s':<16} {summary[f'cmd.{c}_s']:.6g} s" for c in COMMANDS]
    for r in failures:
        lines.append(f"  FAILED {r['id']}: {r['failure']}")
    if any({r["id"]: r["digest"] for r in records} != job_digests for records in plain + traced):
        lines.append("  note: job outputs differ between passes")
    lines.append(f"  output digest {result['digest']}")
    if args.compare:
        lines += compare_digests(result, args.compare)

    if args.trace:
        layers = [layer_metrics(spans) for spans in spans_per_pass]
        metrics = {k: median_of(layers, k) for k in layers[0]}
        for c in COMMANDS:
            metrics[f"cmd.{c}_s"] = summary[f"cmd.{c}_s"]
        metrics["cli.out_bytes"] = summary["cli.out_bytes"]
        traced_wall = statistics.median(pass_metrics(records)["wall_s"] for records in traced)
        metrics["trace.overhead_frac"] = traced_wall / summary["wall_s"] - 1
        units = {k: _layer_unit(k) for k in metrics}
        with open(os.path.join(OUT, f"spans-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(spans_per_pass, fh)
        if missing:
            lines.append(f"  not traced, missing from the library (their metrics read 0): {', '.join(sorted(missing))}")
        lines.append("  per-layer metrics (median over traced passes):")
        lines += [f"    {k:<48} {v:.6g} {units[k]}" for k, v in metrics.items()]
    else:
        units = END_TO_END
        metrics = {k: summary[k] for k in END_TO_END}
    result["metrics"] = metrics
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
