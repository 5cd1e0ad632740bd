"""
Benchmark of the gradedhecke library: one closed-loop client, one process.

    python3 bench/run.py --workload assoc --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload, untraced and traced

`--trace 0` runs whole rotations of ops until `--seconds` have passed and
reports the end-to-end metrics.  `--trace 1` runs a fixed block of ops
(its length scales with `--seconds`) twice on fresh algebras, untraced and
then traced, and reports the per-layer metrics.  Every op's outputs are
checked; with the default seed they are also compared with the digests in
reference_digests.json.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The library is imported from the `src/` directory next to this one and from
nowhere else; without it the run exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path

from tracing import PER_LAYER_METRICS, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, load_references

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# op_tail_ms is read at one fixed percentile per workload, so that two
# versions of the library are compared on the same statistic.  Each had at
# least ten samples beyond it in the baseline 40-second runs; every result
# prints how many samples it actually had beyond it.  See README.md.
TAIL_PERCENTILE = {"assoc": 90, "modules": 75, "export": 50}
SETUP_REPEATS = 3
# rotations in the traced block per second of --seconds
TRACE_ROTATIONS_PER_S = {"assoc": 1.0, "modules": 0.25, "export": 0.06}
MAX_REPORTED_FAILURES = 5

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def import_library():
    """Import gradedhecke from this checkout's src/, or exit with status 1."""
    if not (SRC / "gradedhecke" / "__init__.py").is_file():
        raise SystemExit(f"error: no gradedhecke sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gradedhecke

    if Path(gradedhecke.__file__).resolve().parent != SRC / "gradedhecke":
        raise SystemExit(f"error: gradedhecke was imported from {gradedhecke.__file__}")
    return gradedhecke


# ---------------------------------------------------------------------------
# the op loop
# ---------------------------------------------------------------------------

OpRecord = namedtuple("OpRecord", "label latency ok digest")


def run_ops(workload, seconds=None, count=None, tracer=None) -> list[OpRecord]:
    """Closed loop over whole rotations until the time or the op count is used up."""
    records = []
    failures = 0
    start = time.perf_counter()
    i = 0
    while True:
        if i % workload.rotation == 0:
            if count is not None and i >= count:
                break
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
        inp = workload.make_input(i)
        error = out = None
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = workload.run(inp)
        except Exception:  # an op that raises is a failed op; the loop goes on
            error = traceback.format_exc()
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        ok, digest = False, None
        if error is None:
            try:
                holds, digest, counts = workload.check(inp, out)
            except Exception:
                error = traceback.format_exc()
            else:
                expected = workload.reference(i)
                ok = holds and (expected is None or digest == expected)
                if not ok:
                    error = f"law check holds={holds}, digest {digest} expected {expected}"
                if tracer is not None:
                    for name, amount in counts.items():
                        tracer.add(name, amount)
        if not ok:
            failures += 1
            if failures <= MAX_REPORTED_FAILURES:
                print(f"op {i} ({workload.label(i)}) failed: {error}", file=sys.stderr)
        records.append(OpRecord(workload.label(i), latency, ok, digest))
        i += 1
    return records


def percentile(sorted_values, p):
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes
# ---------------------------------------------------------------------------

def setup_only(gh, args) -> int:
    """Child side of the set-up measurement: set up, say so, exit."""
    WORKLOADS[args.workload](gh, args.seed, load_references()).close()
    print("ready", flush=True)
    return 0


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to the point where its first op could run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up process failed with status {code}")
    return elapsed


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gradedhecke").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_info() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "git_commit": commit, "source_sha256": source_digest()}


def per_label(records) -> dict:
    out = {}
    for r in records:
        entry = out.setdefault(r.label, {"ops": 0, "mean_ms": 0.0})
        entry["ops"] += 1
        entry["mean_ms"] += 1000 * r.latency
    for entry in out.values():
        entry["mean_ms"] = round(entry["mean_ms"] / entry["ops"], 3)
    return out


def emit(info, correct, attempted, failed, metrics, units):
    print("info " + json.dumps(info, sort_keys=True))
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def run_untraced(gh, args) -> int:
    workload = WORKLOADS[args.workload](gh, args.seed, load_references())
    setup_times = [measure_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    try:
        records = run_ops(workload, seconds=args.seconds)
    finally:
        workload.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = sorted(r.latency for r in records)
    failed = sum(not r.ok for r in records)
    p = TAIL_PERCENTILE[args.workload]
    tail, beyond = percentile(latencies, p)
    metrics = {
        "ops_per_s": len(records) / sum(latencies),
        "op_p50_ms": 1000 * percentile(latencies, 50)[0],
        "op_tail_ms": 1000 * tail,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }
    info = dict(machine_info(), workload=args.workload, seed=args.seed, trace=0,
                seconds=args.seconds, ops=len(records), rotation=workload.rotation,
                tail_percentile=f"p{p}", tail_samples_beyond=beyond,
                digest_checked=sum(workload.reference(i) is not None
                                   for i in range(len(records))),
                setup_samples_s=[round(t, 4) for t in setup_times],
                per_algebra=per_label(records))
    print(f"op_tail_ms is p{p}, with {beyond} of {len(records)} samples beyond it"
          + ("" if beyond >= 10 else " (fewer than 10)"))
    emit(info, failed == 0, len(records), failed, metrics, END_TO_END_UNITS)
    return 0


def run_traced(gh, args) -> int:
    cls = WORKLOADS[args.workload]
    references = load_references()
    rotations = max(1, round(args.seconds * TRACE_ROTATIONS_PER_S[args.workload]))
    plain_workload = cls(gh, args.seed, references)
    count = rotations * plain_workload.rotation
    try:
        plain = run_ops(plain_workload, count=count)
    finally:
        plain_workload.close()
    del plain_workload

    tracer = Tracer()
    tracer.install(gh)
    try:
        tracer.active = True
        traced_workload = cls(gh, args.seed, references)
        tracer.active = False
        try:
            traced = run_ops(traced_workload, count=count, tracer=tracer)
        finally:
            traced_workload.close()
    finally:
        tracer.uninstall()

    failed = 0
    for i, (a, b) in enumerate(zip(plain, traced)):
        if not (a.ok and b.ok and a.digest == b.digest):
            failed += 1
            if a.digest != b.digest:
                print(f"op {i}: traced digest {b.digest} != untraced {a.digest}",
                      file=sys.stderr)
    overhead = sum(r.latency for r in traced) / sum(r.latency for r in plain) - 1
    metrics = tracer.metrics(overhead)
    units = {name: unit for name, (unit, _) in PER_LAYER_METRICS.items()}
    print("spans by self time (key, calls, self_s):")
    for key, calls, self_s in tracer.breakdown():
        print(f"  {key:48s} {calls:10d} {self_s:10.4f}")
    print("linalg.mat_mul.scalar_mults is computed as n*k*m per call")
    info = dict(machine_info(), workload=args.workload, seed=args.seed, trace=1,
                seconds=args.seconds, ops=count, rotation=len(cls.labels),
                digest_checked=sum(traced_workload.reference(i) is not None
                                   for i in range(count)),
                untraced_s=round(sum(r.latency for r in plain), 4),
                traced_s=round(sum(r.latency for r in traced), 4))
    emit(info, failed == 0, count, failed, metrics, units)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced and then traced."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"error: {name} trace={trace} exited with status {proc.returncode}",
                      file=sys.stderr)
                return 1
            results[f"{name}.trace{trace}"] = json.loads(lines[-1])
    print("== summary")
    for key, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{key:16s} {metric:44s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{key.split('.')[0]}.{metric}": m for key, r in results.items()
                    for metric, m in r["metrics"].items()}}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    gh = import_library()
    if args.setup_only:
        return setup_only(gh, args)
    return run_traced(gh, args) if args.trace else run_untraced(gh, args)


if __name__ == "__main__":
    raise SystemExit(main())
