"""
Self-tests of the benchmark itself (not of the library).

    python3 bench/selftest.py

1. Inputs are process-stable: two processes with different PYTHONHASHSEED
   values draw identical inputs for every workload.
2. Traced runs repeat: two `--trace 1` runs with the same seed give identical
   exact counts, and each one's traced outputs match its untraced outputs.
3. The metric names a run prints are exactly the ones BENCHMARK.json lists.
4. Without the library sources next to it, the runner exits non-zero and
   prints no result.

Exits with status 1 if any check fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
INPUT_OPS = 24
EXACT_SUFFIXES = (".calls", ".distinct_frac", ".scalar_mults", ".terms_out",
                  ".peak_terms", ".bytes")


def inputs_digest(seed: int) -> str:
    """Digest of the first inputs of every workload, in canonical text."""
    from run import import_library
    from workloads import WORKLOADS

    gh = import_library()
    h = hashlib.sha256()
    for name, cls in WORKLOADS.items():
        workload = cls(gh, seed, {"seed": seed, "export": {}})
        try:
            for i in range(INPUT_OPS):
                inp = workload.make_input(i)
                if name == "assoc":
                    text = " | ".join(x.to_string() for x in inp)
                elif name == "modules":
                    text = f"{inp[0]}: " + ",".join(str(c) for c in inp[1])
                else:
                    text = " ".join(inp[:3])
                h.update(f"{name} {i} {text}\n".encode())
        finally:
            workload.close()
    return h.hexdigest()


def _run(args, env=None, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, text=True,
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=600)


def check_hash_seed_stability() -> list[str]:
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = _run([str(Path(__file__).resolve()), "--inputs-digest", "7"], env=env)
        if proc.returncode != 0:
            return [f"input digest process failed: {proc.stderr.strip()}"]
        digests.append(proc.stdout.strip())
    return [] if digests[0] == digests[1] else [f"inputs differ across PYTHONHASHSEED: {digests}"]


def _result(proc):
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip())
    return json.loads(proc.stdout.splitlines()[-1])


def check_traced_repeat(benchmark: dict) -> list[str]:
    problems = []
    declared = [m["name"] for m in benchmark["per_layer"]]
    for workload in ("assoc", "modules", "export"):
        args = ["bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", "1"]
        first, second = _result(_run(args)), _result(_run(args))
        for result in (first, second):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: traced run not correct: {result['failed']} failed")
        if list(first["metrics"]) != declared:
            problems.append(f"{workload}: per-layer metric names differ from BENCHMARK.json")
        for name, metric in first["metrics"].items():
            if name.endswith(EXACT_SUFFIXES) and metric != second["metrics"][name]:
                problems.append(f"{workload}: {name} differs: {metric['value']} vs "
                                f"{second['metrics'][name]['value']}")
    return problems


def check_end_to_end_names(benchmark: dict) -> list[str]:
    result = _result(_run(["bench/run.py", "--workload", "assoc", "--seconds", "1"]))
    declared = [m["name"] for m in benchmark["end_to_end"]]
    if sorted(result["metrics"]) != sorted(declared):
        return [f"end-to-end metric names {sorted(result['metrics'])} != {sorted(declared)}"]
    return [] if result["correct"] else ["untraced assoc run not correct"]


def check_bare_directory() -> list[str]:
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
        proc = _run(["bench/run.py", "--workload", "assoc", "--seconds", "1"], cwd=tmp)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory run exited {proc.returncode} with output {proc.stdout!r}"]
    return []


def main(argv) -> int:
    if argv[:1] == ["--inputs-digest"]:
        print(inputs_digest(int(argv[1])))
        return 0
    with open(ROOT / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    checks = [("inputs stable across PYTHONHASHSEED", check_hash_seed_stability),
              ("end-to-end metric names", lambda: check_end_to_end_names(benchmark)),
              ("traced runs repeat exactly", lambda: check_traced_repeat(benchmark)),
              ("no result without the library", check_bare_directory)]
    failed = False
    for label, check in checks:
        problems = check()
        print(f"{'ok  ' if not problems else 'FAIL'} {label}")
        for problem in problems:
            print(f"     {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
