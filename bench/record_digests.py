"""
Write reference_digests.json: the digests of the canonical outputs of the
first ops of each workload at the default seed.

    python3 bench/record_digests.py

Run it only on a commit whose outputs are the contract; the benchmark then
counts every op whose digest differs as failed.  Each op's own law checks
must hold while recording, or nothing is written.
"""

from __future__ import annotations

import json

from run import import_library, run_ops
from workloads import DEFAULT_SEED, REFERENCE_FILE, WORKLOADS

# More ops than a 40-second run reaches on the baseline machine.
ASSOC_OPS = 2000
MODULES_OPS = 300


def main() -> int:
    gh = import_library()
    empty = {"seed": DEFAULT_SEED, "export": {}}
    out = {"seed": DEFAULT_SEED}
    for name, count in (("assoc", ASSOC_OPS), ("modules", MODULES_OPS),
                        ("export", len(WORKLOADS["export"].labels))):
        workload = WORKLOADS[name](gh, DEFAULT_SEED, empty)
        try:
            records = run_ops(workload, count=count)
        finally:
            workload.close()
        bad = [i for i, r in enumerate(records) if not r.ok]
        if bad:
            raise SystemExit(f"error: {name} ops {bad[:10]} fail their law checks")
        if name == "export":
            out[name] = {r.label: r.digest for r in records}
        else:
            out[name] = [r.digest for r in records]
        print(f"{name}: {len(records)} digests", flush=True)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
