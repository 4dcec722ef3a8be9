#!/usr/bin/env python3
"""Record the final per-seed regrets that the sim workloads are checked against.

    python3 benchmarks/record_reference.py

Runs every (model seed, sim seed) pair in the pools of sim_large and
rounds_export once and writes benchmarks/reference.json. Run it only
when a change is meant to alter simulation results, and say so in that
change; the benchmark's correctness check is a comparison with this file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)


def main() -> int:
    out_dir = Path(tempfile.mkdtemp(prefix="record-", dir=ROOT / ".bench_out"))
    reference = {}
    try:
        for name in ("sim_large", "rounds_export"):
            wl = workloads.WORKLOADS[name](0, out_dir, {})
            table = reference[name] = {}
            for m, s in wl.pool:
                if name == "rounds_export":
                    code, result = wl.run((m, s))
                    if code != 0:
                        raise RuntimeError(f"{name} m={m} s={s}: exit code {code}")
                else:
                    result = wl.run(wl.config(m, s))
                table.setdefault(str(m), {})[str(s)] = workloads.final_regrets(result)
                print(name, m, s, table[str(m)][str(s)], flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    sys.exit(main())
