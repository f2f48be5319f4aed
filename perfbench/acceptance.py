#!/usr/bin/env python3
"""Run the workloads at acceptance scale and print their baseline.

Usage, from the repository root:

    python3 perfbench/acceptance.py

Each of the four cases runs at the configuration of
``tests/test_acceptance.py`` and at its pinned acceptance seed, the only
seed those thresholds are defined for: once untraced, for the end-to-end
time, and once traced, for the per-layer breakdown. Both runs must pass the acceptance thresholds and write
identical output. One JSON line per case is printed; the exit code is 1
when any check failed. This takes about five minutes on a 2-vCPU
machine, too long for the timed benchmark, which runs the same cases
scaled down (see README.md).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import CASES


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    if not (run.SRC / "shadowprobe" / "__init__.py").is_file():
        print(f"perfbench: no shadowprobe sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))

    ok = True
    for name in CASES:
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
            runner = run.Runner((CASES[name],), "acceptance", None, Path(tmp))
            plain = runner.run(traced=False)
            traced = runner.run(traced=True)
        problems = plain["problems"] + traced["problems"]
        ok = ok and not problems
        layers = {} if "tracer" not in traced else run.layer_values(
            traced["tracer"], traced["reports"])
        print(json.dumps({
            "case": name, "config": runner.configs[0],
            "run_s": plain.get("run_s"), "cpu_s": plain.get("cpu_s"),
            "traced_run_s": traced.get("run_s"),
            "steal_ticks": [plain["steal_ticks"], traced["steal_ticks"]],
            "problems": problems,
            "per_layer": {k: layers[k] for k in sorted(layers)},
        }), flush=True)
    print(json.dumps({"environment": run.environment()}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
