#!/usr/bin/env python3
"""Record the sha256 of every pool cloud's detections for the digest seed.

    python3 perfbench/record_digests.py

Run from the root of a lift checkout. It rewrites perfbench/digests.json,
which the benchmark compares every seed-0 cloud against; run it again only
when a change is meant to alter the engine's detections.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    root = Path.cwd()
    lift = run.load_lift(root)
    threads = run.engine_threads(lift)
    doc = {"seed": checks.DIGEST_SEED, "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        run_dir = workloads.WORK / f"digests-{os.getpid()}"
        try:
            fx, (paths, _) = workloads.prepare(root, workload, checks.DIGEST_SEED, run_dir)
            engine = run.Engine(lift, fx.config, fx.weights(workload), workload.mode, threads)
            digests = []
            for k, path in enumerate(paths):
                out = run_dir / f"det{k:03d}.jsonl"
                engine.process(path, out)
                data = out.read_bytes()
                problems = checks.detection_problems(data, engine.cfg.network.class_names,
                                                     engine.cfg.top_k)
                if problems:
                    print(f"{name} cloud {k}: {problems}", file=sys.stderr)
                    return 1
                digests.append(checks.sha256(data))
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        doc["workloads"][name] = digests
        print(f"{name}: {len(digests)} digests")
    checks.DIGESTS.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
