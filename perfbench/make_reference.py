"""Regenerate reference.json: the output digest of one pipeline run per
workload and seed, at full scale.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

run.py reports how many of its runs reproduce these bytes. A mismatch is
drift (another summation order or BLAS build), not a failure; a run that
fails its checks here aborts the regeneration.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import run

SEEDS = 32  # reference digests are kept for seeds 0..SEEDS-1


def main() -> None:
    root = Path.cwd()
    run.prepare(root)
    import workloads
    from flowerpetals import cli

    digests: dict[str, dict[str, str]] = {}
    for name, build in workloads.WORKLOADS.items():
        for seed in range(SEEDS):
            work = root / ".perfbench_work" / f"reference-{name}-{seed}-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                outcome = run.run_pipeline(build(work, seed, 1.0), cli.run)
            finally:
                shutil.rmtree(work)
            if outcome.errors:
                raise SystemExit(f"{name} seed {seed} failed its checks: {outcome.errors}")
            digests.setdefault(name, {})[str(seed)] = outcome.digest
        print(name, "done", flush=True)
    text = json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n"
    (run.HERE / "reference.json").write_text(text)
    try:
        (root / ".perfbench_work").rmdir()
    except OSError:  # another run is still using it
        pass


if __name__ == "__main__":
    main()
