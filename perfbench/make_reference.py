"""Record the reference digest of every report document.

    python3 perfbench/make_reference.py

For the default seed and the held-out seed it builds every workload's
inputs, renders each report once and checks its invariants.  Both seeds must
give the same document for every input (the seed only relabels and reorders
inputs), and the digests are written to ``perfbench/reference.json``.
Rerun it only when a change is meant to alter report documents.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919


def main():
    mods = run.load_engine()
    digests = {}
    bad = 0
    for workload in workloads.WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for item in workloads.build(mods, workload, seed):
                data = run.render(mods, item)
                got = run.digest(data)
                for p in run.invariant_problems(item, data):
                    print(f"{item.name}: {p}", file=sys.stderr)
                    bad += 1
                if digests.setdefault(item.name, got) != got:
                    print(f"{item.name}: seed {seed} changes the document", file=sys.stderr)
                    bad += 1
        print(f"{workload}: done", file=sys.stderr)
    if bad:
        return 1
    doc = {
        "engine_version": mods.cli.__version__,
        "seeds": [DEFAULT_SEED, HELD_OUT_SEED],
        "digests": dict(sorted(digests.items())),
    }
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
