"""Record perfbench/goldens.json: the exact outcome of every market in each
workload's default-seed pool, after checking it against the oracles.

    python3 perfbench/record_goldens.py

Run it only on a commit whose outputs are trusted; the benchmark compares
every later default-seed run with what it writes.
"""
from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main():
    goldens = {}
    workdir = run.WORK / "goldens"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for workload in workloads.WORKLOADS.values():
            bench = run.Bench(workload, workloads.DEFAULT_SEED, str(workdir))
            bench.setup(0)
            recorded = {}
            for market in bench.pool:
                bench.execute("record", market)
                record = bench.records[-1]
                if record.summary is None:
                    sys.exit("%s %s raised:\n%s" % (workload.name, market.id, record.error))
                reference = workload.reference(bench.pkg, market)
                problems = workload.check(bench.pkg, market, record.summary, reference)
                if problems:
                    sys.exit("%s %s: %s" % (workload.name, market.id, "; ".join(problems)))
                recorded[market.id] = workloads.golden_entry(
                    bench.pkg, workload, market, record.summary
                )
            goldens[workload.name] = recorded
            print("%s: %d markets recorded" % (workload.name, len(recorded)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
