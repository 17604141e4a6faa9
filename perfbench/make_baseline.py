"""Fold the result records in .bench_out/ into perfbench/baseline.json.

    python3 perfbench/make_baseline.py

For every workload: the median, quartiles and spread of each end-to-end
metric over all untraced runs, the median of each per-layer metric over
all traced runs, the tracing overhead, the output digest and the
environment block of the runs.  Fails if the runs disagree on a digest or
on the sources they measured.
"""

import json
import statistics
import sys

from run import OUT, HERE, quartiles, spread


def fold(records):
    untraced = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    digests = {r["digest"] for r in records}
    sources = {r["environment"]["source_sha256"] for r in records}
    if len(digests) != 1 or len(sources) != 1 or not all(r["correct"] for r in records):
        sys.exit(f"{records[0]['workload']}: runs disagree or failed "
                 f"(digests {digests}, sources {sources})")
    end_to_end = {}
    for name in untraced[0]["end_to_end"]:
        medians = [r["end_to_end"][name]["median"] for r in untraced]
        q1, median, q3 = quartiles(medians)
        end_to_end[name] = {"median": median, "q1": q1, "q3": q3,
                            "spread": spread(medians), "runs": medians}
    per_layer = {name: statistics.median(r["per_layer"][name] for r in traced)
                 for name in traced[0]["per_layer"]} if traced else {}
    overheads = [r["environment"]["tracing_overhead"][r["workload"]] for r in traced]
    env = dict(untraced[0]["environment"], tracing_overhead=None)
    return {
        "digest": digests.pop(),
        "seeds": sorted({r["seed"] for r in untraced}),
        "runs": {"untraced": len(untraced), "traced": len(traced)},
        "children": sum(r["attempted"] for r in records),
        "error_rate": sum(r["failed"] for r in records) / sum(r["attempted"] for r in records),
        "tracing_overhead": statistics.median(overheads) if overheads else None,
        "environment": env,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def main():
    by_workload = {}
    for path in sorted(OUT.glob("result-*.json")):
        record = json.loads(path.read_text())
        by_workload.setdefault(record["workload"], []).append(record)
    baseline = {"workloads": {name: fold(records)
                              for name, records in sorted(by_workload.items())}}
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
