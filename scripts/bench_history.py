"""Append one perfbench run to a workload's committed benchmark history.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 35 --trace 0
    python3 scripts/bench_history.py --workload ladder --seed 0 --note "..."

Reads `.perfbench/result-<workload>-seed<N>-trace0.json`, which every
untraced perfbench run writes in the checkout it runs from (`--checkout`,
by default the one holding this script), and appends one entry to
`BENCH_<workload>.json` at the root of this checkout (`--history` names
another file).  An entry holds the run's `meta`, whether it was correct,
its end-to-end metrics, and per pair class the number of pairs run and
the medians of `pair_s` and of each operation's seconds, in reference
seconds, all read from the result file.  `--note` adds a free-text
label, such as which commit or side of an A/B comparison the run
measured.

Entries are only ever appended: the file's earlier entries are written
back as they were read, and a run already recorded (the same result
file read twice) is refused with exit 1.  Exit 2 when the result file
is missing.  Traced runs are not recorded; their times are not
end-to-end.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def class_medians(pairs):
    """{class: {"pairs": n, "pair_s": median, "<op>_s": median, ...}} of
    a result's per-pair rows, in reference seconds: each pair's wall
    seconds divided by the machine slowdown measured around it, as
    perfbench's end-to-end metrics are."""
    out = {}
    for name, rows in sorted(pairs.items()):
        fields = sorted({key for row in rows for key in row
                         if key.endswith("_s")})
        out[name] = {"pairs": len(rows)}
        for key in fields:
            out[name][key] = statistics.median(
                row[key] / row["slowdown"] for row in rows if key in row)
    return out


def entry_of(result_file, note):
    with open(result_file) as handle:
        run = json.load(handle)
    entry = {
        "meta": run["meta"],
        "correct": run["result"]["correct"],
        "metrics": {name: metric["value"]
                    for name, metric in run["result"]["metrics"].items()},
        "classes": class_medians(run["pairs"]),
    }
    if note:
        entry["note"] = note
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--checkout", default=ROOT)
    parser.add_argument("--history")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    result_file = os.path.join(
        args.checkout, ".perfbench",
        f"result-{args.workload}-seed{args.seed}-trace0.json")
    if not os.path.isfile(result_file):
        sys.stderr.write(f"bench_history: no result file {result_file}\n")
        return 2
    history = args.history or os.path.join(ROOT,
                                           f"BENCH_{args.workload}.json")
    entries = []
    if os.path.exists(history):
        with open(history) as handle:
            entries = json.load(handle)["entries"]
    entry = entry_of(result_file, args.note)
    if any(old["meta"] == entry["meta"] and old["metrics"] == entry["metrics"]
           for old in entries):
        sys.stderr.write("bench_history: this run is already recorded\n")
        return 1
    entries.append(entry)
    with open(history, "w") as handle:
        json.dump({"workload": args.workload, "entries": entries}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{history}: entry {len(entries)}, pairs_per_s "
          f"{entry['metrics'].get('pairs_per_s')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
