"""Alternating before/after benchmark pairs of a base commit and the working
tree, written as one BENCH_<n>.json.

    python3 tools/bench_pairs.py --base HEAD --workloads special transform \
        --pairs 10 --seconds 40 --held-out 11 --out BENCH_26.json \
        --workdir /tmp/bench --title "..." --claim "..."

The base commit is exported with `git archive` and the working tree (its
tracked and untracked files, without the ignored ones) is copied, each into
its own directory under --workdir, so both sides run from a fresh checkout
and the repository itself is left as it is.  Pair i runs seed i on both
sides, one run at a time: odd seeds before-first, even seeds after-first.
Each run is `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` in its side's directory, with PYTHONDONTWRITEBYTECODE=1.

The JSON holds every run, and per workload over the pairs 1..N: the failed
counts of each side, whether the report digest of every op is equal on both
sides in every pair, and for each end-to-end metric each side's median and
quartiles (statistics.quantiles, n = 4), the number of pairs where the after
side is higher, the median change in percent, and for peak_rss_mb the pair
values [seed, before, after].  Each run also records every op's median
latency, read from its perfbench/out/run-<w>-<seed>-0.json, and the op or
two whose medians make its op_p50_s; the summary lists per op the pair
values [seed, before, after] and each side's median over the pairs, and per
side how often each op made op_p50_s.  A held-out seed runs as one more
pair, kept apart from the summary.  Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from collections import Counter
from pathlib import Path

METRICS = ("wall_s", "op_p50_s", "setup_s", "peak_rss_mb")
SIDES = ("before", "after")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True,
                   help="the commit of the before side")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--held-out", type=int, default=None,
                   help="one more seed, run as a pair outside the summary")
    p.add_argument("--out", required=True, help="the BENCH JSON to write")
    p.add_argument("--workdir", required=True,
                   help="an empty or missing directory for the two exports")
    p.add_argument("--title", default="")
    p.add_argument("--claim", default="")
    return p.parse_args(argv)


def _git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True).stdout


def export(repo, base, workdir):
    """The directories of the base commit and of the working tree."""
    before, after = workdir / "before", workdir / "after"
    for d in (before, after):
        if d.exists():
            shutil.rmtree(d)
        d.mkdir(parents=True)
    archive = workdir / "base.tar"
    archive.write_bytes(_git(repo, "archive", "--format=tar", base))
    with tarfile.open(archive) as tar:
        tar.extractall(before, filter="data")
    archive.unlink()
    listed = _git(repo, "ls-files", "-z", "--cached", "--others",
                  "--exclude-standard").split(b"\0")
    for name in filter(None, (n.decode() for n in listed)):
        src = repo / name
        if src.is_file():       # a deleted tracked file is listed too
            dst = after / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return {"before": before, "after": after}


def run_one(tree, workload, seed, seconds):
    """(the last-line JSON of one perfbench run, {op: digest}, {op: median
    untraced latency}, machine)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail = json.loads((tree / "perfbench" / "out" /
                         f"run-{workload}-{seed}-0.json").read_text())
    digests = {k: op["digest"] for k, op in detail["ops"].items()}
    medians = {k: statistics.median(op["latency_s"]["untraced"])
               for k, op in detail["ops"].items()
               if op["latency_s"]["untraced"]}
    return result, digests, medians, detail["machine"]


def median_ops(medians):
    """The op or two whose median latencies make the run's op_p50_s, the
    median of every op's median."""
    ranked = sorted(medians, key=medians.get)
    n = len(ranked)
    return ranked[(n - 1) // 2:n // 2 + 1]


def run_pair(trees, workloads, seed, seconds, log):
    """The runs of one seed, odd seeds before-first; each run a dict."""
    order = SIDES if seed % 2 else SIDES[::-1]
    runs, machine = [], None
    for workload in workloads:
        for side in order:
            result, digests, medians, machine = run_one(
                trees[side], workload, seed, seconds)
            runs.append({"workload": workload, "seed": seed, "trace": 0,
                         "side": side, "result": result,
                         "digests": digests, "op_medians": medians,
                         "median_ops": median_ops(medians)})
            m = result["metrics"]
            log(f"seed {seed} {workload} {side}: " + ", ".join(
                f"{k} {m[k]['value']:.4g}" for k in METRICS if k in m))
    return runs, machine


def _stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs, workload, seeds):
    """The summary of one workload over the pairs of seeds."""
    by = {(r["seed"], r["side"]): r for r in runs
          if r["workload"] == workload}
    pairs = [(by[s, "before"], by[s, "after"]) for s in seeds]
    out = {"pairs": len(pairs), "seeds": list(seeds),
           "attempted": pairs[0][0]["result"]["attempted"],
           "failed": {side: sorted({p[i]["result"]["failed"] for p in pairs})
                      for i, side in enumerate(SIDES)},
           "digests_equal_in_every_pair": all(
               b["digests"] == a["digests"] for b, a in pairs)}
    for name in METRICS:
        vals = [(b["result"]["metrics"][name]["value"],
                 a["result"]["metrics"][name]["value"]) for b, a in pairs]
        before = [v for v, _ in vals]
        after = [v for _, v in vals]
        med_b, med_a = statistics.median(before), statistics.median(after)
        entry = {"before": _stats(before), "after": _stats(after),
                 "after_higher_in": sum(a > b for b, a in vals),
                 "median_change_pct": 100.0 * (med_a - med_b) / med_b}
        if name == "peak_rss_mb":
            entry["pairs"] = [[s, b, a] for s, (b, a) in zip(seeds, vals)]
        out[name] = entry
    out["op_medians"] = {}
    for op in sorted({op for p in pairs for r in p for op in r["op_medians"]}):
        vals = [[r["op_medians"].get(op) for r in p] for p in pairs]
        entry = {"pairs": [[s, *v] for s, v in zip(seeds, vals)]}
        for i, side in enumerate(SIDES):
            got = [v[i] for v in vals if v[i] is not None]
            entry[side] = statistics.median(got) if got else None
        out["op_medians"][op] = entry
    out["median_ops"] = {side: dict(Counter(
        op for p in pairs for op in p[i]["median_ops"]).most_common())
        for i, side in enumerate(SIDES)}
    return out


def held_out_summary(runs):
    """Per workload of the one held-out pair: failed counts, equal digests,
    the ops making op_p50_s and each metric as [before, after]."""
    out = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        b, a = (next(r for r in runs if r["workload"] == w
                     and r["side"] == side) for side in SIDES)
        out[w] = {"failed": [b["result"]["failed"], a["result"]["failed"]],
                  "digests_equal": b["digests"] == a["digests"],
                  "median_ops": [b["median_ops"], a["median_ops"]],
                  **{name: [b["result"]["metrics"][name]["value"],
                            a["result"]["metrics"][name]["value"]]
                     for name in METRICS}}
    return out


def main(argv=None):
    args = _parse(argv)
    repo = Path(__file__).resolve().parent.parent
    base = _git(repo, "rev-parse", "--short", args.base).decode().strip()
    workdir = Path(args.workdir).resolve()
    trees = export(repo, base, workdir)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    seeds = list(range(1, args.pairs + 1))
    runs, machine = [], None
    for seed in seeds:
        pair, machine = run_pair(trees, args.workloads, seed, args.seconds,
                                 log)
        runs += pair
    held = []
    if args.held_out is not None:
        held, _ = run_pair(trees, args.workloads, args.held_out,
                           args.seconds, log)
    doc = {
        "title": args.title,
        "machine": machine,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": f"before (the base commit {base}) and after (the working "
                  f"tree) run from two exports by tools/bench_pairs.py, one "
                  f"run at a time, PYTHONDONTWRITEBYTECODE=1; pair i ran "
                  f"seed i on both sides, odd seeds before-first, even "
                  f"seeds after-first; --trace 0",
        "claim": args.claim,
        "summary": {w: summarize(runs, w, seeds) for w in args.workloads},
        "runs": runs,
    }
    if held:
        doc["held_out"] = {"seed": args.held_out,
                           "summary": held_out_summary(held),
                           "runs": held}
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=False)
                              + "\n")
    log(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
