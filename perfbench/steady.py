#!/usr/bin/env python3
"""Steadiness runs for the parqo benchmark, from the checkout root.

    python3 perfbench/steady.py runs --workloads optimize,serve \
        --seeds 1-10 --seconds 15 --out perfbench/steadiness/set1.json
    python3 perfbench/steady.py summary perfbench/steadiness/set1.json
    python3 perfbench/steady.py compare set1.json set2.json
    python3 perfbench/steady.py gaps perfbench/_out/trace-optimize-seed1.json

`runs` runs the benchmark once per (seed, workload), cycling through the
workloads for each seed so that each workload's runs are spread out in
time, and times a fixed compute loop before every run (the host's own
spread).  `summary` prints, per workload and end-to-end metric, the
median, quartiles and spread (quartile distance over median, as
statistics.quantiles(n=4) gives them) against BENCHMARK.json's bound,
and beside each timing the spread it had as measured, before scaling
to the host's speed.  `compare` prints how much each median of the
second set is worse than the first's, against the bound.
`gaps` shows, for a traced run, the op latencies and op classes around
each reported percentile's rank.
"""
import argparse
import json
import math
import statistics
import subprocess
import sys
import time


def host_loop(n=225_000):
    t0 = time.perf_counter()
    x = 0
    for i in range(n):
        x += i * i
    return (time.perf_counter() - t0) * 1000.0


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def write_runs(path, out):
    """One run per line, so the saved sets diff and read line by line."""
    with open(path, "w") as fh:
        fh.write('{"seconds": %d,\n"host_loop_ms": %s,\n"runs": [\n'
                 % (out["seconds"], json.dumps(out["host_loop_ms"])))
        fh.write(",\n".join(json.dumps(r) for r in out["runs"]))
        fh.write("\n]}\n")


def runs(args):
    out = {"seconds": args.seconds, "runs": [], "host_loop_ms": []}
    for seed in seeds_of(args.seeds):
        for w in args.workloads.split(","):
            out["host_loop_ms"].append(host_loop())
            t0 = time.time()
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], capture_output=True, text=True)
            wall = time.time() - t0
            lines = p.stdout.strip().splitlines()
            rec = {"workload": w, "seed": seed, "exit": p.returncode,
                   "wall_s": wall, "started": t0}
            try:
                rec["result"] = json.loads(lines[-1])
                rec["record"] = json.loads(lines[-2])["record"]
            except (ValueError, IndexError, KeyError):
                rec["stderr"] = p.stderr[-2000:]
            out["runs"].append(rec)
            m = rec.get("result", {}).get("metrics", {})
            print(f"{w:9s} seed {seed:3d} exit {p.returncode} wall {wall:5.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()),
                  flush=True)
            write_runs(args.out, out)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def summary(args):
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for path in args.files:
        data = json.load(open(path))
        print(f"== {path} ({data['seconds']} s runs)")
        loop = data["host_loop_ms"]
        q1, med, q3, sp = spread(loop)
        print(f"host loop: n={len(loop)} min {min(loop):.1f} q1 {q1:.1f} "
              f"median {med:.1f} q3 {q3:.1f} max {max(loop):.1f} ms "
              f"spread {sp:.3f}")
        by_w = {}
        for r in data["runs"]:
            by_w.setdefault(r["workload"], []).append(r)
        for w, rs in by_w.items():
            ok = [r for r in rs if r.get("result", {}).get("correct")]
            walls = [r["wall_s"] for r in rs]
            print(f"-- {w}: {len(ok)}/{len(rs)} correct, run wall "
                  f"{min(walls):.1f}-{max(walls):.1f} s")
            if len(ok) < 2:
                continue
            slow = [r["record"]["host_slowness"] for r in ok if "record" in r]
            if len(slow) >= 2:
                q1, med, q3, sp = spread(slow)
                print(f"   host slowness median {med:.3f} q1 {q1:.3f} "
                      f"q3 {q3:.3f} spread {sp:.3f}")
            for name in ok[0]["result"]["metrics"]:
                vals = [r["result"]["metrics"][name]["value"] for r in ok]
                q1, med, q3, sp = spread(vals)
                b = bounds.get(name, math.nan)
                flag = "ok" if sp < b / 3 else ("<bound" if sp < b else "NOISY")
                if name == "setup_s":
                    flag = "(exempt)"
                raw = [raw_value(r, name) for r in ok]
                was = ""
                if len(slow) >= 2 and None not in raw:
                    was = f" (as measured {spread(raw)[3]:.3f})"
                print(f"   {name:18s} median {med:12.5g} q1 {q1:12.5g} "
                      f"q3 {q3:12.5g} spread {sp:6.3f} bound {b:5.2f} {flag}{was}")


def raw_value(run, name):
    """A timing as measured, before scaling, from the run record."""
    raw = run.get("record", {}).get("raw", {}).get(name)
    if isinstance(raw, list):
        return statistics.median(raw)
    return raw


def medians(path):
    out = {}
    for r in json.load(open(path))["runs"]:
        if r.get("result", {}).get("correct"):
            for name, m in r["result"]["metrics"].items():
                out.setdefault((r["workload"], name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in out.items()}


def compare(args):
    bench = json.load(open("BENCHMARK.json"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    first, second = medians(args.first), medians(args.second)
    print(f"== {args.second} against {args.first}: share worse (negative: better)")
    for (w, name), m1 in first.items():
        if (w, name) not in second or m1 == 0:
            continue
        worse = (second[(w, name)] - m1) / m1
        if better[name] == "higher":
            worse = -worse
        flag = "ok" if worse <= bounds[name] else "WORSE"
        print(f"   {w:9s} {name:18s} {m1:12.5g} -> {second[(w, name)]:12.5g} "
              f"{worse:+7.3f} bound {bounds[name]:.2f} {flag}")


def gaps(args):
    for path in args.files:
        d = json.load(open(path))
        w = d["record"]["workload"]
        if w == "serve":
            reqs = [r for r in d["detail"]["requests"]
                    if not r["disposition"].startswith("rejected")]
            ops = [(r["latency_ms"],
                    f"{r['relations']}-rel "
                    + ("hit" if r["cache_hit"] else r["disposition"]))
                   for r in reqs]
        else:
            # per-op labels: optimize's query class (ORDER BY folded in),
            # execute's query, simulate's policy
            # an op's latency is its fastest pass
            labels = [o["label"].split("+")[0] if isinstance(o, dict) else o
                      for o in d["detail"]]
            best = {}
            for s in d["spans"]:
                if s["name"] == f"op.{w}":
                    t = (s["end"] - s["start"]) * 1000.0
                    best[s["op"]] = min(t, best.get(s["op"], t))
            ops = [(t, labels[i]) for i, t in best.items()]
        ops.sort()
        n = len(ops)
        print(f"== {path}: {n} ops")
        for p in (50, 90):
            idx = max(0, (p * n + 99) // 100 - 1)
            lo, hi = max(0, idx - n // 20), min(n - 1, idx + n // 20)
            print(f" p{p} rank {idx}: {ops[idx][0]:.2f} ms; ranks {lo}..{hi} "
                  f"span {ops[lo][0]:.2f}..{ops[hi][0]:.2f} ms "
                  f"(x{ops[hi][0] / max(ops[lo][0], 1e-9):.2f})")
            classes = {}
            for _, lab in ops[lo:hi + 1]:
                classes[lab] = classes.get(lab, 0) + 1
            print("    classes around it:", dict(sorted(classes.items())))


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("runs")
    r.add_argument("--workloads", default="optimize,serve,execute,simulate")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=15)
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("files", nargs="+")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    g = sub.add_parser("gaps")
    g.add_argument("files", nargs="+")
    args = ap.parse_args()
    {"runs": runs, "summary": summary, "compare": compare, "gaps": gaps}[args.cmd](args)


if __name__ == "__main__":
    main()
