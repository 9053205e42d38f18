#!/usr/bin/env python3
"""The druzhba benchmark: one command per workload run, plus compare modes.

Run one workload (from the root of a source checkout):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--save DIR]

builds the measurement program and the druzhba CLI from source with dune,
runs the workload, checks its outputs, prints one row per metric with its
unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics; with
--trace 1 a traced pass follows and the metrics are its per-layer ones.
The exit code is 0 only when every output check passed and no operation
failed.

Compare two result sets (directories written with --save):

    python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR

Alternate runs of two checkouts and compare them:

    python3 perfbench/run.py ab --parent DIR --change DIR --workload W [--pairs 10]

See perfbench/README.md for the workloads, metrics and held-out seeds.
"""

import argparse
import http.client
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ["campaign-mixed", "campaign-native", "coverage-find", "table1", "serve"]
EXE = Path("_build/default/perfbench/ocaml/perfbench.exe")
CLI = Path("_build/default/bin/main.exe")
RUN_TIMEOUT = 150
# Set-ups timed per run: half before the workload and half after it, so
# the median does not hang on the host's speed at a single moment.
SETUP_REPS = (8, 7)


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_contract():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    return json.loads(path.read_text())


def check_sources():
    """The benchmark builds druzhba from the checkout it sits in; without
    those sources there is nothing to measure."""
    for rel in ["dune-project", "lib", "bin/main.ml", "perfbench/ocaml/dune"]:
        if not (ROOT / rel).exists():
            fail("no druzhba sources here (missing %s); run from a source checkout" % rel)


def build(env):
    cmd = ["dune", "build", "--root", ".", str(EXE), str(CLI)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")


def environment(scratch):
    env = dict(os.environ)
    # keep every file the run writes inside the checkout
    env["DUNE_CACHE"] = "disabled"
    env["TMPDIR"] = str(scratch / "tmp")
    env["DRUZHBA_NATIVE_CACHE_DIR"] = str(scratch / "native-cache")
    env.pop("DRUZHBA_NATIVE_DISABLE", None)
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    return env


# --- set-up time -----------------------------------------------------------------
#
# Set-up is timed in fresh processes, so work a change moves into module
# initialisation or a lazy first use shows up here rather than vanishing
# into a warm process.  It is timed from this script: a child started from
# the OCaml program took 2 ms or 5 ms by turns, one started from here a
# steady 2 ms.


def setup_child(workload, env):
    """Wall time of one fresh measurement process running the workload's
    set-up (the --setup-only mode) and exiting."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([str(ROOT / EXE), "--setup-only", workload], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # a blocking wait, with a watchdog: waiting with a timeout polls at
    # growing intervals, which would round the time up
    watchdog = threading.Timer(30, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    dt = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError("set-up child exited %d" % code)
    return dt


def http_status(port, method, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request(method, path)
        return conn.getresponse().status
    except OSError:
        return None
    finally:
        conn.close()


def setup_daemon(env, root):
    """Wall time from starting `druzhba serve` on a fresh root until
    /healthz answers 200; the daemon is shut down and reaped before this
    returns, on every path."""
    root.mkdir(parents=True)
    port = None
    with open(root / "daemon.log", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(ROOT / CLI), "serve", "--root", str(root), "--workers", "2",
                                 "--max-queue", "64"], cwd=ROOT, env=env, stdout=log, stderr=log)
        try:
            while True:
                if proc.poll() is not None:
                    raise RuntimeError("daemon exited %d" % proc.returncode)
                if time.perf_counter() - t0 > 30:
                    raise RuntimeError("daemon did not become ready")
                try:
                    port = int((root / "port").read_text().strip())
                except (OSError, ValueError):
                    port = None
                if port is not None and http_status(port, "GET", "/healthz") == 200:
                    return time.perf_counter() - t0
                time.sleep(0.002)
        finally:
            if port is not None:
                http_status(port, "POST", "/shutdown")
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def time_setups(workload, env, root, reps):
    if workload == "serve":
        return [setup_daemon(env, root / ("farm-%d" % i)) for i in range(reps)]
    return [setup_child(workload, env) for _ in range(reps)]


def reduce_sink(sink):
    return {name: stats.reduce(s["reduce"], s["samples"]) for name, s in sink.items()}


def print_rows(raw):
    """One line per metric: name, value, unit, sample count."""
    w = raw["workload"]
    for sink_name in ["e2e", "row", "layers"]:
        for name, s in raw[sink_name].items():
            if not s["samples"]:
                continue
            value = stats.reduce(s["reduce"], s["samples"])
            print("%-16s %-36s %14.6g %-6s n=%d (%s)"
                  % (w, name, value, s["unit"], len(s["samples"]), s["reduce"]))
    for c in raw["checks"]:
        if not c["ok"]:
            print("%-16s CHECK FAILED: %s: %s" % (w, c["name"], c["detail"]))
    print("%-16s %d checks, %d/%d operations failed"
          % (w, len(raw["checks"]), raw["failed"], raw["attempted"]))


def run_workload(args):
    check_sources()
    contract = load_contract()
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (expected one of %s)" % (args.workload, ", ".join(WORKLOADS)))
    scratch = ROOT / ".bench_build"
    env = environment(scratch)
    build(env)
    work = scratch / "work" / ("%s-%d" % (args.workload, os.getpid()))
    setups = scratch / "work" / ("setup-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(setups, ignore_errors=True)
    cmd = [str(ROOT / EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
           "--druzhba", str(ROOT / CLI)]
    try:
        setup_s = time_setups(args.workload, env, setups / "before", SETUP_REPS[0])
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT)
        setup_s += time_setups(args.workload, env, setups / "after", SETUP_REPS[1])
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload, 1)
    except RuntimeError as e:
        fail("set-up of %s failed: %s" % (args.workload, e), 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(setups, ignore_errors=True)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("measurement program exited %d" % done.returncode, 1)
    raw = json.loads(lines[-1])
    raw["e2e"]["setup_s"] = {"unit": "s", "reduce": "median", "samples": setup_s}
    print_rows(raw)

    if args.trace:
        wanted = [m["name"] for m in contract["per_layer"]]
        values = {**reduce_sink(raw["layers"]), **reduce_sink(raw["row"])}
    else:
        wanted = [m["name"] for m in contract["end_to_end"]]
        values = reduce_sink(raw["e2e"])
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    missing = [n for n in wanted if n not in values]
    if missing:
        fail("output lacks metrics: " + ", ".join(missing), 1)
    correct = raw["failed"] == 0 and all(c["ok"] for c in raw["checks"])
    result = {
        "correct": correct,
        "attempted": max(1, raw["attempted"]),
        "failed": raw["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in wanted},
    }
    if args.save:
        out = Path(args.save)
        out.mkdir(parents=True, exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "result": result}
        (out / ("%s.%d.%d.json" % (args.workload, args.seed, args.trace))).write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


# --- compare -------------------------------------------------------------------


def load_results(directory):
    """{workload: [(seed, {metric: value})]} from a --save directory,
    untraced runs only, in seed order."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec["trace"] != 0 or not rec["result"]["correct"]:
            continue
        values = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        runs.setdefault(rec["workload"], []).append((rec["seed"], values))
    for w in runs:
        runs[w].sort(key=lambda r: r[0])
    return runs


def compare(parent_dir, change_dir, contract):
    parent, change = load_results(parent_dir), load_results(change_dir)
    rows = []
    for w in WORKLOADS:
        if w not in parent or w not in change:
            continue
        pairs = [(pv, cv) for (s, cv) in change[w] for (ps, pv) in parent[w] if ps == s]
        cells = []
        for m in contract["end_to_end"]:
            name = m["name"]
            p = [pv[name] for pv, _ in pairs]
            c = [cv[name] for _, cv in pairs]
            if not p:
                cells.append("%s=unresolved(no pairs)" % name)
                continue
            v = stats.verdict(p, c, m["better"], m["bound"])
            cells.append("%s=%s(%.4g->%.4g)" % (name, v, stats.median(p), stats.median(c)))
        rows.append("%-16s pairs=%d %s" % (w, len(pairs), " ".join(cells)))
    for r in rows:
        print(r)
    return rows


def ab(args, contract):
    """Alternates runs of two checkouts on the same seeds, then compares."""
    out = Path(args.out)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else list(range(1, args.pairs + 1))
    sides = [("parent", Path(args.parent)), ("change", Path(args.change))]
    for i, seed in enumerate(seeds):
        order = sides if i % 2 == 0 else sides[::-1]
        for label, checkout in order:
            cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
                   "--save", str(out / label)]
            subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL, check=False)
    compare(out / "parent", out / "change", contract)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("cmd")
        p.add_argument("parent")
        p.add_argument("change")
        a = p.parse_args()
        compare(a.parent, a.change, load_contract())
        return
    if len(sys.argv) > 1 and sys.argv[1] == "ab":
        p = argparse.ArgumentParser(prog="run.py ab")
        p.add_argument("cmd")
        p.add_argument("--parent", required=True, help="checkout of the parent commit")
        p.add_argument("--change", required=True, help="checkout of the change")
        p.add_argument("--workload", required=True, choices=WORKLOADS)
        p.add_argument("--pairs", type=int, default=10)
        p.add_argument("--seeds", help="comma-separated seeds (default 1..pairs)")
        p.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json's run_seconds)")
        p.add_argument("--out", default=".bench_build/ab")
        a = p.parse_args()
        contract = load_contract()
        if a.seconds is None:
            a.seconds = contract["run_seconds"]
        ab(a, contract)
        return
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--save", help="also write the result into this directory (for compare)")
    run_workload(p.parse_args())


if __name__ == "__main__":
    main()
