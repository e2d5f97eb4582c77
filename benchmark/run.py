#!/usr/bin/env python3
"""HetBench: the end-to-end and per-layer benchmark of HetSim.

    python3 benchmark/run.py [--workload W] [--seed K] [--trace [0|1]]
                             [--out DIR]

Builds the simulator and the layer driver from source into
build/hetbench/ (the first run compiles; later runs only check), then
runs each selected workload (all four by default) and prints every
metric by name and unit. The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced (the default), one run measures for run_seconds of
BENCHMARK.json, shared equally by the selected workloads, in rounds: a
run of the yardstick (yardstick.cc), a short in-process timing of the
workload's set-up, then its jobs, serially in a closed loop, each after
a run of the yardstick. The end-to-end metrics are wall_s (the sum over
jobs of each job's median wall time, over the median yardstick time),
setup_s (the 10th percentile of the set-up repetitions, over that of the
yardstick times), both at the yardstick's nominal speed, and
peak_rss_mb. With --trace 1 the layer
driver runs the workload's sampled cells instead and the per-layer
metrics are printed. Every output is checked against the goldens in
benchmark/golden/; a mismatch fails its cells and the run exits 1.

--seconds is accepted because the benchmark's calling convention passes
run_seconds explicitly; any other value is refused, so every run of a
commit measures the same window.

Other modes:
    --update-golden      rewrite benchmark/golden/ from the current build
    --record N           N untraced runs (seeds 1..N) and one traced run
                         per workload, summarized into
                         benchmark/trajectory/<commit>.json
"""

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build" / "hetbench"
MAIN = BUILD / "main"
LAYERS = BUILD / "layers"
WORK = BUILD / "work"
GOLDEN = HERE / "golden"
CLI = MAIN / "examples" / "hetsim_cli"
LAYER_DRIVER = LAYERS / "hetbench_layers"
SPAWN = LAYERS / "hetbench_spawn"
YARDSTICK = LAYERS / "hetbench_yardstick"
# The yardstick's nominal time: the time metrics are reported in seconds
# of a host on which the yardstick takes this long.
YARDSTICK_S = 0.1

# Parallel jobs for sweep and dse: below nproc, leaving headroom on a
# shared machine.
JOBS = 2
JOB_TIMEOUT_S = 150
CADENCE = 20000
SWEEP_APPS = "canneal,fft,lock_heavy,false_share,prodcons,barrier_sync"
SWEEP_CELLS = 11 * len(SWEEP_APPS.split(","))
DSE_APP = "fft"
APPS = {"durable_sweep": SWEEP_APPS, "dse_cpu": DSE_APP}
# Set-up timing per round: at least one repetition, and this long. The
# repetitions are spread over the window like the jobs, so both see the
# same mix of the host's fast and slow spells.
SETUP_CHUNK_S = 0.3

CPU_FIGS = ["bench_fig7_cpu_time", "bench_fig8_cpu_energy", "bench_fig9_cpu_ed2"]
GPU_FIGS = ["bench_fig10_gpu_time", "bench_fig11_gpu_energy",
            "bench_fig12_gpu_ed2"]
TARGETS = ["hetsim_cli"] + CPU_FIGS + GPU_FIGS

# Workload sizes, chosen so a window holds several rounds of jobs.
SCALE = {"cpu_figs": 0.01, "gpu_figs": 0.15, "durable_sweep": 0.05,
         "dse_cpu": 0.002}
FIG_CELLS = {"cpu_figs": 6 * 14, "gpu_figs": 5 * 10}
FIG_BINARIES = {"cpu_figs": CPU_FIGS, "gpu_figs": GPU_FIGS}
# Simulated results compared with the goldens (each golden holds some).
RESULT_FIELDS = ("cycles", "ops", "seconds", "energy_j")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = SPEC["run_seconds"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Configure once, then build the jobs' binaries and the layer driver."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: no HetSim sources in {ROOT}; run from a checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    kind = "-DCMAKE_BUILD_TYPE=RelWithDebInfo"
    steps = []
    if not (MAIN / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", ROOT, "-B", MAIN, kind, *gen])
    steps.append(["cmake", "--build", MAIN, "-j", jobs, "--target", *TARGETS])
    if not (LAYERS / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", HERE, "-B", LAYERS, kind, *gen,
                      f"-DHETSIM_ROOT={ROOT}", f"-DHETSIM_BUILD={MAIN}"])
    steps.append(["cmake", "--build", LAYERS, "-j", jobs])
    build_log = BUILD / "build.log"
    with open(build_log, "ab") as out:
        for cmd in steps:
            if subprocess.run([str(c) for c in cmd], stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                tail = build_log.read_text(errors="replace")[-3000:]
                sys.exit(f"run.py: build failed: {' '.join(map(str, cmd))}"
                         f"\n{tail}")


# ------------------------------------------------------------ processes

def run_process(argv, cwd):
    """Run one job through the launcher (spawn.cc); return its wall
    seconds, peak RSS in MiB and exit status."""
    out = subprocess.run([str(a) for a in (SPAWN, JOB_TIMEOUT_S, cwd, "--",
                                           *argv)],
                         capture_output=True, text=True, check=True)
    res = json.loads(out.stdout)
    return res["wall_s"], res["maxrss_kb"] / 1024.0, res["status"]


def layer_driver(mode, workload, seed, *extra):
    """Run the in-process layer driver and parse its JSON output."""
    argv = [LAYER_DRIVER, mode, workload, "--seed", seed,
            "--scale", SCALE[workload], "--cadence", CADENCE, "--jobs", JOBS]
    if workload in APPS:
        argv += ["--apps", APPS[workload]]
    out = subprocess.run([str(a) for a in (*argv, *extra)],
                         capture_output=True, text=True,
                         timeout=JOB_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"layer driver failed ({out.returncode}): "
                           f"{out.stderr[-2000:]}")
    return json.loads(out.stdout)


# -------------------------------------------------------------- goldens

def read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def sweep_tuples(report):
    return [{"config": c["config"], "workload": c["workload"],
             "outcome": c["outcome"], "cycles": c["cycles"],
             "ops": c["ops"], "energy_j": c["energy_j"]}
            for c in report["cells"]]


def dse_tuples(report):
    return [{"config": p["name"], "workload": report["workload"],
             "seconds": p["seconds"], "energy_j": p["energy_j"]}
            for p in report["points"]]


def mismatches(cells, golden, complete=True):
    """Cells absent from or differing from the golden, plus, when the
    cells should cover it (`complete`), golden cells that are missing.
    Every simulated result a golden entry holds must match exactly;
    floats round-trip through %.17g."""
    index = {(g["config"], g["workload"]): g for g in golden}
    seen = set()
    bad = 0
    for c in cells:
        key = (c["config"], c["workload"])
        seen.add(key)
        g = index.get(key)
        if g is None or any(c[k] != g[k] for k in RESULT_FIELDS if k in g):
            bad += 1
    return bad + (len(set(index) - seen) if complete else 0)


def golden_for(workload, seed):
    """The seed's golden cell tuples, or None where only
    self-consistency can be checked."""
    if workload in FIG_CELLS:
        return read_json(GOLDEN / f"{workload}-cells.json")
    return read_json(GOLDEN / f"{workload}-seed{seed}.json")


# ----------------------------------------------------------------- jobs

class Job:
    """One process of a workload round, and how to check its outputs."""

    def __init__(self, name, argv, cwd, cells, verify):
        self.name, self.argv, self.cwd = name, argv, cwd
        self.cells, self.verify = cells, verify


def figure_round(workload, rdir, state):
    jobs = []
    for binary in FIG_BINARIES[workload]:
        cwd = rdir / binary
        cwd.mkdir(parents=True)

        def verify(rc, cwd=cwd, binary=binary):
            expected = sorted((GOLDEN / "figs" / binary).glob("*.csv"))
            if state.get("update"):
                return 0 if rc == 0 else FIG_CELLS[workload]
            same = rc == 0 and expected and all(
                (cwd / g.name).is_file() and
                (cwd / g.name).read_bytes() == g.read_bytes()
                for g in expected)
            return 0 if same else FIG_CELLS[workload]

        jobs.append(Job(binary, [MAIN / "bench" / binary, SCALE[workload]],
                        cwd, FIG_CELLS[workload], verify))
    return jobs


def check_cells(cells, state, expected):
    """Failed cells of one report: golden mismatches when the seed has a
    golden, else differences from the run's first report."""
    if state.get("update"):
        return 0
    reference = state.get("golden")
    if reference is None:
        reference = state.setdefault("first", cells)
    return min(expected, mismatches(cells, reference))


def durable_round(seed, rdir, state):
    store = rdir / "store"
    cold, warm = rdir / "cold.json", rdir / "warm.json"
    base = [CLI, "sweep", "--configs", "all", "--workloads", SWEEP_APPS,
            "--scale", SCALE["durable_sweep"], "--jobs", JOBS,
            "--seed", seed, "--store", store, "--checkpoint-every", CADENCE]

    def verify_cold(rc):
        report = read_json(cold) if rc == 0 else None
        if report is None:
            return SWEEP_CELLS
        cells = sweep_tuples(report)
        state["last"] = cells
        not_ok = sum(c["outcome"] != "ok" for c in cells)
        return min(SWEEP_CELLS, not_ok + check_cells(cells, state,
                                                     SWEEP_CELLS))

    def verify_warm(rc):
        same = (rc == 0 and warm.is_file() and cold.is_file() and
                warm.read_bytes() == cold.read_bytes())
        return 0 if same else SWEEP_CELLS

    return [Job("cold", base + ["--report-json", cold], rdir, SWEEP_CELLS,
                verify_cold),
            Job("warm", base + ["--resume", 1, "--report-json", warm], rdir,
                SWEEP_CELLS, verify_warm)]


def dse_round(seed, rdir, state):
    out = rdir / "dse.json"
    designs = state.get("designs", 0)

    def verify(rc):
        report = read_json(out) if rc == 0 else None
        if report is None:
            return max(designs, 1)
        cells = dse_tuples(report)
        state["last"] = cells
        if state.get("update"):
            return 0
        missing = max(designs - len(cells), 0)
        return min(designs, missing + check_cells(cells, state, designs))

    argv = [CLI, "dse", "--space", "cpu", "--app", DSE_APP,
            "--scale", SCALE["dse_cpu"], "--jobs", JOBS, "--seed", seed,
            "--report-json", out]
    return [Job("dse", argv, rdir, max(designs, 1), verify)]


def make_round(workload, seed, rdir, state):
    if workload in FIG_BINARIES:
        return figure_round(workload, rdir, state)
    if workload == "durable_sweep":
        return durable_round(seed, rdir, state)
    return dse_round(seed, rdir, state)


def job_seed(workload, seed):
    # The figure binaries take no seed and always run seed 1.
    return 1 if workload in FIG_BINARIES else seed


# -------------------------------------------------------------- metrics

def figure_averages(path):
    """The Average row of a figure CSV, keyed by configuration."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    average = next(r for r in rows if r and r[0] == "Average")
    return dict(zip(rows[0][1:], map(float, average[1:])))


def paper_err(workload, rdir):
    """Mean |measured Average / paper value - 1| over the numeric paper
    entries transcribed in paper_reference.json."""
    entries = json.loads((HERE / "paper_reference.json").read_text())[workload]
    errs = []
    for e in entries:
        path = next(rdir.glob(f"*/{e['csv']}"))
        errs.append(abs(figure_averages(path)[e["config"]] / e["paper"] - 1))
    return statistics.fmean(errs)


def metric(value, unit):
    return {"value": value, "unit": unit}


def low(values):
    """The 10th percentile (nearest rank)."""
    return sorted(values)[len(values) // 10]


def yardstick(cwd):
    """Wall seconds of one yardstick run (yardstick.cc)."""
    wall, _, rc = run_process([YARDSTICK], cwd)
    if rc != 0:
        raise RuntimeError(f"yardstick failed ({rc})")
    return wall


def measure(workload, seed, seconds, update=False):
    """One untraced run of `seconds`: rounds of set-up timing and jobs
    until the window has passed. The last round always completes. The
    yardstick runs before the set-up timing and before every job."""
    deadline = time.monotonic() + seconds
    seed = job_seed(workload, seed)
    root = WORK / workload
    shutil.rmtree(root, ignore_errors=True)
    state = {"update": update, "golden": golden_for(workload, seed)}

    walls = {}
    ticks = []
    setup_reps = []
    round_rss = []
    attempted = failed = rounds = 0
    while True:
        rdir = root / f"round{rounds}"
        rdir.mkdir(parents=True)
        ticks.append(yardstick(rdir))
        setup = layer_driver("setup", workload, seed,
                             "--seconds", SETUP_CHUNK_S)
        setup_reps += setup["setup_s"]
        if workload == "dse_cpu":
            state["designs"] = setup["cells"]
        round_rss.append(0.0)
        for job in make_round(workload, seed, rdir, state):
            ticks.append(yardstick(rdir))
            wall, rss, rc = run_process(job.argv, job.cwd)
            walls.setdefault(job.name, []).append(wall)
            round_rss[-1] = max(round_rss[-1], rss)
            attempted += job.cells
            failed += job.verify(rc)
        rounds += 1
        if time.monotonic() >= deadline or update:
            break
        shutil.rmtree(rdir)

    # Other tenants of the shared host move every job's time by tens of
    # percent over minutes. The yardstick, timed in the same minutes,
    # moves with them, so the times are reported at its nominal speed.
    # A set-up repetition takes milliseconds and falls wholly inside one
    # fast or slow spell of its vCPU, so its times split into two modes
    # whose mix shifts from minute to minute; the low tails of the
    # repetitions and of the yardstick runs track the uncontended speed.
    metrics = {
        "wall_s": metric(YARDSTICK_S * sum(statistics.median(w)
                                           for w in walls.values())
                         / statistics.median(ticks), "s"),
        "setup_s": metric(YARDSTICK_S * low(setup_reps) / low(ticks), "s"),
        # The peak of a thread-pool job depends on allocator timing, so
        # the median over rounds of each round's peak.
        "peak_rss_mb": metric(statistics.median(round_rss), "MiB"),
    }
    extra = {"fail_frac": metric(failed / attempted, "fraction")}
    if workload in FIG_BINARIES and not failed and not update:
        extra["paper_err"] = metric(paper_err(workload, rdir), "fraction")
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "extra": extra, "rounds": rounds, "jobs": walls,
            "yardstick": ticks, "setup_reps": setup_reps,
            "rdir": rdir, "state": state}


def trace(workload, seed, seconds):
    """Traced passes of the layer driver over the sampled cells until
    `seconds` have passed; each metric is the median over the passes,
    and every pass is checked."""
    deadline = time.monotonic() + seconds
    seed = job_seed(workload, seed)
    golden = golden_for(workload, seed)
    out = WORK / "trace"
    passes = []
    attempted = failed = 0
    while not passes or time.monotonic() < deadline:
        res = layer_driver("trace", workload, seed, "--out", out)
        for f in res["failures"]:
            log(f"  check failed: {f}")
        bad = len(res["failures"])
        if golden is not None:
            bad += mismatches(res["cells"], golden, complete=False)
        cells = max(res["attempted"], 1)
        attempted += cells
        failed += min(bad, cells)
        missing = sorted(set(LAYER_UNITS) - set(res["metrics"]))
        if missing:
            raise RuntimeError(f"layer driver did not report {missing}")
        passes.append(res["metrics"])
    metrics = {name: metric(statistics.median(p[name] for p in passes), unit)
               for name, unit in LAYER_UNITS.items()}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "extra": {}, "passes": len(passes), "spans": res["spans"]}


# -------------------------------------------------------------- records

def next_record_path(out_dir, workload, seed, traced):
    out_dir.mkdir(parents=True, exist_ok=True)
    n = 0
    while True:
        path = out_dir / f"{workload}-seed{seed}-trace{int(traced)}-{n}.json"
        if not path.exists():
            return path
        n += 1


def write_record(out_dir, workload, seed, traced, seconds, res):
    record = {"workload": workload, "seed": seed, "trace": int(traced),
              "seconds": seconds, "correct": res["failed"] == 0,
              "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {**res["metrics"], **res["extra"]},
              "jobs": res.get("jobs", {}), "rounds": res.get("rounds", 0),
              "yardstick": res.get("yardstick", []),
              "setup_reps": res.get("setup_reps", [])}
    path = next_record_path(Path(out_dir), workload, seed, traced)
    path.write_text(json.dumps(record, indent=1) + "\n")


def print_result(workload, seed, traced, res):
    print(f"HetBench {workload} seed {seed} "
          f"{'traced' if traced else 'untraced'}: "
          f"{res['attempted'] - res['failed']}/{res['attempted']} cells ok")
    for name, walls in res.get("jobs", {}).items():
        print(f"  job {name:<24} n={len(walls):<3} min {min(walls):.4f} s"
              f"  median {statistics.median(walls):.4f}"
              f"  max {max(walls):.4f}")
    if res.get("yardstick"):
        print(f"  yardstick median {statistics.median(res['yardstick']):.4f}"
              f" s over {len(res['yardstick'])} runs")
    for name, m in {**res["metrics"], **res["extra"]}.items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    if traced:
        print(f"  passes: {res['passes']}, spans of the last: "
              f"{res['spans']}")


def run_one(workload, seed, seconds, traced):
    res = (trace if traced else measure)(workload, seed, seconds)
    print_result(workload, seed, traced, res)
    return res


# -------------------------------------------------------- golden update

def update_goldens(workloads):
    """Regenerate the goldens from the current build (seeds 1 and 2)."""
    for workload in workloads:
        if workload in FIG_BINARIES:
            res = measure(workload, 1, 0, update=True)
            for binary in FIG_BINARIES[workload]:
                dest = GOLDEN / "figs" / binary
                shutil.rmtree(dest, ignore_errors=True)
                dest.mkdir(parents=True)
                for f in (res["rdir"] / binary).glob("*.csv"):
                    shutil.copy(f, dest / f.name)
            write_golden(f"{workload}-cells.json", figure_cells(workload))
        else:
            for seed in (1, 2):
                res = measure(workload, seed, 0, update=True)
                write_golden(f"{workload}-seed{seed}.json",
                             res["state"]["last"])
        log(f"golden updated: {workload}")


def write_golden(name, cells):
    GOLDEN.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(c) for c in cells)
    (GOLDEN / name).write_text(f"[\n{lines}\n]\n")


def figure_cells(workload):
    """Per-cell (cycles, ops, energy) of a figure matrix, from a sweep of
    the configurations and workloads its CSV lists."""
    first = GOLDEN / "figs" / FIG_BINARIES[workload][0]
    with open(next(first.glob("*.csv")), newline="") as f:
        rows = list(csv.reader(f))
    configs = ",".join(rows[0][1:])
    names = ",".join(r[0] for r in rows[1:] if r and r[0] != "Average")
    rdir = WORK / "golden-cells"
    shutil.rmtree(rdir, ignore_errors=True)
    rdir.mkdir(parents=True)
    if workload == "cpu_figs":
        sel = ["--configs", configs, "--workloads", names]
    else:
        sel = ["--gpu-configs", configs, "--kernels", names]
    argv = [CLI, "sweep", *sel, "--scale", SCALE[workload],
            "--jobs", JOBS, "--report-json", rdir / "cells.json"]
    _, _, rc = run_process(argv, rdir)
    if rc != 0:
        sys.exit(f"run.py: golden cell sweep failed for {workload}")
    cells = sweep_tuples(read_json(rdir / "cells.json"))
    for c in cells:
        del c["outcome"]
        # Sweep reports name GPU cells "kernel:<name>".
        c["workload"] = c["workload"].removeprefix("kernel:")
    return cells


# ------------------------------------------------------------ trajectory

def build_info():
    cache = (MAIN / "CMakeCache.txt").read_text().splitlines()
    entry = {line.split("=", 1)[0].split(":")[0]: line.split("=", 1)[1]
             for line in cache if "=" in line and not line.startswith("#")}
    compiler = subprocess.run([entry.get("CMAKE_CXX_COMPILER", "c++"),
                               "--version"], capture_output=True, text=True)
    git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    dirty = subprocess.run(
        ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
         "examples", "bench", "CMakeLists.txt"],
        capture_output=True, text=True)
    return {"commit": git.stdout.strip() or "unknown",
            "simulator_sources_modified": bool(dirty.stdout.strip()),
            "build_type": "RelWithDebInfo",
            "compiler": compiler.stdout.splitlines()[0]
            if compiler.returncode == 0 else "unknown",
            "nproc": os.cpu_count()}


def record_trajectory(workloads, runs):
    """runs untraced runs (seeds 1..runs) plus one traced run per
    workload, summarized as median and quartiles per metric."""
    from compare import describe

    info = build_info()
    out_dir = WORK / "records" / info["commit"]
    summary = {**info, "run_seconds": RUN_SECONDS, "untraced_runs": runs,
               "workloads": {}}
    for workload in workloads:
        e2e = {}
        for seed in range(1, runs + 1):
            res = run_one(workload, seed, RUN_SECONDS, False)
            write_record(out_dir, workload, seed, False, RUN_SECONDS, res)
            for name, m in {**res["metrics"], **res["extra"]}.items():
                e2e.setdefault(name, (m["unit"], []))[1].append(m["value"])
        res = run_one(workload, 1, RUN_SECONDS, True)
        write_record(out_dir, workload, 1, True, RUN_SECONDS, res)
        summary["workloads"][workload] = {
            "end_to_end": {name: {"unit": unit, **describe(values)}
                           for name, (unit, values) in e2e.items()},
            "per_layer": res["metrics"]}
    trajectory = HERE / "trajectory"
    trajectory.mkdir(exist_ok=True)
    path = trajectory / f"{info['commit']}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    log(f"trajectory point: {path}")


# ------------------------------------------------------------------ main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="must equal run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1])
    ap.add_argument("--out", help="also write one JSON record per run here")
    ap.add_argument("--update-golden", action="store_true")
    ap.add_argument("--record", type=int, metavar="N")
    args = ap.parse_args()
    if args.seconds != RUN_SECONDS:
        ap.error(f"--seconds must be {RUN_SECONDS}, the run_seconds of "
                 "BENCHMARK.json")
    workloads = [args.workload] if args.workload else WORKLOADS
    # One run measures for RUN_SECONDS, whatever it selects.
    seconds = RUN_SECONDS / len(workloads)

    build()
    if args.update_golden:
        update_goldens(workloads)
        return 0
    if args.record:
        record_trajectory(workloads, args.record)
        return 0

    results = {}
    for workload in workloads:
        res = run_one(workload, args.seed, seconds, bool(args.trace))
        if args.out:
            write_record(args.out, workload, args.seed, args.trace,
                         seconds, res)
        results[workload] = res
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items()
                   for name, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
