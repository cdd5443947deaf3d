#!/usr/bin/env python3
"""Paper-pipeline benchmark of gnrfet-explore.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds the library and the workload program (pipeline_bench) from this
checkout (into .bench_build/perfbench), installs the checked-in device tables into a
benchmark-owned cache, runs workload W in its own process, checks its
outputs and prints, as the last line of standard output,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (END_TO_END); with
--trace 1 they are the per-layer ones of a traced run (rollup.METRICS).

Workloads (see BENCHMARK.json for why each was chosen):
    device_table_cold   cold N=12 device table on a seed-chosen sub-grid
    design_plane_warm   (VT, VDD) design plane from the prepared cache
    ring_mc_variants    ring-oscillator Monte Carlo over 9 variant tables;
                        runnable by hand but not in BENCHMARK.json: on a
                        shared 4-core host its speed swings by +-25% from
                        run to run, more than any bound the benchmark can
                        hold

Maintenance modes:
    --generate-inputs   regenerate perfbench/inputs with library defaults
                        (about 15 minutes on 4 cores)
    --record-reference  rewrite perfbench/reference/*.json from runs on the
                        default seed
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import rollup  # noqa: E402

WORKLOADS = ("device_table_cold", "design_plane_warm", "ring_mc_variants")
DEFAULT_SEED = 20080608
SETUP_REPEATS = 11
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CACHE_DIR = os.path.join(BUILD_DIR, "cache")
INPUTS_DIR = os.path.join(HERE, "inputs")
REFERENCE_DIR = os.path.join(HERE, "reference")
NOMINAL_TABLE = os.path.join(INPUTS_DIR, "table-n12-q0.csv")

# (name, unit) of the end-to-end metrics; every workload reports all four.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("ok_ratio", "ratio"),
]

# What work_per_s and ok_ratio mean on each workload.
WORK_NAME = {
    "device_table_cold": "table_bias_points_per_s",
    "design_plane_warm": "plane_points_per_s",
    "ring_mc_variants": "mc_valid_samples_per_s",
}
OK_NAME = {
    "device_table_cold": "table_points_ok_ratio",
    "design_plane_warm": "plane_ok_ratio",
    "ring_mc_variants": "mc_valid_ratio",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv):
    def nonneg_int(text):
        if not text.isdigit():
            raise argparse.ArgumentTypeError(f"want a non-negative integer, got {text!r}")
        return int(text)

    def positive_int(text):
        value = nonneg_int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("want an integer >= 1")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=nonneg_int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=positive_int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--generate-inputs", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if not (args.workload or args.generate_inputs or args.record_reference):
        p.error("--workload is required")
    return args


def refuse_stray_knobs():
    """The benchmark measures library defaults: no GNRFET_* knob may leak in."""
    stray = sorted(k for k in os.environ if k.startswith("GNRFET_"))
    if stray:
        raise BenchError("refusing to run with " + ", ".join(stray) + " set")


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"], env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "not a git checkout"


def build():
    """Configure once, then (incrementally) build pipeline_bench and the trace
    report tool; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no library sources under {ROOT}/src")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.log"), "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, len(os.sched_getaffinity(0))))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "pipeline_bench",
                      "gnrfet_trace_report"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} (log: {out.name})")
    return (os.path.join(BUILD_DIR, "pipeline_bench"),
            os.path.join(BUILD_DIR, "gnrfet_trace_report"))


def child_env(**extra):
    env = dict(os.environ, GNRFET_CACHE_DIR=CACHE_DIR)
    env.update(extra)
    return env


def run_child(cmd, env):
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} failed ({proc.returncode}): {proc.stderr.strip()}")
    return proc.stdout


def prepare_cache(binary):
    """Untimed: put the checked-in variant tables where the library looks.
    Returns whether every table was made under today's cache key (the
    library defaults); the tables are installed under that key either way,
    so W2/W3 inputs stay fixed when a device-solver default changes."""
    out = run_child([binary, "install", "--inputs", INPUTS_DIR], child_env())
    return "differs" not in out.split()


def time_setup(binary, workload, seed):
    """Median, over SETUP_REPEATS fresh processes, of process start to the
    end of set-up (the start of the timed call). One unmeasured process
    first warms the page cache and the CPU."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([binary, "setup", "--workload", workload, "--seed", str(seed)],
                              env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise BenchError(f"setup of {workload} failed: {err.decode().strip()}")
        times.append(elapsed)
    return statistics.median(times[1:])


def drive(binary, workload, seed, seconds, tag, **extra_env):
    out = os.path.join(BUILD_DIR, "runs", f"{workload}-{seed}-{tag}-{os.getpid()}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    run_child([binary, "run", "--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--out", out], child_env(**extra_env))
    with open(out) as f:
        return json.load(f)


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def check(workload, seed, result):
    """(attempted, failures) of one pipeline_bench result: its own run-level
    failures plus the output checks, once per timed call."""
    outputs = result["outputs"]
    if workload == "device_table_cold":
        attempted, failures = checks.check_device_table(outputs,
                                                        checks.load_table_csv(NOMINAL_TABLE))
    else:
        reference = None
        if seed == DEFAULT_SEED:
            with open(reference_path(workload)) as f:
                reference = json.load(f)
        check_fn = checks.check_plane if workload == "design_plane_warm" else checks.check_monte_carlo
        attempted, failures = check_fn(outputs, reference)
    reps = len(result["reps"])
    return attempted * reps, result["failures"] + failures * reps


def work_per_s(workload, rep):
    work = rep["ok_items"] if workload == "ring_mc_variants" else rep["items"]
    return work / rep["wall_s"]


def end_to_end(workload, result, setup_s):
    reps = result["reps"]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "work_per_s": statistics.median(work_per_s(workload, r) for r in reps),
        "ok_ratio": reps[0]["ok_items"] / reps[0]["items"],
    }


def traced_metrics(binary, report_tool, workload, seed):
    """One untraced and one traced timed call (plus, on W1, a one-thread
    call for the speed-up); returns (metrics, pipeline_bench results)."""
    untraced = drive(binary, workload, seed, 1, "untraced")
    trace_path = os.path.join(BUILD_DIR, "runs", f"{workload}-{seed}-{os.getpid()}.trace.json")
    traced = drive(binary, workload, seed, 1, "traced", GNRFET_TRACE=trace_path)
    serial = None
    if workload == "device_table_cold":
        serial = drive(binary, workload, seed, 1, "serial", GNRFET_THREADS="1")
    report = json.loads(run_child([report_tool, "--json", trace_path], child_env()))
    with open(trace_path) as f:
        trace = json.load(f)
    metrics = rollup.rollup(workload, report, trace, traced, untraced, serial)
    return metrics, [r for r in (untraced, traced, serial) if r]


def record(workload, seed, result, inputs_match_defaults):
    return {
        "inputs_match_defaults": inputs_match_defaults,
        "workload": workload,
        "seed": seed,
        "git_describe": git_describe(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": result["threads"],
        "hardware_concurrency": result["hardware_concurrency"],
        "defaults": result["defaults"],
        "inputs": result["inputs"],
        "reps": len(result["reps"]),
        "probe": result["probe"],
        "timed_region_threads": result["timed_region_threads"],
    }


def run(args):
    binary, report_tool = build()
    inputs_match = None
    if args.workload != "device_table_cold":
        inputs_match = prepare_cache(binary)
    if args.trace:
        values, results = traced_metrics(binary, report_tool, args.workload, args.seed)
        units = dict(rollup.METRICS)
    else:
        setup_s = time_setup(binary, args.workload, args.seed)
        results = [drive(binary, args.workload, args.seed, args.seconds, "timed")]
        values = end_to_end(args.workload, results[0], setup_s)
        units = dict(END_TO_END)
    attempted, failures = 0, []
    for result in results:
        a, f = check(args.workload, args.seed, result)
        attempted += a
        failures += f
    for msg in failures:
        log(f"check failed: {msg}")
    print("record " + json.dumps(record(args.workload, args.seed, results[0], inputs_match),
                                 sort_keys=True))
    if args.trace:
        print(f"device.bias_solve_tail_ms is p{values['device.bias_solve_tail_pct']:g} of "
              f"{values['device.bias_solve_samples']} solves; explore.task_tail_s is "
              f"p{values['explore.task_tail_pct']:g} of {values['explore.task_samples']} tasks")
    else:
        print(f"{WORK_NAME[args.workload]} = {values['work_per_s']:.6g} 1/s")
        print(f"{OK_NAME[args.workload]} = {values['ok_ratio']:.6g}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def record_reference(binary):
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in ("design_plane_warm", "ring_mc_variants"):
        result = drive(binary, workload, DEFAULT_SEED, 1, "reference")
        if result["failures"]:
            raise BenchError(f"{workload}: {result['failures']}")
        with open(reference_path(workload), "w") as f:
            json.dump(dict(result["outputs"], inputs=result["inputs"]), f, indent=1,
                      sort_keys=True)
            f.write("\n")
        log(f"wrote {reference_path(workload)}")


def main(argv):
    try:
        args = parse_args(argv)
        refuse_stray_knobs()
        if args.generate_inputs or args.record_reference:
            binary, _ = build()
            if args.generate_inputs:
                run_child([binary, "generate", "--inputs", INPUTS_DIR], child_env())
            if args.record_reference:
                prepare_cache(binary)
                record_reference(binary)
            return 0
        print(json.dumps(run(args)))
        return 0
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
