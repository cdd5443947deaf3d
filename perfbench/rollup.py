"""Per-layer rollup of one traced workload run.

Inputs are the JSON of `gnrfet_trace_report --json <trace>` (subsystem self
times, span totals, counters, histograms), the raw Chrome trace events of
the same file (for span percentiles and busy share), and the pipeline_bench
result (pool probe, timed window, failed tasks). Counters and
histograms cover the whole traced process: its set-up plus one timed call.

NEGF work is counted from `rgf_solves`. `negf_energy_points_saved` only
counts savings and cannot show a regression, so it is not used.
"""

# (name, unit) of every per-layer metric, in report order. rollup() also
# returns the percentile each *_tail value was taken at (*_tail_pct).
METRICS = [
    ("negf.self_s", "s"),
    ("negf.transport_solves", "count"),
    ("negf.rgf_solves", "count"),
    ("negf.energy_points_per_transport_mean", "count"),
    ("negf.energy_points_per_transport_max", "count"),
    ("negf.rgf_batch_width_mean", "count"),
    ("linalg.self_s", "s"),
    ("linalg.pcg_solves", "count"),
    ("linalg.pcg_iterations", "count"),
    ("linalg.pcg_iterations_per_solve_mean", "count"),
    ("linalg.precond_setups", "count"),
    ("poisson.self_s", "s"),
    ("poisson.nonlinear_solves", "count"),
    ("poisson.newton_iterations", "count"),
    ("poisson.newton_per_solve_mean", "count"),
    ("device.self_s", "s"),
    ("device.bias_points", "count"),
    ("device.gummel_iterations", "count"),
    ("device.gummel_per_bias_mean", "count"),
    ("device.gummel_per_bias_max", "count"),
    ("device.bias_solve_p50_ms", "ms"),
    ("device.bias_solve_tail_ms", "ms"),
    ("device.bias_solve_samples", "count"),
    ("device.table_wait_s", "s"),
    ("device.load_table_s", "s"),
    ("device.table_cache_misses", "count"),
    ("service.query_s", "s"),
    ("service.hits", "count"),
    ("service.misses", "count"),
    ("model.fet_tables_s", "s"),
    ("circuit.transient_self_s", "s"),
    ("circuit.transient_runs", "count"),
    ("circuit.transient_steps", "count"),
    ("circuit.mna_factorizations", "count"),
    ("circuit.newton_per_step", "count"),
    ("circuit.steps_per_run_mean", "count"),
    ("circuit.dc_self_s", "s"),
    ("circuit.dc_solves", "count"),
    ("explore.self_s", "s"),
    ("explore.task_p50_s", "s"),
    ("explore.task_tail_s", "s"),
    ("explore.task_samples", "count"),
    ("explore.failed_tasks", "count"),
    ("common.pool_first_region_threads", "threads"),
    ("common.pool_probe_regions", "count"),
    ("common.timed_region_threads", "threads"),
    ("common.busy_share", "ratio"),
    ("common.speedup_vs_1_thread", "ratio"),
    ("bench.trace_overhead", "ratio"),
]

# The span that is one unit of parallel work in each workload's timed call.
TASK_SPAN = {
    "device_table_cold": ("device", "solve_bias_point"),
    "design_plane_warm": ("explore", "explore_point"),
    "ring_mc_variants": ("explore", "mc_sample"),
}

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without floats drifting
    return ordered[int(min(rank, len(ordered))) - 1]


def tail(values):
    """(percentile, value) of the highest percentile that still has at
    least ten samples beyond it; the median when there are too few."""
    n = len(values)
    for pct in TAIL_CANDIDATES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


def span_events(trace, category, name):
    return [e for e in trace.get("traceEvents", [])
            if e.get("ph") == "X" and e.get("cat") == category and e.get("name") == name]


def busy_share(events, begin_us, end_us, threads):
    """Task-span time inside [begin_us, end_us] over (window x threads)."""
    window = end_us - begin_us
    if window <= 0 or threads <= 0:
        return 0.0
    busy = 0.0
    for e in events:
        lo = max(e["ts"], begin_us)
        hi = min(e["ts"] + e["dur"], end_us)
        busy += max(0.0, hi - lo)
    return busy / (window * threads)


def rollup(workload, report, trace, traced, untraced, serial=None):
    """Per-layer metrics {name: value} of one traced run.

    report    -- parsed `gnrfet_trace_report --json` output
    trace     -- parsed raw trace file
    traced    -- pipeline_bench result of the traced process (one timed call)
    untraced  -- pipeline_bench result of an untraced process on the same inputs
    serial    -- pipeline_bench result of a GNRFET_THREADS=1 process (W1 only)
    """
    self_ms = report.get("subsystem_self_ms", {})
    spans = {(s["subsystem"], s["span"]): s for s in report.get("spans", [])}
    counters = report.get("counters", {})
    hists = report.get("histograms", {})

    def self_s(subsystem):
        return self_ms.get(subsystem, 0.0) / 1000.0

    def count(cat, name):
        s = spans.get((cat, name))
        return s["count"] if s else 0

    def total_s(cat, name):
        s = spans.get((cat, name))
        return s["total_ms"] / 1000.0 if s else 0.0

    def span_self_s(cat, name):
        s = spans.get((cat, name))
        return s["self_ms"] / 1000.0 if s else 0.0

    def hmean(name):
        h = hists.get(name)
        return h["sum"] / h["count"] if h and h["count"] else 0.0

    def hmax(name):
        h = hists.get(name)
        return h["max"] if h and h["count"] else 0.0

    def counter(name):
        return counters.get(name, 0)

    m = {}
    m["negf.self_s"] = self_s("negf")
    m["negf.transport_solves"] = count("negf", "solve_mode_space") + count("negf", "solve_real_space")
    m["negf.rgf_solves"] = counter("rgf_solves")
    m["negf.energy_points_per_transport_mean"] = hmean("energy_points_per_transport")
    m["negf.energy_points_per_transport_max"] = hmax("energy_points_per_transport")
    m["negf.rgf_batch_width_mean"] = hmean("rgf_batch_width")

    m["linalg.self_s"] = self_s("linalg")
    m["linalg.pcg_solves"] = count("linalg", "pcg_solve")
    m["linalg.pcg_iterations"] = counter("pcg_iterations")
    m["linalg.pcg_iterations_per_solve_mean"] = hmean("pcg_iterations_per_solve")
    m["linalg.precond_setups"] = counter("pcg_precond_setups")

    m["poisson.self_s"] = self_s("poisson")
    m["poisson.nonlinear_solves"] = count("poisson", "solve_nonlinear_poisson")
    m["poisson.newton_iterations"] = counter("poisson_newton_iterations")
    m["poisson.newton_per_solve_mean"] = hmean("newton_iterations_per_solve")

    bias_ms = [e["dur"] / 1000.0 for e in span_events(trace, "device", "solve_bias_point")]
    m["device.self_s"] = self_s("device")
    m["device.bias_points"] = count("device", "solve_bias_point")
    m["device.gummel_iterations"] = counter("gummel_iterations")
    m["device.gummel_per_bias_mean"] = hmean("gummel_iterations_per_bias")
    m["device.gummel_per_bias_max"] = hmax("gummel_iterations_per_bias")
    m["device.bias_solve_p50_ms"] = percentile(bias_ms, 50.0) if bias_ms else 0.0
    pct, value = tail(bias_ms) if bias_ms else (0.0, 0.0)
    m["device.bias_solve_tail_ms"] = value
    m["device.bias_solve_tail_pct"] = pct
    m["device.bias_solve_samples"] = len(bias_ms)
    m["device.table_wait_s"] = span_self_s("device", "generate_device_table")
    m["device.load_table_s"] = total_s("device", "load_table")
    m["device.table_cache_misses"] = counter("table_cache_misses")

    m["service.query_s"] = total_s("service", "query") + total_s("service", "query_batch")
    m["service.hits"] = counter("table_service_hits")
    m["service.misses"] = counter("table_service_misses")
    m["model.fet_tables_s"] = span_self_s("bench", "fet_tables")

    runs = count("circuit", "run_transient")
    steps = counter("transient_steps")
    m["circuit.transient_self_s"] = span_self_s("circuit", "run_transient")
    m["circuit.transient_runs"] = runs
    m["circuit.transient_steps"] = steps
    m["circuit.mna_factorizations"] = counter("mna_factorizations")
    m["circuit.newton_per_step"] = counter("mna_factorizations") / steps if steps else 0.0
    m["circuit.steps_per_run_mean"] = steps / runs if runs else 0.0
    m["circuit.dc_self_s"] = span_self_s("circuit", "solve_dc")
    m["circuit.dc_solves"] = count("circuit", "solve_dc")

    rep = traced["reps"][0]
    task_cat, task_name = TASK_SPAN[workload]
    tasks = [e for e in span_events(trace, task_cat, task_name)
             if e["ts"] >= rep["begin_us"] and e["ts"] + e["dur"] <= rep["end_us"]]
    explore_tasks = [e["dur"] / 1e6 for e in tasks] if task_cat == "explore" else []
    m["explore.self_s"] = self_s("explore")
    m["explore.task_p50_s"] = percentile(explore_tasks, 50.0) if explore_tasks else 0.0
    pct, value = tail(explore_tasks) if explore_tasks else (0.0, 0.0)
    m["explore.task_tail_s"] = value
    m["explore.task_tail_pct"] = pct
    m["explore.task_samples"] = len(explore_tasks)
    m["explore.failed_tasks"] = (rep["items"] - rep["ok_items"]) if task_cat == "explore" else 0

    m["common.pool_first_region_threads"] = traced["probe"]["first_region_threads"]
    m["common.pool_probe_regions"] = traced["probe"]["regions"]
    m["common.timed_region_threads"] = traced["timed_region_threads"]
    m["common.busy_share"] = busy_share(tasks, rep["begin_us"], rep["end_us"], traced["threads"])
    untraced_wall = untraced["reps"][0]["wall_s"]
    m["common.speedup_vs_1_thread"] = serial["reps"][0]["wall_s"] / untraced_wall if serial else 0.0
    # Same inputs, same work: traced / untraced throughput is the inverse
    # wall-time ratio.
    m["bench.trace_overhead"] = untraced_wall / rep["wall_s"]
    return m
