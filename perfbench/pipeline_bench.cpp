// Workload program of the paper-pipeline benchmark (perfbench/run.py runs it).
//
// Each workload drives the library only through its public calls and is
// run in its own process:
//
//   device_table_cold   device::generate_device_table, use_cache = false,
//                       on a seed-chosen sub-grid of the standard bias plane
//   design_plane_warm   explore::explore_plane over a seed-offset (VT, VDD)
//                       plane, nominal table from the prepared cache
//   ring_mc_variants    explore::run_ring_monte_carlo at point B, stages
//                       drawn from the nine prepared variant tables
//
// Modes:
//   pipeline_bench run --workload W --seed N --seconds S --out FILE
//       set up, join every pool thread, then repeat the timed call until the
//       next repetition would overrun S seconds (at least once); write the
//       raw measurements and outputs as JSON to FILE.
//   pipeline_bench setup --workload W --seed N
//       set up only, print "ready" and exit (run.py times process start to
//       that line for setup_s).
//   pipeline_bench install --inputs DIR
//       copy the checked-in variant tables into $GNRFET_CACHE_DIR under the
//       cache keys the library computes for the standard variant set; print
//       "differs" for a table whose recorded key is not that key (made
//       under other defaults).
//   pipeline_bench generate --inputs DIR
//       regenerate the checked-in tables with library defaults (slow: about
//       15 minutes on 4 cores at the adaptive NEGF grid).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cache.hpp"
#include "common/csv.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "device/tablegen.hpp"
#include "explore/montecarlo.hpp"
#include "explore/tech_explore.hpp"
#include "negf/batch_rgf.hpp"
#include "negf/transport.hpp"
#include "poisson/solver.hpp"

extern char** environ;

using namespace gnrfet;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- workloads

// W1: the sub-grid lies on the standard 0.05 V plane (VG 0..1.0, VD
// 0..0.75): VD 0, 0.25, 0.5, 0.75 and ten VG points 0.1 V apart, which the
// seed starts at 0 or 0.05 V. (Shifting VD as well moved the cost by up to
// 14% from seed to seed; the VG shift moves it by about 4%.)
constexpr size_t kW1VgPoints = 10;
constexpr double kW1VgStep = 0.10;
constexpr size_t kW1VdPoints = 4;

// W2: a plane of Fig. 3(b)'s grid shape (VT step 0.05 V, VDD step 0.10 V)
// inside the figure's ranges, VT 0.03..0.28 and VDD 0.15..0.65. The seed
// picks one of these (VT, VDD) offsets of its corner from (0.03, 0.15) V.
// Each plane holds the same three not-ok points of the low-VDD/high-VT
// corner at today's defaults, so the ok ratio and the cost do not depend
// on the seed.
constexpr size_t kW2VtPoints = 5;
constexpr size_t kW2VddPoints = 4;
constexpr double kW2Offsets[][2] = {{0.0, 0.0},    {0.0, 0.01},   {0.0, 0.02},
                                    {0.005, 0.01}, {0.005, 0.02}, {0.01, 0.02}};

// W3: point B of Fig. 3 with the Fig. 6 ring settings. The seed picks one
// of these Monte Carlo base seeds; each gives 21 valid samples of 32 and
// 73.7k-74.9k transient steps at today's defaults (unscreened seeds give
// 17 to 29 valid samples), so the valid count and the work do not depend
// on the workload seed.
constexpr int kW3Samples = 32;
constexpr unsigned kW3McSeeds[] = {4, 12, 14, 29};

struct Variant {
  int n_index;
  int q;
};

/// The standard variant set: N in {9, 12, 15} x oxide charge in {-1, 0, +1}.
std::vector<Variant> standard_variants() {
  std::vector<Variant> out;
  for (int n : {12, 9, 15}) {
    for (int q : {0, -1, 1}) out.push_back({n, q});
  }
  return out;
}

std::string variant_file(const Variant& v) {
  const char* sign = v.q < 0 ? "m" : (v.q > 0 ? "p" : "");
  return "table-n" + std::to_string(v.n_index) + "-q" + sign + std::to_string(std::abs(v.q)) +
         ".csv";
}

/// Same spec convention as the design kit and tools/gen_tables: a nonzero
/// oxide charge is one impurity at mid-channel.
device::DeviceSpec variant_spec(const Variant& v) {
  device::DeviceSpec spec;
  spec.n_index = v.n_index;
  if (v.q != 0) spec.impurities.push_back({static_cast<double>(v.q), 1.0, 0.0, 0.4});
  return spec;
}

/// Seed-derived inputs; the same seed always gives the same inputs.
struct Inputs {
  device::TableGenOptions table;  // W1
  std::vector<double> vts, vdds;  // W2
  explore::ExploreOptions plane;  // W2
  explore::MonteCarloOptions mc;  // W3
};

Inputs make_inputs(const std::string& workload, uint64_t seed) {
  // mt19937's raw output sequence is fixed by the standard, so the mapping
  // below is portable; no std::*_distribution (implementation-defined).
  std::mt19937 rng(static_cast<uint32_t>(seed ^ (seed >> 32)));
  Inputs in;
  if (workload == "device_table_cold") {
    in.table.use_cache = false;
    in.table.vg_min = 0.05 * static_cast<double>(rng() % 2);
    in.table.vg_max = in.table.vg_min + kW1VgStep * static_cast<double>(kW1VgPoints - 1);
    in.table.vg_points = kW1VgPoints;
    in.table.vd_min = 0.0;
    in.table.vd_max = 0.75;
    in.table.vd_points = kW1VdPoints;
  } else if (workload == "design_plane_warm") {
    const auto& offset = kW2Offsets[rng() % std::size(kW2Offsets)];
    const double vt0 = 0.03 + offset[0];
    const double vdd0 = 0.15 + offset[1];
    for (size_t i = 0; i < kW2VtPoints; ++i) in.vts.push_back(vt0 + 0.05 * static_cast<double>(i));
    for (size_t j = 0; j < kW2VddPoints; ++j) {
      in.vdds.push_back(vdd0 + 0.10 * static_cast<double>(j));
    }
    in.plane.ring.t_stop_s = 2.0e-9;
    in.plane.ring.dt_s = 0.4e-12;
  } else if (workload == "ring_mc_variants") {
    in.mc.samples = kW3Samples;
    in.mc.seed = kW3McSeeds[rng() % std::size(kW3McSeeds)];
    in.mc.vt = 0.13;
    in.mc.vdd = 0.4;
    in.mc.ring.t_stop_s = 1.5e-9;
    in.mc.ring.dt_s = 0.5e-12;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return in;
}

// ----------------------------------------------------------- thread probes

/// CPU time (utime + stime, clock ticks) of every thread of this process.
std::map<long, long> thread_cpu_ticks() {
  std::map<long, long> out;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream in(entry.path() / "stat");
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name: state is field 3,
    // utime/stime are fields 14/15.
    const size_t close = text.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(text.substr(close + 2));
    std::string tok;
    long utime = 0, stime = 0;
    for (int field = 3; field <= 15 && fields >> tok; ++field) {
      if (field == 14) utime = std::stol(tok);
      if (field == 15) stime = std::stol(tok);
    }
    out[std::stol(entry.path().filename().string())] = utime + stime;
  }
  return out;
}

struct ThreadUse {
  int busy_threads = 0;  ///< threads that ran at least 5% of the wall time
  double cpu_s = 0.0;    ///< CPU time of all threads
};

ThreadUse thread_use(const std::map<long, long>& before, const std::map<long, long>& after,
                     double wall_s) {
  const double tick_s = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  const double min_ticks = std::max(2.0, 0.05 * wall_s / tick_s);
  ThreadUse use;
  for (const auto& [tid, ticks] : after) {
    const auto it = before.find(tid);
    const long delta = ticks - (it == before.end() ? 0 : it->second);
    if (static_cast<double>(delta) >= min_ticks) ++use.busy_threads;
    use.cpu_s += static_cast<double>(delta) * tick_s;
  }
  return use;
}

struct ProbeResult {
  int first_region_threads = 0;
  int regions = 0;
  bool all_joined = false;
};

/// Repeat a short parallel region until every pool thread has taken part
/// in one (bounded). A thread pool that misses the first job of a fresh
/// process would otherwise put a scheduling race into the timed call.
ProbeResult join_pool_threads(int want) {
  constexpr int kMaxRegions = 200;
  ProbeResult r;
  for (int region = 1; region <= kMaxRegions; ++region) {
    std::mutex mu;
    std::set<std::thread::id> seen;
    par::parallel_for(static_cast<size_t>(want) * 16, [&](size_t) {
      const auto t0 = Clock::now();
      while (seconds_since(t0) < 200e-6) {
      }
      std::lock_guard<std::mutex> lk(mu);
      seen.insert(std::this_thread::get_id());
    });
    const int joined = static_cast<int>(seen.size());
    if (region == 1) r.first_region_threads = joined;
    r.regions = region;
    if (joined >= want) {
      r.all_joined = true;
      break;
    }
  }
  return r;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ------------------------------------------------------------------- JSON

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string num_array(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + num(v[i]);
  return out + "]";
}

// --------------------------------------------------------------- the runs

struct Workload {
  std::string name;
  Inputs in;
  std::unique_ptr<explore::DesignKit> kit;
};

std::string inputs_json(const Workload& w) {
  std::ostringstream os;
  if (w.name == "device_table_cold") {
    const auto& t = w.in.table;
    os << "{\"vg_min\":" << num(t.vg_min) << ",\"vg_max\":" << num(t.vg_max)
       << ",\"vg_points\":" << t.vg_points << ",\"vd_min\":" << num(t.vd_min)
       << ",\"vd_max\":" << num(t.vd_max) << ",\"vd_points\":" << t.vd_points << "}";
  } else if (w.name == "design_plane_warm") {
    os << "{\"vts\":" << num_array(w.in.vts) << ",\"vdds\":" << num_array(w.in.vdds)
       << ",\"t_stop_s\":" << num(w.in.plane.ring.t_stop_s)
       << ",\"dt_s\":" << num(w.in.plane.ring.dt_s) << "}";
  } else {
    const auto& mc = w.in.mc;
    os << "{\"samples\":" << mc.samples << ",\"mc_seed\":" << mc.seed << ",\"vt\":" << num(mc.vt)
       << ",\"vdd\":" << num(mc.vdd) << ",\"t_stop_s\":" << num(mc.ring.t_stop_s)
       << ",\"dt_s\":" << num(mc.ring.dt_s) << "}";
  }
  return os.str();
}

/// Everything the timed call needs that is not part of it: for W2/W3 the
/// table loads from the prepared cache and the interpolation-table builds
/// of every variant the call touches.
void set_up(Workload& w) {
  trace::Span span("bench", "setup");
  if (w.name == "device_table_cold") return;  // reads no cache; geometry is part of the call
  w.kit = std::make_unique<explore::DesignKit>();
  std::vector<explore::VariantSpec> variants;
  if (w.name == "design_plane_warm") {
    variants.push_back({12, 0.0});
  } else {
    for (const Variant& v : standard_variants()) {
      variants.push_back({v.n_index, static_cast<double>(v.q)});
    }
  }
  {
    trace::Span warm("bench", "design_kit_warm");
    w.kit->warm(variants);
  }
  const double vt = w.name == "design_plane_warm" ? w.in.vts.front() : w.in.mc.vt;
  for (const auto& v : variants) {
    trace::Span fet("bench", "fet_tables");
    (void)w.kit->inverter_with_variants(v, v, 4, vt);
  }
}

struct Rep {
  double wall_s = 0.0;
  double begin_us = 0.0;  // trace clock, for windowing the trace
  double end_us = 0.0;
  int items = 0;
  int ok_items = 0;
  ThreadUse use;
  metrics::Snapshot before, after;
};

/// One timed call; returns its outputs as a JSON fragment.
std::string timed_call(Workload& w, Rep& rep) {
  std::ostringstream out;
  const auto cpu0 = thread_cpu_ticks();
  rep.before = metrics::snapshot();
  rep.begin_us = trace::now_us();
  const auto t0 = Clock::now();
  if (w.name == "device_table_cold") {
    device::DeviceTable table;
    {
      trace::Span span("bench", "generate_device_table");
      table = device::generate_device_table(variant_spec({12, 0}), w.in.table);
    }
    rep.wall_s = seconds_since(t0);
    rep.items = static_cast<int>(table.vg.size() * table.vd.size());
    rep.ok_items = rep.items;
    out << "{\"vg\":" << num_array(table.vg) << ",\"vd\":" << num_array(table.vd)
        << ",\"current_A\":" << num_array(table.current_A)
        << ",\"charge_C\":" << num_array(table.charge_C) << "}";
  } else if (w.name == "design_plane_warm") {
    std::vector<explore::ExplorePoint> grid;
    {
      trace::Span span("bench", "explore_plane");
      grid = explore::explore_plane(*w.kit, w.in.vts, w.in.vdds, w.in.plane);
    }
    rep.wall_s = seconds_since(t0);
    out << "{\"points\":[";
    for (size_t i = 0; i < grid.size(); ++i) {
      const auto& p = grid[i];
      rep.items++;
      rep.ok_items += p.ok ? 1 : 0;
      out << (i ? "," : "") << "{\"vt\":" << num(p.vt) << ",\"vdd\":" << num(p.vdd)
          << ",\"ok\":" << (p.ok ? "true" : "false") << ",\"frequency_Hz\":" << num(p.frequency_Hz)
          << ",\"edp_Js\":" << num(p.edp_Js) << ",\"snm_V\":" << num(p.snm_V)
          << ",\"static_power_W\":" << num(p.static_power_W)
          << ",\"dynamic_power_W\":" << num(p.dynamic_power_W) << "}";
    }
    out << "]}";
  } else {
    explore::MonteCarloResult mc;
    {
      trace::Span span("bench", "run_ring_monte_carlo");
      mc = explore::run_ring_monte_carlo(*w.kit, w.in.mc);
    }
    rep.wall_s = seconds_since(t0);
    out << "{\"nominal\":{\"ok\":" << (mc.nominal.ok ? "true" : "false")
        << ",\"frequency_Hz\":" << num(mc.nominal.frequency_Hz)
        << ",\"static_power_W\":" << num(mc.nominal.static_power_W)
        << ",\"dynamic_power_W\":" << num(mc.nominal.dynamic_power_W) << "},\"samples\":[";
    for (size_t i = 0; i < mc.samples.size(); ++i) {
      const auto& s = mc.samples[i];
      rep.items++;
      rep.ok_items += s.ok ? 1 : 0;
      out << (i ? "," : "") << "{\"ok\":" << (s.ok ? "true" : "false")
          << ",\"frequency_Hz\":" << num(s.frequency_Hz)
          << ",\"static_power_W\":" << num(s.static_power_W)
          << ",\"dynamic_power_W\":" << num(s.dynamic_power_W) << "}";
    }
    out << "]}";
  }
  rep.end_us = trace::now_us();
  rep.after = metrics::snapshot();
  rep.use = thread_use(cpu0, thread_cpu_ticks(), rep.wall_s);
  return out.str();
}

std::string counter_deltas(const Rep& rep) {
  std::string out = "{";
  for (size_t c = 0; c < metrics::kNumCounters; ++c) {
    out += (c ? ",\"" : "\"");
    out += metrics::counter_name(static_cast<metrics::Counter>(c));
    out += "\":" + std::to_string(rep.after.counters[c] - rep.before.counters[c]);
  }
  return out + "}";
}

uint64_t delta(const Rep& rep, metrics::Counter c) {
  const auto i = static_cast<size_t>(c);
  return rep.after.counters[i] - rep.before.counters[i];
}

std::string negf_grid_name() {
  return negf::negf_grid_from_env() == negf::NegfGridKind::kAdaptive ? "adaptive" : "uniform";
}

int run_mode(const std::string& workload, uint64_t seed, double seconds, const std::string& out) {
  Workload w{workload, make_inputs(workload, seed), nullptr};
  set_up(w);

  const int threads = par::thread_count();
  ProbeResult probe;
  {
    trace::Span span("bench", "pool_probe");
    probe = join_pool_threads(threads);
  }

  std::vector<Rep> reps;
  std::string outputs;
  bool outputs_repeat = true;
  const auto run_t0 = Clock::now();
  do {
    Rep rep;
    const std::string o = timed_call(w, rep);
    if (!outputs.empty() && o != outputs) outputs_repeat = false;
    outputs = o;
    reps.push_back(rep);
  } while (seconds_since(run_t0) + reps.back().wall_s <= seconds);

  std::vector<std::string> failures;
  if (!probe.all_joined) failures.push_back("pool probe never saw every thread join a region");
  if (!outputs_repeat) failures.push_back("repeated timed calls gave different outputs");
  int timed_threads = threads;
  for (const Rep& r : reps) {
    timed_threads = std::min(timed_threads, r.use.busy_threads);
    if (workload != "device_table_cold" &&
        (delta(r, metrics::Counter::kTableCacheMisses) != 0 ||
         delta(r, metrics::Counter::kTableServiceCoalesced) != 0)) {
      failures.push_back("timed call generated or coalesced a device table");
    }
  }
  if (timed_threads != threads) {
    failures.push_back("only " + std::to_string(timed_threads) + " of " +
                       std::to_string(threads) + " threads took part in a timed call");
  }

  const char* pc = linalg::to_string(poisson::preconditioner_kind_from_env());
  std::ofstream os(out);
  os << "{\"workload\":" << quote(workload) << ",\"seed\":" << seed
     << ",\"inputs\":" << inputs_json(w)
     << ",\"threads\":" << threads
     << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
     << ",\"defaults\":{\"negf_grid\":" << quote(negf_grid_name())
     << ",\"poisson_pc\":" << quote(pc)
     << ",\"rgf_batch\":" << (negf::rgf_batch_enabled() ? "true" : "false")
     << ",\"warm_bias_context\":" << (device::TableGenOptions{}.warm_bias_context ? "true" : "false")
     << "},\"probe\":{\"first_region_threads\":"
     << probe.first_region_threads << ",\"regions\":" << probe.regions << "}"
     << ",\"timed_region_threads\":" << timed_threads << ",\"reps\":[";
  for (size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    os << (i ? "," : "") << "{\"wall_s\":" << num(r.wall_s) << ",\"begin_us\":" << num(r.begin_us)
       << ",\"end_us\":" << num(r.end_us) << ",\"items\":" << r.items
       << ",\"ok_items\":" << r.ok_items << ",\"busy_threads\":" << r.use.busy_threads
       << ",\"cpu_s\":" << num(r.use.cpu_s)
       << ",\"counters\":" << counter_deltas(r) << "}";
  }
  os << "],\"failures\":[";
  for (size_t i = 0; i < failures.size(); ++i) os << (i ? "," : "") << quote(failures[i]);
  os << "],\"outputs\":" << outputs << ",\"peak_rss_mb\":" << num(peak_rss_mb()) << "}\n";
  if (!os) throw std::runtime_error("cannot write " + out);
  return 0;
}

int setup_mode(const std::string& workload, uint64_t seed) {
  Workload w{workload, make_inputs(workload, seed), nullptr};
  set_up(w);
  std::printf("ready\n");
  std::fflush(stdout);
  return 0;
}

int install_mode(const std::string& inputs) {
  const device::TableGenOptions opts = explore::standard_table_options();
  for (const Variant& v : standard_variants()) {
    const std::string payload = device::table_cache_payload(variant_spec(v), opts);
    const std::string src = inputs + "/" + variant_file(v);
    const bool match = csv::Table::load(src).meta("key") == payload;
    device::save_table(device::load_table(src), cache::path_for("device-table", payload), payload);
    std::printf("%s %s\n", variant_file(v).c_str(), match ? "matches" : "differs");
  }
  return 0;
}

int generate_mode(const std::string& inputs) {
  device::TableGenOptions opts = explore::standard_table_options();
  opts.use_cache = false;
  for (const Variant& v : standard_variants()) {
    const auto t0 = Clock::now();
    const device::DeviceSpec spec = variant_spec(v);
    const device::DeviceTable table = device::generate_device_table(spec, opts);
    device::save_table(table, inputs + "/" + variant_file(v), device::table_cache_payload(spec, opts));
    std::printf("%s: %.1f s\n", variant_file(v).c_str(), seconds_since(t0));
    std::fflush(stdout);
  }
  return 0;
}

/// Only the knobs run.py itself sets may reach the library.
void refuse_stray_knobs() {
  static const std::set<std::string> allowed = {"GNRFET_CACHE_DIR", "GNRFET_TRACE",
                                                "GNRFET_THREADS"};
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("GNRFET_", 0) != 0) continue;
    const std::string name = kv.substr(0, kv.find('='));
    if (!allowed.count(name)) throw std::invalid_argument("refusing to run with " + name + " set");
  }
}

uint64_t parse_uint(const std::string& flag, const std::string& s) {
  if (s.empty() || s.size() > 19 || s.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(flag + " wants a non-negative integer, got '" + s + "'");
  }
  return std::stoull(s);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("missing mode");
    const std::string mode = argv[1];
    std::map<std::string, std::string> args;
    for (int i = 2; i < argc; i += 2) {
      const std::string flag = argv[i];
      static const std::set<std::string> known = {"--workload", "--seed", "--seconds", "--out",
                                                  "--inputs"};
      if (!known.count(flag) || i + 1 >= argc || args.count(flag)) {
        throw std::invalid_argument("bad or repeated argument '" + flag + "'");
      }
      args[flag] = argv[i + 1];
    }
    const auto need = [&](const std::string& flag) {
      const auto it = args.find(flag);
      if (it == args.end()) throw std::invalid_argument(mode + " needs " + flag);
      return it->second;
    };
    refuse_stray_knobs();
    if (mode == "run") {
      const uint64_t seconds = parse_uint("--seconds", need("--seconds"));
      if (seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
      return run_mode(need("--workload"), parse_uint("--seed", need("--seed")),
                      static_cast<double>(seconds), need("--out"));
    }
    if (mode == "setup") return setup_mode(need("--workload"), parse_uint("--seed", need("--seed")));
    if (mode == "install") return install_mode(need("--inputs"));
    if (mode == "generate") return generate_mode(need("--inputs"));
    throw std::invalid_argument("unknown mode '" + mode + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 2;
  }
}
