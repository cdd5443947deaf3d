// Summarizes a Chrome trace-event JSON file emitted by the GNRFET trace
// layer (common/trace.hpp, enabled via GNRFET_TRACE=<path>). Prints, per
// (subsystem, span): call count, total and self wall time (self = total
// minus enclosed child spans on the same thread), and per-call stats;
// then a per-subsystem rollup of self time, the metrics counters, and the
// metrics histograms embedded in the file.
//
// Usage: gnrfet_trace_report [--json] <trace.json>
//        (exit 0 = ok, 1 = bad input)
//
// --json replaces the human tables with one machine-readable JSON object
// on stdout — {spans, subsystem_self_ms, counters, histograms} — so CI
// stages assert on fields instead of grepping formatted text.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "json.hpp"

namespace {

using gnrfet::json::Parser;
using gnrfet::json::Value;

struct SpanEvent {
  std::string cat;
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
  double self = 0.0;  // dur minus children, filled by compute_self_times
  int64_t tid = 0;
};

/// Attribute each span's duration minus its same-thread children: spans
/// nest by construction (RAII), so on every thread the events form a
/// forest ordered by (ts, -dur).
void compute_self_times(std::vector<SpanEvent>& events) {
  std::map<int64_t, std::vector<SpanEvent*>> by_tid;
  for (auto& e : events) {
    e.self = e.dur;
    by_tid[e.tid].push_back(&e);
  }
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(), [](const SpanEvent* a, const SpanEvent* b) {
      if (a->ts != b->ts) return a->ts < b->ts;
      return a->dur > b->dur;
    });
    std::vector<SpanEvent*> stack;
    for (SpanEvent* e : list) {
      while (!stack.empty() && stack.back()->ts + stack.back()->dur <= e->ts + 1e-9) {
        stack.pop_back();
      }
      if (!stack.empty()) stack.back()->self -= e->dur;
      stack.push_back(e);
    }
  }
}

struct SpanStats {
  uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  double min_us = 1e300;
  double max_us = 0.0;
};

std::string fmt_ms(double us) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << us / 1000.0;
  return os.str();
}

/// JSON string escaping for the names we re-emit (subsystem/span/counter
/// identifiers; quotes and backslashes are the only realistic hazards).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool emit_json = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      emit_json = true;
    } else if (!path) {
      path = argv[i];
    } else {
      path = nullptr;
      break;
    }
  }
  if (!path) {
    std::cerr << "usage: gnrfet_trace_report [--json] <trace.json>\n";
    return 1;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "gnrfet_trace_report: cannot open " << path << "\n";
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  Value root;
  Parser parser(text);
  if (!parser.parse(root) || root.kind != Value::Kind::kObject) {
    std::cerr << "gnrfet_trace_report: " << path << ": JSON parse error near byte "
              << parser.error_pos() << "\n";
    return 1;
  }
  const Value* trace_events = root.find("traceEvents");
  if (!trace_events || trace_events->kind != Value::Kind::kArray) {
    std::cerr << "gnrfet_trace_report: missing traceEvents array\n";
    return 1;
  }

  std::vector<SpanEvent> events;
  for (const Value& ev : trace_events->array) {
    if (ev.kind != Value::Kind::kObject) continue;
    const Value* ph = ev.find("ph");
    if (!ph || ph->str != "X") continue;
    SpanEvent e;
    if (const Value* v = ev.find("cat")) e.cat = v->str;
    if (const Value* v = ev.find("name")) e.name = v->str;
    if (const Value* v = ev.find("ts")) e.ts = v->number;
    if (const Value* v = ev.find("dur")) e.dur = v->number;
    if (const Value* v = ev.find("tid")) e.tid = static_cast<int64_t>(v->number);
    events.push_back(std::move(e));
  }
  compute_self_times(events);

  std::map<std::pair<std::string, std::string>, SpanStats> spans;
  std::map<std::string, double> subsystem_self_us;
  for (const SpanEvent& e : events) {
    SpanStats& s = spans[{e.cat, e.name}];
    ++s.count;
    s.total_us += e.dur;
    s.self_us += e.self;
    s.min_us = std::min(s.min_us, e.dur);
    s.max_us = std::max(s.max_us, e.dur);
    subsystem_self_us[e.cat] += e.self;
  }

  if (emit_json) {
    std::ostringstream os;
    os.precision(17);
    os << "{\"trace\":\"" << json_escape(path) << "\",\"span_count\":" << events.size();
    os << ",\"spans\":[";
    bool first = true;
    for (const auto& [key, s] : spans) {
      if (!first) os << ",";
      first = false;
      os << "{\"subsystem\":\"" << json_escape(key.first) << "\",\"span\":\""
         << json_escape(key.second) << "\",\"count\":" << s.count
         << ",\"total_ms\":" << s.total_us / 1000.0 << ",\"self_ms\":" << s.self_us / 1000.0
         << ",\"mean_us\":" << s.total_us / static_cast<double>(s.count)
         << ",\"max_us\":" << s.max_us << "}";
    }
    os << "],\"subsystem_self_ms\":{";
    first = true;
    for (const auto& [cat, self_us] : subsystem_self_us) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(cat) << "\":" << self_us / 1000.0;
    }
    os << "},\"counters\":{";
    first = true;
    if (const Value* counters = root.find("gnrfetCounters");
        counters && counters->kind == Value::Kind::kObject) {
      for (const auto& [name, v] : counters->object) {
        if (!first) os << ",";
        first = false;
        os << "\"" << json_escape(name) << "\":" << static_cast<uint64_t>(v.number);
      }
    }
    os << "},\"histograms\":{";
    first = true;
    if (const Value* hists = root.find("gnrfetHistograms");
        hists && hists->kind == Value::Kind::kObject) {
      for (const auto& [name, h] : hists->object) {
        const Value* count = h.find("count");
        if (!count) continue;
        const Value* sum = h.find("sum");
        const Value* min = h.find("min");
        const Value* max = h.find("max");
        if (!first) os << ",";
        first = false;
        os << "\"" << json_escape(name) << "\":{\"count\":"
           << static_cast<uint64_t>(count->number) << ",\"sum\":" << (sum ? sum->number : 0.0)
           << ",\"min\":" << (min ? min->number : 0.0)
           << ",\"max\":" << (max ? max->number : 0.0) << "}";
      }
    }
    os << "}}";
    std::cout << os.str() << "\n";
    return 0;
  }

  // Column widths follow the data: std::setw is a minimum, so a span,
  // counter, or histogram name longer than a hard-coded width would shove
  // its row out of alignment (new metrics land here without this file
  // changing). Each table is sized to its longest name instead.
  int cat_w = static_cast<int>(std::string("subsystem").size());
  int span_w = static_cast<int>(std::string("span").size());
  for (const auto& [key, s] : spans) {
    (void)s;
    cat_w = std::max(cat_w, static_cast<int>(key.first.size()));
    span_w = std::max(span_w, static_cast<int>(key.second.size()));
  }
  cat_w += 2;
  span_w += 2;

  std::cout << "trace: " << argv[1] << " (" << events.size() << " spans)\n\n";
  std::cout << std::left << std::setw(cat_w) << "subsystem" << std::setw(span_w) << "span"
            << std::right << std::setw(10) << "count" << std::setw(14) << "total_ms"
            << std::setw(14) << "self_ms" << std::setw(12) << "mean_us" << std::setw(12)
            << "max_us" << "\n";
  for (const auto& [key, s] : spans) {
    std::cout << std::left << std::setw(cat_w) << key.first << std::setw(span_w) << key.second
              << std::right << std::setw(10) << s.count << std::setw(14)
              << fmt_ms(s.total_us) << std::setw(14) << fmt_ms(s.self_us) << std::setw(12)
              << std::fixed << std::setprecision(1)
              << s.total_us / static_cast<double>(s.count) << std::setw(12) << s.max_us
              << "\n";
  }

  std::cout << "\nper-subsystem self time:\n";
  std::vector<std::pair<std::string, double>> subsystems(subsystem_self_us.begin(),
                                                         subsystem_self_us.end());
  std::sort(subsystems.begin(), subsystems.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [cat, self_us] : subsystems) {
    std::cout << "  " << std::left << std::setw(cat_w) << cat << std::right << std::setw(14)
              << fmt_ms(self_us) << " ms\n";
  }

  if (const Value* counters = root.find("gnrfetCounters");
      counters && counters->kind == Value::Kind::kObject) {
    int name_w = 0;
    for (const auto& [name, v] : counters->object) {
      (void)v;
      name_w = std::max(name_w, static_cast<int>(name.size()));
    }
    // A derived row under its counter: the label indented two more
    // columns, padded by display width (the UTF-8 'µ' is two bytes).
    const auto derived_row = [&](const std::string& label, double value, int precision) {
      const int continuation_bytes = static_cast<int>(std::count_if(
          label.begin(), label.end(), [](char c) { return (c & 0xC0) == 0x80; }));
      std::cout << "  " << std::left << std::setw(name_w + 2 + continuation_bytes)
                << "  " + label << std::right << std::setw(14) << std::fixed
                << std::setprecision(precision) << value << "\n";
    };
    const auto positive = [&](const char* counter) -> const Value* {
      const Value* v = counters->find(counter);
      return v && v->number > 0 ? v : nullptr;
    };
    std::cout << "\ncounters:\n";
    for (const auto& [name, v] : counters->object) {
      std::cout << "  " << std::left << std::setw(name_w + 2) << name << std::right
                << std::setw(14) << static_cast<uint64_t>(v.number) << "\n";
      // The Newton work per accepted transient step (DC factorizations
      // included): a worse step start or a slower convergence shows here.
      if (const Value* steps = positive("transient_steps"); name == "mna_factorizations" && steps) {
        derived_row("per step", v.number / steps->number, 2);
      }
      // The MNA fill per factorization: a netlist or node-numbering change
      // that fills the Jacobian again shows up as a jump here. The row above
      // it, mna_symbolic_analyses, counts the factorizations that ran the
      // dense analysis; every other one replayed it (linalg::ReplayLU::factor
      // in linalg/lu.hpp decides which, and counts all three).
      if (const Value* factorizations = positive("mna_factorizations");
          name == "mna_elimination_updates" && factorizations) {
        derived_row("per factorization", v.number / factorizations->number, 1);
      }
      // The reduced-Poisson CG split into its two levers: the iterations
      // per Newton step, and the cost of one iteration (the
      // linalg/reduced_cg span time over the iterations it ran).
      if (name == "reduced_cg_iterations" && v.number > 0) {
        if (const Value* newton = positive("poisson_newton_iterations")) {
          derived_row("per Newton step", v.number / newton->number, 1);
        }
        if (const auto cg = spans.find({"linalg", "reduced_cg"}); cg != spans.end()) {
          derived_row("µs per iteration", cg->second.total_us / v.number, 2);
        }
      }
    }
  }

  if (const Value* hists = root.find("gnrfetHistograms");
      hists && hists->kind == Value::Kind::kObject) {
    int name_w = 0;
    for (const auto& [name, h] : hists->object) {
      (void)h;
      name_w = std::max(name_w, static_cast<int>(name.size()));
    }
    std::cout << "\nhistograms (per-call distributions):\n";
    for (const auto& [name, h] : hists->object) {
      const Value* count = h.find("count");
      if (!count || count->number <= 0) continue;
      const Value* sum = h.find("sum");
      const Value* min = h.find("min");
      const Value* max = h.find("max");
      std::cout << "  " << std::left << std::setw(name_w + 2) << name << std::right
                << " count=" << static_cast<uint64_t>(count->number)
                << " mean=" << std::setprecision(2)
                << (sum ? sum->number / count->number : 0.0)
                << " min=" << (min ? min->number : 0.0) << " max=" << (max ? max->number : 0.0)
                << "\n";
      if (const Value* buckets = h.find("buckets");
          buckets && buckets->kind == Value::Kind::kArray) {
        for (const Value& b : buckets->array) {
          if (b.array.size() != 2) continue;
          std::cout << "      >= " << std::setw(10) << b.array[0].number << " : "
                    << static_cast<uint64_t>(b.array[1].number) << "\n";
        }
      }
    }
  }
  return 0;
}
