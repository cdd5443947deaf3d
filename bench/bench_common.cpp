#include "bench_common.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/parallel.hpp"
#include "common/trace.hpp"

namespace gnrfet::bench {

std::string output_path(const std::string& name) {
  std::filesystem::create_directories("bench_out");
  return "bench_out/" + name + ".csv";
}

void save_csv(const csv::Table& table, const std::string& name) {
  const std::string path = output_path(name);
  table.save(path);
  std::printf("[csv] %s (%zu rows)\n", path.c_str(), table.num_rows());
}

void banner(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

PhaseTimer::PhaseTimer(std::string bench, std::string phase)
    : bench_(std::move(bench)), phase_(std::move(phase)), start_us_(trace::now_us()) {}

PhaseTimer::~PhaseTimer() { stop(); }

double PhaseTimer::stop() {
  if (seconds_ >= 0.0) return seconds_;
  // Phase rows and trace spans share the trace clock, so a
  // perf_timings.csv row can be matched against the spans it encloses.
  const double end_us = trace::now_us();
  seconds_ = (end_us - start_us_) * 1e-6;
  trace::emit_complete("bench", bench_ + "/" + phase_, start_us_, end_us - start_us_);
  std::filesystem::create_directories("bench_out");
  const std::string path = "bench_out/perf_timings.csv";
  const bool fresh = !std::filesystem::exists(path);
  std::ofstream out(path, std::ios::app);
  if (out) {
    if (fresh) out << "bench,phase,seconds,threads\n";
    out << bench_ << "," << phase_ << "," << seconds_ << "," << par::thread_count() << "\n";
  }
  std::printf("[time] %s/%s: %.3f s on %d thread(s)\n", bench_.c_str(), phase_.c_str(),
              seconds_, par::thread_count());
  return seconds_;
}

}  // namespace gnrfet::bench
