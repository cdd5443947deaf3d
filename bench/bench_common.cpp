#include "bench_common.hpp"

#include <cstdio>
#include <filesystem>

#include "common/parallel.hpp"

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

PhaseTimer::PhaseTimer(const char* name)
    : name_(name), start_us_(trace::now_us()), span_(std::in_place, "bench", name) {}

PhaseTimer::~PhaseTimer() { stop(); }

double PhaseTimer::stop() {
  if (seconds_ >= 0.0) return seconds_;
  span_.reset();
  seconds_ = (trace::now_us() - start_us_) * 1e-6;
  std::printf("[time] %s: %.3f s on %d thread(s)\n", name_, seconds_, par::thread_count());
  return seconds_;
}

}  // namespace gnrfet::bench
