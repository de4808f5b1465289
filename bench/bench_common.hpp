#pragma once

// Shared harness glue for the figure/table benches: every bench binary
// first *regenerates its artifact* (prints the same rows/series the paper
// reports, plus a CSV dump next to the binary), then runs google-benchmark
// timings of the kernels involved. EXPERIMENTS.md records paper-vs-
// measured for each artifact.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace exawatt::bench {

/// Environment knob: EXAWATT_BENCH_SCALE=full promotes benches from their
/// fast default scale to the paper's 4,626-node machine where supported.
inline bool full_scale_requested() {
  const char* env = std::getenv("EXAWATT_BENCH_SCALE");
  return env != nullptr && std::string(env) == "full";
}

/// Standard simulation used by most figure benches: a multi-week window
/// at a configurable machine scale, seeded for exact reproducibility.
inline core::SimulationConfig standard_config(int nodes,
                                              util::TimeSec duration,
                                              util::TimeSec start = 0) {
  core::SimulationConfig config;
  config.scale = nodes >= machine::SummitSpec::kNodes
                     ? machine::MachineScale::full()
                     : machine::MachineScale::small(nodes);
  config.seed = 2020;
  config.range = {start, start + duration};
  return config;
}

/// Minimal machine-readable artifact: a flat JSON object of the headline
/// numbers a bench prints, written next to wherever the harness runs it
/// (scripts/reproduce_all.sh collects BENCH_*.json from the repo root).
/// Keys keep insertion order; numbers use enough digits to round-trip.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return raw(key, buf);
  }
  JsonObject& add(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& add(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& add(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& add(const std::string& key, const std::vector<double>& v) {
    std::string list = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.6g", i == 0 ? "" : ", ", v[i]);
      list += buf;
    }
    return raw(key, list + "]");
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{%s\n}\n", body_.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  JsonObject& raw(const std::string& key, const std::string& value) {
    body_ += body_.empty() ? "\n" : ",\n";
    body_ += "  \"" + key + "\": " + value;
    return *this;
  }

  std::string body_;
};

inline void print_header(const char* artifact, const char* claim) {
  std::printf("==================================================================\n");
  std::printf("%s\n", artifact);
  std::printf("paper: %s\n", claim);
  std::printf("==================================================================\n");
}

}  // namespace exawatt::bench
