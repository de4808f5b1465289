#pragma once

#include <cstdint>
#include <string>

#include "facility/cooling.hpp"
#include "stream/engine.hpp"

namespace exawatt::scenario {

/// A declarative counterfactual: what to change about the recorded world
/// before replaying it. Every field defaults to "no intervention"; a
/// default-constructed spec is the identity scenario, whose replay is
/// bit-identical to a plain pue_rollup because apply() then installs no
/// hooks and replaces no parameters — the un-intervened code path runs
/// literally unchanged (gated in tests/test_e2e.cpp, `ctest -L scenario`).
struct ScenarioSpec {
  /// Label echoed through summaries ("cap-18MW", "feb-outage", ...).
  std::string name;
  /// > 0: clamp the rolled-up per-window cluster IT power to this many
  /// watts — the replay analogue of what a power-aware scheduler's
  /// `power::PowerAwareOptions::cluster_cap_w` enforces at schedule time.
  double power_cap_w = 0.0;
  /// Added to the weather trace's wet-bulb before the plant sees it
  /// (season shift: +6 turns shoulder weather into summer).
  double wet_bulb_offset_c = 0.0;
  /// Trim chillers carry the full load for the whole range (the paper's
  /// February tower-maintenance event that spiked PUE to ~1.3).
  bool force_chillers = false;
  /// Replace the weather trace wholesale (a different sampled year).
  bool has_weather_seed = false;
  std::uint64_t weather_seed = 0;
  /// Replace the cooling-plant tunables wholesale (e.g. a degraded
  /// tower approach, a better chiller COP).
  bool has_cooling = false;
  facility::CoolingParams cooling;

  /// True when apply() would change nothing.
  [[nodiscard]] bool is_identity() const;

  /// Out-of-contract values (negative cap, non-finite offsets,
  /// nonsensical cooling tunables) — checked before any plant is built
  /// so a hostile wire spec gets INVALID_ARGUMENT, not a crash.
  [[nodiscard]] bool valid(std::string* why) const;

  /// Install the interventions into `opts` (parameter replacement plus
  /// the `stream::RollupOptions` hooks). No-op for the identity spec.
  void apply(stream::EngineOptions& opts) const;
};

}  // namespace exawatt::scenario
