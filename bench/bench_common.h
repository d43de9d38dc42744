// Shared plumbing for the bench binaries.
//
// The benches measure what the paper-fidelity scorecard (cellrel_scorecard)
// does not: the TIMP optimizer, monitoring overhead, the data-rate check,
// the ablations, detection cost and the campaign runner itself. Each runs
// its campaigns at a bench-scale fleet size.
//
// Scale knobs (environment):
//   CELLREL_BENCH_DEVICES  fleet size (default 4000)
//   CELLREL_BENCH_BS       base-station count (default 8000)
//   CELLREL_BENCH_SEED     campaign seed (default 20200101)

#ifndef CELLREL_BENCH_BENCH_COMMON_H
#define CELLREL_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/aggregate.h"
#include "analysis/report.h"
#include "cli.h"
#include "workload/campaign.h"

namespace cellrel::bench {

/// Reads an unsigned knob with the CLI tools' full-string rule; a value
/// that does not parse exits 2 naming the variable.
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  std::uint64_t parsed = 0;
  if (!cli::parse_u64(value, &parsed)) {
    std::fprintf(stderr, "%s: expected an unsigned integer, got '%s'\n", name, value);
    std::exit(2);
  }
  return parsed;
}

/// The bench-scale scenario; an unrunnable one (e.g. zero devices) exits 2.
inline Scenario bench_scenario(std::string name) {
  Scenario sc;
  sc.name = std::move(name);
  sc.device_count = static_cast<std::uint32_t>(env_u64("CELLREL_BENCH_DEVICES", 4000));
  sc.deployment.bs_count = static_cast<std::uint32_t>(env_u64("CELLREL_BENCH_BS", 8000));
  sc.seed = env_u64("CELLREL_BENCH_SEED", 20200101);
  if (const auto errors = sc.validate(); !errors.empty()) {
    std::fputs(format_errors(errors).c_str(), stderr);
    std::exit(2);
  }
  return sc;
}

inline void print_header(const char* artifact, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact, description);
  std::printf("==============================================================\n");
}

inline CampaignResult run_measurement(const char* artifact, const char* description) {
  print_header(artifact, description);
  Scenario sc = bench_scenario(artifact);
  std::printf("[campaign: %u devices, %u BSes, seed %llu]\n\n", sc.device_count,
              sc.deployment.bs_count, static_cast<unsigned long long>(sc.seed));
  Campaign campaign(sc);
  return campaign.run();
}

}  // namespace cellrel::bench

#endif  // CELLREL_BENCH_BENCH_COMMON_H
