// cellrel_scorecard — the paper-fidelity scorecard.
//
// Runs the baseline campaign and its stability-policy, TIMP-recovery and
// unprobed-detection variants at bench scale (4,000 devices, 8,000 BSes)
// from one seed, anneals Eq. 1 once on the baseline's stall durations, then
// prints one row per paper claim: id, paper value, measured value,
// tolerance and verdict, followed by the reasons of the expected
// deviations. Exits 1 naming every claim that fails without such a reason.
//
//   cellrel_scorecard                 # seed 20200101, the EXPERIMENTS.md copy
//   cellrel_scorecard --seed 71

#include <cstdio>

#include "cli.h"
#include "scorecard.h"

int main(int argc, char** argv) {
  using namespace cellrel;
  std::uint64_t seed = 20200101;
  cli::Parser parser("cellrel_scorecard");
  parser.add_option("--seed", "N", "campaign seed (default 20200101)", cli::u64_value(&seed));
  const cli::ParseResult parsed = parser.parse(argc, argv);
  if (parsed.help_requested) {
    std::fputs(parser.usage().c_str(), stdout);
    return 0;
  }
  if (!parsed.ok || !parsed.positionals.empty()) {
    std::fputs(parser.usage().c_str(), stderr);
    return 2;
  }

  Scenario base;
  base.name = "scorecard";
  base.seed = seed;
  base.device_count = scorecard::kDevices;
  base.deployment.bs_count = scorecard::kBaseStations;
  base.threads = 0;  // one per hardware thread; the result is thread-count-identical
  const scorecard::Runs runs = scorecard::run_campaigns(base);
  const std::vector<Comparison> claims = scorecard::evaluate(
      runs.scenario, runs.baseline, runs.stability, runs.timp, runs.unprobed);
  std::fputs(scorecard::render(claims, seed).c_str(), stdout);

  const std::vector<std::string> failing = scorecard::failing_claims(claims);
  if (failing.empty()) return 0;
  std::fputs("cellrel_scorecard: failing claims:", stderr);
  for (const auto& id : failing) std::fprintf(stderr, " %s", id.c_str());
  std::fputs("\n", stderr);
  return 1;
}
