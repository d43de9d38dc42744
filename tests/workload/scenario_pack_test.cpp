// Scenario-pack conformance harness (DESIGN.md §13).
//
// Every scenario variant the pack ships — steady-state baseline, the
// waypoint mobility model, and the nationwide-incident families — must obey
// the same contract battery the core campaign does:
//   * bit-identity: metrics export, health report, query results and the
//     merged trace are byte/bit-identical across seeds x {1, 2, 4} threads;
//   * streaming-vs-materialized equality on every serialized surface;
//   * spill round-trip: a query re-executed over the shard spill CSVs
//     reproduces the materialized answer byte-for-byte;
//   * metrics surface: each enabled feature publishes its counters, and the
//     baseline export stays free of pack keys (byte-stable vs pre-pack);
//   * ground-truth scoring where the scenario injects it (degradation waves
//     feed detect::incident_coverage).
// Plus the workload-shape acceptance floor: a commuter-mobility campaign
// produces >= 10x more RAT transitions per device than baseline, and the
// Fig. 17 preset reflects the shift.
//
// The pure mobility/incident helpers (waypoint traces, region membership,
// degraded sets) are unit-tested at the bottom of this file.

#include "workload/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/csv_io.h"
#include "detect/detector.h"
#include "obs/export.h"
#include "query/engine.h"
#include "query/export.h"
#include "query/presets.h"
#include "workload/mobility.h"

namespace cellrel {
namespace {

Scenario pack_scenario(std::uint64_t seed, std::uint32_t threads) {
  Scenario sc;
  sc.device_count = 300;  // > 4 shards at 64 devices/shard
  sc.deployment.bs_count = 1000;
  sc.campaign_days = 20.0;
  sc.seed = seed;
  sc.threads = threads;
  // Every run answers the Fig. 17 panel and the incident triage ranking
  // inline, so query bit-identity rides the same battery.
  sc.inline_queries = {*query::find_preset("fig17"), *query::find_preset("incident")};
  return sc;
}

void configure_baseline(Scenario&) {}

void configure_mobility(Scenario& sc) {
  sc.mobility.enabled = true;
  sc.mobility.legs_per_day = 24.0;
  sc.mobility.commuter_fraction = 0.95;
}

void configure_incident(Scenario& sc) {
  sc.incident.degraded_clusters = 6;
  sc.incident.cluster_size = 8;
  sc.incident.degradation_start_day = 0.0;
  sc.incident.degradation_days = sc.campaign_days;  // whole-campaign wave
  sc.incident.degradation_severity = 25.0;
  sc.detect = true;  // the wave is detection ground truth
}

struct PackVariant {
  const char* name;
  void (*configure)(Scenario&);
};

constexpr PackVariant kVariants[] = {
    {"baseline", configure_baseline},
    {"mobility", configure_mobility},
    {"incident", configure_incident},
};

Scenario variant_scenario(const PackVariant& v, std::uint64_t seed,
                          std::uint32_t threads) {
  Scenario sc = pack_scenario(seed, threads);
  v.configure(sc);
  return sc;
}

/// FNV-1a fold over every deterministic field of the merged trace — a cheap
/// exact-equality proxy so the battery does not hold N full datasets alive.
std::uint64_t trace_digest(const TraceDataset& ds) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const TraceRecord& r : ds.records) {
    mix(r.device);
    mix(static_cast<std::uint64_t>(r.model_id));
    mix(static_cast<std::uint64_t>(index_of(r.isp)));
    mix(static_cast<std::uint64_t>(index_of(r.type)));
    mix(static_cast<std::uint64_t>(r.at.since_origin().count_us()));
    mix(static_cast<std::uint64_t>(r.duration.count_us()));
    mix(static_cast<std::uint64_t>(index_of(r.rat)));
    mix(static_cast<std::uint64_t>(index_of(r.level)));
    mix(static_cast<std::uint64_t>(r.bs));
    mix(static_cast<std::uint64_t>(r.cause));
    mix(r.filtered_false_positive ? 1u : 0u);
    mix(r.probe_rounds);
  }
  for (const TransitionRecord& t : ds.transitions) {
    mix(t.device);
    mix(static_cast<std::uint64_t>(index_of(t.from_rat)));
    mix(static_cast<std::uint64_t>(index_of(t.from_level)));
    mix(static_cast<std::uint64_t>(index_of(t.to_rat)));
    mix(static_cast<std::uint64_t>(index_of(t.to_level)));
    mix(t.failure_within_window ? 1u : 0u);
  }
  return h;
}

std::uint64_t rat_transition_count(const TraceDataset& ds) {
  std::uint64_t n = 0;
  for (const TransitionRecord& t : ds.transitions) {
    if (t.from_rat != t.to_rat) ++n;
  }
  return n;
}

/// Serialized faces of one run, compared as whole strings.
struct RunFaces {
  std::string metrics_json;
  std::string health_json;  // empty when detection is off
  std::vector<std::string> query_json;
};

RunFaces faces_of(const CampaignResult& result) {
  RunFaces f;
  f.metrics_json = obs::metrics_to_json(result.metrics);
  if (result.health) f.health_json = detect::health_report_to_json(*result.health);
  for (const query::QueryResult& qr : result.query_results) {
    f.query_json.push_back(query::query_result_to_json(qr));
  }
  return f;
}

void expect_same_faces(const RunFaces& a, const RunFaces& b) {
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.health_json, b.health_json);
  ASSERT_EQ(a.query_json.size(), b.query_json.size());
  for (std::size_t i = 0; i < a.query_json.size(); ++i) {
    EXPECT_EQ(a.query_json[i], b.query_json[i]) << "query " << i;
  }
}

class ScenarioPackTest : public ::testing::Test {
 protected:
  void SetUp() override { ::unsetenv("CELLREL_THREADS"); }
};

TEST_F(ScenarioPackTest, EveryVariantValidatesClean) {
  for (const PackVariant& v : kVariants) {
    SCOPED_TRACE(v.name);
    EXPECT_TRUE(variant_scenario(v, 11, 1).validate().empty());
  }
}

// The core contract: every variant, bit-identical across 3 seeds x {1,2,4}
// threads — serialized faces byte-equal, merged trace digest-equal.
TEST_F(ScenarioPackTest, BitIdenticalAcrossSeedsAndThreads) {
  for (const PackVariant& v : kVariants) {
    SCOPED_TRACE(v.name);
    for (const std::uint64_t seed : {11ULL, 71ULL, 2021ULL}) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      const CampaignResult ref = Campaign(variant_scenario(v, seed, 1)).run();
      const RunFaces ref_faces = faces_of(ref);
      const std::uint64_t ref_digest = trace_digest(ref.dataset);
      ASSERT_EQ(ref.query_results.size(), 2u);
      for (const std::uint32_t threads : {2u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const CampaignResult run = Campaign(variant_scenario(v, seed, threads)).run();
        expect_same_faces(ref_faces, faces_of(run));
        EXPECT_EQ(trace_digest(run.dataset), ref_digest);
        EXPECT_EQ(run.dataset.records.size(), ref.dataset.records.size());
        EXPECT_EQ(run.simulated_events, ref.simulated_events);
      }
    }
  }
}

// Streaming merge must produce the same serialized faces as the
// materialized merge, and a query re-executed over the spill shards it left
// behind must reproduce the materialized answer byte-for-byte.
TEST_F(ScenarioPackTest, StreamingAndSpillRoundTripMatchMaterialized) {
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() / "cellrel_scenario_pack_test";
  std::filesystem::remove_all(base);
  for (const PackVariant& v : kVariants) {
    SCOPED_TRACE(v.name);
    const CampaignResult mat = Campaign(variant_scenario(v, 11, 1)).run();

    const std::filesystem::path spill_dir = base / (std::string("spill-") + v.name);
    Scenario str_sc = variant_scenario(v, 11, 4);
    str_sc.stream = true;
    str_sc.spill_dir = spill_dir.string();
    const CampaignResult streamed = Campaign(str_sc).run();
    expect_same_faces(faces_of(mat), faces_of(streamed));

    // Spill round-trip through the record-backed incident preset, sidecars
    // from the materialized dataset's CSV round-trip.
    const std::filesystem::path ds_dir = base / (std::string("ds-") + v.name);
    write_dataset_csv(mat.dataset, ds_dir);
    const TraceDataset sidecars = read_dataset_sidecars_csv(ds_dir);
    const query::QuerySpec spec = *query::find_preset("incident");
    const query::QueryResult from_spill =
        query::execute_over_spill(spill_dir, sidecars, spec);
    const query::QueryResult from_mat = query::execute_over_dataset(mat.dataset, spec);
    EXPECT_EQ(query::query_result_to_json(from_spill),
              query::query_result_to_json(from_mat));
    EXPECT_EQ(query::query_result_to_csv(from_spill),
              query::query_result_to_csv(from_mat));
  }
  std::filesystem::remove_all(base);
}

// Feature-gated metrics: enabled features publish their counters; the
// baseline export carries no pack keys at all (its bytes cannot depend on
// the pack existing).
TEST_F(ScenarioPackTest, MetricsSurfaceIsFeatureGated) {
  const CampaignResult baseline = Campaign(variant_scenario(kVariants[0], 11, 2)).run();
  const std::string baseline_json = obs::metrics_to_json(baseline.metrics);
  EXPECT_EQ(baseline_json.find("mobility."), std::string::npos);
  EXPECT_EQ(baseline_json.find("scenario."), std::string::npos);
  EXPECT_EQ(baseline_json.find("nan"), std::string::npos);

  const CampaignResult mobility = Campaign(variant_scenario(kVariants[1], 11, 2)).run();
  EXPECT_GT(mobility.metrics.counters().at("mobility.waypoints").value, 0u);
  EXPECT_GT(mobility.metrics.counters().at("mobility.handover_sessions").value, 0u);
  EXPECT_EQ(mobility.metrics.counters().count("scenario.degraded.sessions"), 0u);

  const CampaignResult incident = Campaign(variant_scenario(kVariants[2], 11, 2)).run();
  EXPECT_GT(incident.metrics.counters().at("scenario.degraded.sessions").value, 0u);
  EXPECT_EQ(incident.metrics.counters().count("mobility.waypoints"), 0u);
  EXPECT_EQ(obs::metrics_to_json(incident.metrics).find("nan"), std::string::npos);
}

// Acceptance floor: the commuter workload multiplies RAT transitions per
// device by >= 10x, and the Fig. 17 preset answer shifts with it.
TEST_F(ScenarioPackTest, MobilityMultipliesRatTransitionsTenfold) {
  const CampaignResult baseline = Campaign(variant_scenario(kVariants[0], 11, 1)).run();
  const CampaignResult mobility = Campaign(variant_scenario(kVariants[1], 11, 1)).run();

  const std::uint64_t base_n = rat_transition_count(baseline.dataset);
  const std::uint64_t mob_n = rat_transition_count(mobility.dataset);
  ASSERT_GT(base_n, 0u);
  // Same fleet size on both sides, so the per-device ratio is the raw ratio.
  EXPECT_GE(mob_n, 10u * base_n)
      << "mobility " << mob_n << " vs baseline " << base_n << " RAT transitions";

  // Fig. 17 reflects the shift: more populated transition cells, different
  // serialized answer.
  ASSERT_EQ(baseline.query_results.size(), 2u);
  ASSERT_EQ(mobility.query_results.size(), 2u);
  const auto populated = [](const query::QueryResult& qr) {
    std::size_t n = 0;
    for (const auto& row : qr.matrix) {
      for (double cell : row) {
        if (cell != 0.0) ++n;
      }
    }
    return n;
  };
  EXPECT_GE(populated(mobility.query_results[0]), populated(baseline.query_results[0]));
  EXPECT_NE(query::query_result_to_json(mobility.query_results[0]),
            query::query_result_to_json(baseline.query_results[0]));
}

// Degradation waves are injected ground truth: the scored health report must
// cover a solid fraction of the affected set, deterministically.
TEST_F(ScenarioPackTest, IncidentGroundTruthFeedsDetectionScoring) {
  const Scenario sc = variant_scenario(kVariants[2], 11, 2);
  const CampaignResult result = Campaign(sc).run();
  ASSERT_NE(result.health, nullptr);
  ASSERT_TRUE(result.health->scored);

  const std::vector<BsIndex> affected =
      degraded_bs_set(sc.incident, sc.deployment.bs_count);
  ASSERT_FALSE(affected.empty());
  const double coverage = detect::incident_coverage(*result.health, affected);
  EXPECT_GE(coverage, 0.25) << "detector lost the degradation wave";
  EXPECT_LE(coverage, 1.0);

  // The wave actually bent the workload: degraded sessions were recorded,
  // and empty affected sets are vacuously covered.
  EXPECT_GT(result.metrics.counters().at("scenario.degraded.sessions").value, 0u);
  EXPECT_EQ(detect::incident_coverage(*result.health, {}), 1.0);
}

// ---------------------------------------------------------------------------
// Pure helpers: waypoint traces and incident membership functions.
// ---------------------------------------------------------------------------

MobilityProfile test_profile() { return MobilityProfile{}; }

TEST(MobilityModel, DisabledConfigYieldsEmptyTrace) {
  Rng rng(7);
  MobilityConfig off;
  EXPECT_TRUE(build_waypoint_trace(off, test_profile(), 10.0, rng).empty());
}

TEST(MobilityModel, TraceIsStrictlyMonotonicAndOriginPinned) {
  MobilityConfig cfg;
  cfg.enabled = true;
  cfg.legs_per_day = 24.0;
  cfg.commuter_fraction = 0.95;
  for (std::uint64_t salt = 0; salt < 50; ++salt) {
    Rng rng(1000 + salt);
    const auto trace = build_waypoint_trace(cfg, test_profile(), 20.0, rng);
    ASSERT_GE(trace.size(), 2u) << "salt " << salt;
    EXPECT_EQ(trace.front().at.since_origin().count_us(), 0) << "salt " << salt;
    for (std::size_t i = 1; i < trace.size(); ++i) {
      EXPECT_LT(trace[i - 1].at.since_origin().count_us(),
                trace[i].at.since_origin().count_us())
          << "salt " << salt << " waypoint " << i;
    }
  }
}

TEST(MobilityModel, TraceIsAPureFunctionOfItsInputs) {
  MobilityConfig cfg;
  cfg.enabled = true;
  Rng a(42), b(42);
  const auto ta = build_waypoint_trace(cfg, test_profile(), 7.0, a);
  const auto tb = build_waypoint_trace(cfg, test_profile(), 7.0, b);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].at.since_origin().count_us(), tb[i].at.since_origin().count_us());
    EXPECT_EQ(ta[i].loc, tb[i].loc);
  }
}

TEST(MobilityModel, LegsPerDayControlsTraceLength) {
  MobilityConfig sparse, dense;
  sparse.enabled = dense.enabled = true;
  sparse.legs_per_day = 2.0;
  dense.legs_per_day = 24.0;
  Rng ra(5), rb(5);
  const auto a = build_waypoint_trace(sparse, test_profile(), 10.0, ra);
  const auto b = build_waypoint_trace(dense, test_profile(), 10.0, rb);
  EXPECT_EQ(a.size(), 21u);  // legs_per_day * days + origin
  EXPECT_EQ(b.size(), 241u);
}

TEST(IncidentModel, DegradedSetIsSortedUniqueAndMatchesThePredicate) {
  IncidentConfig cfg;
  cfg.degraded_clusters = 6;
  cfg.cluster_size = 8;
  const std::size_t bs_count = 1000;
  const std::vector<BsIndex> set = degraded_bs_set(cfg, bs_count);
  EXPECT_EQ(set.size(), 48u);
  EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
  EXPECT_EQ(std::adjacent_find(set.begin(), set.end()), set.end());
  std::size_t members = 0;
  for (std::size_t b = 0; b < bs_count; ++b) {
    const bool in = in_degraded_cluster(cfg, bs_count, static_cast<BsIndex>(b));
    const bool listed =
        std::binary_search(set.begin(), set.end(), static_cast<BsIndex>(b));
    EXPECT_EQ(in, listed) << "bs " << b;
    if (in) ++members;
  }
  EXPECT_EQ(members, set.size());
}

TEST(IncidentModel, TinyRegistryClampsAndDeduplicatesClusters) {
  IncidentConfig cfg;
  cfg.degraded_clusters = 4;
  cfg.cluster_size = 8;
  const std::vector<BsIndex> set = degraded_bs_set(cfg, 10);
  EXPECT_FALSE(set.empty());
  EXPECT_LE(set.size(), 10u);
  EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
  EXPECT_EQ(std::adjacent_find(set.begin(), set.end()), set.end());
  EXPECT_FALSE(in_degraded_cluster(cfg, 10, static_cast<BsIndex>(10)));
}

TEST(IncidentModel, OutageRegionMembershipIsDeterministicAndBounded) {
  // Stateless hash membership: same answer every call, empty at 0, total at
  // 1, and the realized fraction tracks the requested one.
  for (const double fraction : {0.0, 0.1, 0.25, 0.5, 1.0}) {
    std::size_t members = 0;
    for (std::size_t b = 0; b < 2000; ++b) {
      const bool in = in_outage_region(static_cast<BsIndex>(b), fraction);
      EXPECT_EQ(in, in_outage_region(static_cast<BsIndex>(b), fraction));
      if (in) ++members;
    }
    const double realized = static_cast<double>(members) / 2000.0;
    EXPECT_NEAR(realized, fraction, 0.05) << "fraction " << fraction;
    if (fraction == 0.0) {
      EXPECT_EQ(members, 0u);
    }
    if (fraction == 1.0) {
      EXPECT_EQ(members, 2000u);
    }
  }
}

TEST(IncidentModel, IncidentWindowIsHalfOpen) {
  const SimTime start = SimTime::origin() + SimDuration::days(5.0);
  const SimTime end = SimTime::origin() + SimDuration::days(8.0);
  EXPECT_TRUE(in_incident_window(5.0, 3.0, start));
  EXPECT_TRUE(in_incident_window(5.0, 3.0, start + SimDuration::days(1.5)));
  EXPECT_FALSE(in_incident_window(5.0, 3.0, end));
  EXPECT_FALSE(in_incident_window(5.0, 3.0, SimTime::origin()));
}

TEST(IncidentModel, NetworkFaultNamesRoundTrip) {
  for (const NetworkFault f : kAllNetworkFaults) {
    const auto parsed = parse_network_fault(to_string(f));
    ASSERT_TRUE(parsed.has_value()) << to_string(f);
    EXPECT_EQ(*parsed, f);
  }
  EXPECT_FALSE(parse_network_fault("carrier-pigeon-outage").has_value());
}

}  // namespace
}  // namespace cellrel
