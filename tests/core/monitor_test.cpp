// Integration tests for the Android-MOD monitoring service: a full device
// stack (telephony + network + monitor) driven through failure scenarios.

#include "core/monitor_service.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/android_mod.h"

namespace cellrel {
namespace {

struct DeviceHarness {
  Simulator sim;
  obs::MetricSink metrics;
  std::vector<TraceRecord> uploaded;
  int uploads = 0;
  AndroidMod mod;
  DeviceObservables observables;

  explicit DeviceHarness(AndroidMod::Config config = make_config())
      : mod(sim, Rng{11}, metrics, with_observables(std::move(config)),
            [this](std::span<TraceRecord> batch) {
              ++uploads;
              for (auto& r : batch) uploaded.push_back(std::move(r));
            }) {
    set_healthy_channel();
    mod.telephony().set_cell_context({4, Rat::k4G, SignalLevel::kLevel3});
  }

  static AndroidMod::Config make_config() {
    AndroidMod::Config c;
    c.identity = {77, 23, IspId::kIspB};
    return c;
  }

  /// The monitor reads the harness's observables (set by each test).
  AndroidMod::Config with_observables(AndroidMod::Config config) {
    config.monitor.observables = [this] { return observables; };
    return config;
  }

  void set_healthy_channel() {
    ChannelConditions cond;
    cond.level = SignalLevel::kLevel3;
    mod.telephony().ril().update_channel(cond);
  }
  void set_failing_channel() {
    ChannelConditions cond;
    cond.level = SignalLevel::kLevel3;
    cond.base_failure_prob = 1.0;
    mod.telephony().ril().update_channel(cond);
  }

  /// Drives app traffic for `seconds`, sending every 2 s and receiving only
  /// while the network path is healthy.
  void drive_traffic(double seconds) {
    auto& tm = mod.telephony();
    const SimTime end = sim.now() + SimDuration::seconds(seconds);
    for (SimTime t = sim.now(); t < end; t += SimDuration::seconds(2.0)) {
      sim.schedule_at(t, [&tm, this] {
        tm.tcp().on_segment_sent(sim.now());
        if (tm.network().fault() == NetworkFault::kNone) {
          tm.tcp().on_segment_received(sim.now());
        }
      });
    }
  }

  void finish() {
    mod.shutdown();
    sim.run();
  }

  std::uint64_t records_written() {
    return metrics.counter("monitor.records.written").value;
  }
};

TEST(MonitorService, SetupEpisodeRecordsEventsWithSplitDuration) {
  DeviceHarness h;
  h.set_failing_channel();
  h.mod.telephony().dc_tracker().request_data();
  h.sim.run_until(SimTime::origin() + SimDuration::seconds(8.0));
  h.set_healthy_channel();
  h.sim.run_until(SimTime::origin() + SimDuration::minutes(2.0));
  ASSERT_TRUE(h.mod.telephony().dc_tracker().connection().is_active());
  h.finish();

  ASSERT_GE(h.uploaded.size(), 2u);
  double total = 0.0;
  for (const auto& r : h.uploaded) {
    EXPECT_EQ(r.type, FailureType::kDataSetupError);
    EXPECT_EQ(r.device, 77u);
    EXPECT_EQ(r.model_id, 23);
    EXPECT_EQ(r.isp, IspId::kIspB);
    EXPECT_EQ(r.duration_method, DurationMethod::kStateTracking);
    EXPECT_FALSE(r.filtered_false_positive);
    EXPECT_NE(r.cause, FailCause::kNone);
    total += r.duration.to_seconds();
  }
  // The episode durations sum to the time from first failure to activation.
  EXPECT_GT(total, 1.0);
  EXPECT_LT(total, 125.0);
}

TEST(MonitorService, TeardownWhileRetryingClosesSetupEpisode) {
  // Giving up from Retrying leaves the connection Inactive without ever
  // activating: the episode closes there, its duration split evenly.
  DeviceHarness h;
  h.set_failing_channel();
  DcTracker& dct = h.mod.telephony().dc_tracker();
  dct.request_data();
  while (!(dct.setup_failures() >= 3 && dct.connection().state() == DcState::kRetrying) &&
         h.sim.step()) {
  }
  ASSERT_EQ(dct.connection().state(), DcState::kRetrying);
  EXPECT_EQ(h.records_written(), 0u);  // buffered until the close
  const SimTime gave_up = h.sim.now();
  dct.teardown();
  EXPECT_EQ(dct.connection().state(), DcState::kInactive);
  EXPECT_EQ(h.records_written(), dct.setup_failures());
  h.finish();

  ASSERT_EQ(h.uploaded.size(), dct.setup_failures());
  const double episode = (gave_up - h.uploaded.front().at).to_seconds();
  EXPECT_GT(episode, 0.0);
  for (const auto& r : h.uploaded) {
    EXPECT_EQ(r.type, FailureType::kDataSetupError);
    EXPECT_NEAR(r.duration.to_seconds(), episode / static_cast<double>(h.uploaded.size()),
                1e-5);
  }
}

TEST(MonitorService, VoiceDisruptionClosesThenReopensSetupEpisode) {
  // Dropping an Active connection for a voice call first closes the setup
  // episode at Inactive, then opens a new one with the call's own setup
  // error, which closes when the connection comes back.
  DeviceHarness h;
  h.set_failing_channel();
  DcTracker& dct = h.mod.telephony().dc_tracker();
  dct.request_data();
  h.sim.run_until(SimTime::origin() + SimDuration::seconds(4.0));
  h.set_healthy_channel();
  h.sim.run_until(SimTime::origin() + SimDuration::minutes(1.0));
  ASSERT_TRUE(dct.connection().is_active());
  const std::uint64_t before = h.records_written();
  ASSERT_EQ(before, dct.setup_failures());

  const SimTime disrupted = h.sim.now();
  dct.disrupt_by_voice_call();
  EXPECT_EQ(dct.connection().state(), DcState::kInactive);
  EXPECT_EQ(h.records_written(), before);  // the call's error is open
  h.sim.run_until(SimTime::origin() + SimDuration::minutes(2.0));
  ASSERT_TRUE(dct.connection().is_active());
  const SimTime reactivated = dct.connection().last_transition_at();
  EXPECT_EQ(h.records_written(), before + 1);
  h.finish();

  ASSERT_EQ(h.uploaded.size(), before + 1);
  const TraceRecord& call = h.uploaded.back();
  EXPECT_EQ(call.type, FailureType::kDataSetupError);
  EXPECT_EQ(call.cause, FailCause::kCdmaIncomingCall);
  EXPECT_EQ(call.at, disrupted);
  EXPECT_NEAR(call.duration.to_seconds(), (reactivated - disrupted).to_seconds(), 1e-5);
  EXPECT_GT(call.duration.to_seconds(), 2.0);  // the re-setup waits out the call
}

TEST(MonitorService, StallMeasuredByProbing) {
  DeviceHarness h;
  auto& tm = h.mod.telephony();
  tm.dc_tracker().request_data();
  h.sim.run_until(SimTime::origin() + SimDuration::seconds(5.0));
  ASSERT_TRUE(tm.dc_tracker().connection().is_active());

  tm.stall_detector().start();
  h.drive_traffic(400.0);
  // Outage starts at t=20 s and heals 90 s later.
  h.sim.schedule_at(SimTime::origin() + SimDuration::seconds(20.0), [&] {
    tm.network().inject_fault(NetworkFault::kNetworkStall);
  });
  h.sim.schedule_at(SimTime::origin() + SimDuration::seconds(110.0), [&] {
    tm.network().inject_fault(NetworkFault::kNone);
  });
  h.sim.run_until(SimTime::origin() + SimDuration::seconds(400.0));
  h.finish();

  const TraceRecord* stall = nullptr;
  for (const auto& r : h.uploaded) {
    if (r.type == FailureType::kDataStall) stall = &r;
  }
  ASSERT_NE(stall, nullptr);
  EXPECT_EQ(stall->duration_method, DurationMethod::kProbing);
  EXPECT_FALSE(stall->filtered_false_positive);
  EXPECT_GT(stall->probe_rounds, 1u);
  // Detection needs the 60 s TCP window to drain, so the measured duration
  // (detection -> heal) is below the raw 90 s outage but well above zero.
  EXPECT_GT(stall->duration.to_seconds(), 10.0);
  EXPECT_LT(stall->duration.to_seconds(), 90.0);
}

TEST(MonitorService, SystemSideStallFilteredByProber) {
  DeviceHarness h;
  auto& tm = h.mod.telephony();
  tm.dc_tracker().request_data();
  h.sim.run_until(SimTime::origin() + SimDuration::seconds(5.0));
  tm.stall_detector().start();
  h.drive_traffic(300.0);
  h.sim.schedule_at(SimTime::origin() + SimDuration::seconds(20.0), [&] {
    tm.network().inject_fault(NetworkFault::kProxyBroken);
  });
  h.sim.schedule_at(SimTime::origin() + SimDuration::seconds(200.0), [&] {
    tm.network().inject_fault(NetworkFault::kNone);
  });
  h.sim.run_until(SimTime::origin() + SimDuration::seconds(300.0));
  h.finish();

  const TraceRecord* stall = nullptr;
  for (const auto& r : h.uploaded) {
    if (r.type == FailureType::kDataStall) stall = &r;
  }
  ASSERT_NE(stall, nullptr);
  EXPECT_TRUE(stall->filtered_false_positive);
  EXPECT_EQ(stall->ground_truth_fp, FalsePositiveKind::kSystemSideStall);
}

TEST(MonitorService, VanillaFallbackRoundsToMinutes) {
  AndroidMod::Config config = DeviceHarness::make_config();
  config.monitor.use_probing = false;
  DeviceHarness h(std::move(config));
  auto& tm = h.mod.telephony();
  tm.dc_tracker().request_data();
  h.sim.run_until(SimTime::origin() + SimDuration::seconds(5.0));
  tm.stall_detector().start();
  h.drive_traffic(500.0);
  h.sim.schedule_at(SimTime::origin() + SimDuration::seconds(20.0), [&] {
    tm.network().inject_fault(NetworkFault::kNetworkStall);
  });
  h.sim.schedule_at(SimTime::origin() + SimDuration::seconds(130.0), [&] {
    tm.network().inject_fault(NetworkFault::kNone);
  });
  h.sim.run_until(SimTime::origin() + SimDuration::seconds(500.0));
  h.finish();

  const TraceRecord* stall = nullptr;
  for (const auto& r : h.uploaded) {
    if (r.type == FailureType::kDataStall) stall = &r;
  }
  ASSERT_NE(stall, nullptr);
  EXPECT_EQ(stall->duration_method, DurationMethod::kAndroidFallback);
  // Whole-minute granularity.
  const double d = stall->duration.to_seconds();
  EXPECT_DOUBLE_EQ(d, std::ceil(d / 60.0) * 60.0);
  EXPECT_GE(d, 60.0);
}

TEST(MonitorService, OosEpisodeTracked) {
  DeviceHarness h;
  auto& tm = h.mod.telephony();
  tm.enter_out_of_service();
  h.sim.schedule_after(SimDuration::seconds(73.0), [&] { tm.exit_out_of_service(); });
  h.sim.run();
  h.finish();
  ASSERT_EQ(h.uploaded.size(), 1u);
  const auto& r = h.uploaded.front();
  EXPECT_EQ(r.type, FailureType::kOutOfService);
  EXPECT_DOUBLE_EQ(r.duration.to_seconds(), 73.0);
  EXPECT_EQ(r.duration_method, DurationMethod::kStateTracking);
}

TEST(MonitorService, LegacyFailureRecordedInstantly) {
  DeviceHarness h;
  h.mod.telephony().report_legacy_failure(FailureType::kSmsSendFail);
  h.finish();
  ASSERT_EQ(h.uploaded.size(), 1u);
  EXPECT_EQ(h.uploaded.front().type, FailureType::kSmsSendFail);
  EXPECT_EQ(h.uploaded.front().duration_method, DurationMethod::kNone);
}

TEST(MonitorService, RecordsStayBufferedUntilUpload) {
  DeviceHarness h;
  h.mod.telephony().report_legacy_failure(FailureType::kSmsSendFail);
  h.sim.run_until(SimTime::origin() + SimDuration::minutes(1.0));
  h.mod.telephony().report_legacy_failure(FailureType::kVoiceCallDrop);
  EXPECT_EQ(h.records_written(), 2u);
  EXPECT_TRUE(h.uploaded.empty());
  h.mod.monitor().upload();
  EXPECT_EQ(h.uploaded.size(), 2u);
}

TEST(MonitorService, OneUploadDeliversRecordsInWriteOrder) {
  DeviceHarness h;
  TelephonyManager& tm = h.mod.telephony();
  tm.report_legacy_failure(FailureType::kSmsSendFail);
  tm.report_legacy_failure(FailureType::kVoiceCallDrop);
  tm.report_legacy_failure(FailureType::kSmsSendFail);
  h.mod.monitor().upload();
  EXPECT_EQ(h.uploads, 1);
  ASSERT_EQ(h.uploaded.size(), 3u);
  EXPECT_EQ(h.uploaded[0].type, FailureType::kSmsSendFail);
  EXPECT_EQ(h.uploaded[1].type, FailureType::kVoiceCallDrop);
  EXPECT_EQ(h.uploaded[2].type, FailureType::kSmsSendFail);
}

TEST(MonitorService, UploadBytesAreRecordSizesPlusOneEnvelopePerUpload) {
  DeviceHarness h;
  TelephonyManager& tm = h.mod.telephony();
  MonitorService& monitor = h.mod.monitor();
  tm.report_legacy_failure(FailureType::kSmsSendFail);
  tm.report_legacy_failure(FailureType::kVoiceCallDrop);
  monitor.upload();  // upload 1: two records
  tm.report_legacy_failure(FailureType::kSmsSendFail);
  monitor.upload();  // upload 2: one record
  monitor.upload();  // empty: no envelope
  EXPECT_EQ(h.uploads, 2);
  ASSERT_EQ(h.uploaded.size(), 3u);
  std::uint64_t record_bytes = 0;
  for (const TraceRecord& r : h.uploaded) record_bytes += compressed_record_bytes(r);
  const OverheadAccountant& oh = monitor.overhead();
  EXPECT_EQ(oh.storage_bytes(), record_bytes);
  EXPECT_EQ(oh.wifi_upload_bytes(), record_bytes + 2 * 64);
  // The first upload emptied the buffer: at most two records were ever held.
  EXPECT_EQ(oh.peak_memory_bytes(), OverheadAccountant::kMemoryBaseline +
                                        2 * OverheadAccountant::kMemoryPerBufferedRecord);
}

TEST(MonitorService, EmptyUploadDoesNothing) {
  DeviceHarness h;
  h.mod.monitor().upload();
  EXPECT_EQ(h.uploads, 0);
  EXPECT_EQ(h.mod.monitor().overhead().wifi_upload_bytes(), 0u);
  h.mod.telephony().report_legacy_failure(FailureType::kSmsSendFail);
  h.mod.monitor().upload();
  h.mod.monitor().upload();
  EXPECT_EQ(h.uploads, 1);
  EXPECT_EQ(h.uploaded.size(), 1u);
}

TEST(MonitorService, CellIdentityResolved) {
  AndroidMod::Config config = DeviceHarness::make_config();
  config.monitor.resolve_cell = [](BsIndex bs) {
    return CellIdentity{CellGlobalId{460, 0, 100, bs}};
  };
  DeviceHarness h(std::move(config));
  h.set_failing_channel();
  h.mod.telephony().dc_tracker().request_data();
  h.sim.run_until(SimTime::origin() + SimDuration::seconds(3.0));
  h.set_healthy_channel();
  h.sim.run_until(SimTime::origin() + SimDuration::minutes(2.0));
  h.finish();
  ASSERT_FALSE(h.uploaded.empty());
  const auto& cell = std::get<CellGlobalId>(h.uploaded.front().cell);
  EXPECT_EQ(cell.cid, 4u);
}

TEST(MonitorService, OverheadAccumulates) {
  DeviceHarness h;
  h.set_failing_channel();
  h.mod.telephony().dc_tracker().request_data();
  h.sim.run_until(SimTime::origin() + SimDuration::seconds(5.0));
  h.set_healthy_channel();
  h.sim.run_until(SimTime::origin() + SimDuration::minutes(2.0));
  h.finish();
  const auto& oh = h.mod.monitor().overhead();
  EXPECT_GT(oh.cpu_busy_time(), SimDuration::zero());
  EXPECT_GT(oh.storage_bytes(), 0u);
  EXPECT_EQ(h.records_written(), h.uploaded.size());
}

TEST(MonitorService, ObservablesFromConfigReachTheFilter) {
  // Setup errors during a voice call are the call's disruption, not a
  // network failure: the monitor reads the call state through the
  // observables source it was built with.
  DeviceHarness h;
  h.observables.in_voice_call = true;
  h.set_failing_channel();
  h.mod.telephony().dc_tracker().request_data();
  h.sim.run_until(SimTime::origin() + SimDuration::seconds(8.0));
  h.set_healthy_channel();
  h.sim.run_until(SimTime::origin() + SimDuration::minutes(2.0));
  h.finish();
  ASSERT_FALSE(h.uploaded.empty());
  for (const auto& r : h.uploaded) {
    EXPECT_EQ(r.type, FailureType::kDataSetupError);
    EXPECT_TRUE(r.filtered_false_positive);
  }
}

TEST(AndroidMod, RecoveryBridgeDrivesRecoverer) {
  // A deterministic recovery stage operation: stage 1 always fixes.
  NetworkStack* network = nullptr;
  std::vector<RecoveryEpisode> episodes;
  AndroidMod::Config config = DeviceHarness::make_config();
  config.telephony.execute_recovery_stage = [&network](RecoveryStage) {
    network->inject_fault(NetworkFault::kNone);
    return true;
  };
  config.telephony.on_recovery_episode = [&](const RecoveryEpisode& ep) {
    episodes.push_back(ep);
  };
  DeviceHarness h(std::move(config));
  auto& tm = h.mod.telephony();
  network = &tm.network();

  tm.dc_tracker().request_data();
  h.sim.run_until(SimTime::origin() + SimDuration::seconds(5.0));
  tm.stall_detector().start();
  h.drive_traffic(400.0);
  h.sim.schedule_at(SimTime::origin() + SimDuration::seconds(20.0), [&] {
    tm.network().inject_fault(NetworkFault::kNetworkStall);
  });
  h.sim.run_until(SimTime::origin() + SimDuration::seconds(400.0));
  h.finish();

  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(episodes[0].outcome, RecoveryOutcome::kFixedByStage);
  EXPECT_EQ(episodes[0].fixed_by, RecoveryStage::kCleanupConnection);
  // Vanilla probation: the stage ran 60 s after detection.
  EXPECT_NEAR(episodes[0].duration().to_seconds(), 60.0, 1.0);
}

}  // namespace
}  // namespace cellrel
