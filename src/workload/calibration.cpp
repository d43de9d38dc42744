#include "workload/calibration.h"

#include <algorithm>

namespace cellrel {

const Calibration& default_calibration() {
  static const Calibration calibration{};
  return calibration;
}

double expected_device_records(const DeviceProfile& profile) {
  if (profile.model == nullptr) return 0.0;
  const Calibration& cal = default_calibration();
  const double prevalence =
      std::clamp(profile.model->paper_prevalence *
                     cal.isp_prevalence_factor[index_of(profile.isp)],
                 0.0, 1.0);
  // Mirrors DeviceRun::plan_sessions: the calibrated event target for a
  // failing device, scaled by its susceptibility draw.
  const double freq = profile.model->paper_frequency *
                      cal.isp_frequency_factor[index_of(profile.isp)];
  const double target_events =
      std::clamp(freq * profile.susceptibility / cal.susceptibility_mean, 1.0, 3000.0);
  // False-positive extras produce one record each per triggering episode
  // (~target_events / 1.32 episodes), and the legacy tail adds ~1.5%.
  const double episodes = std::max(1.0, target_events / 1.32);
  const double extras = episodes * (cal.fp_overload_rate + cal.fp_voice_call_rate +
                                    cal.fp_manual_disconnect_rate + cal.fp_balance_rate +
                                    0.015);
  return prevalence * (target_events + extras);
}

}  // namespace cellrel
