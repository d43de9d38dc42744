// The 34 studied phone models (paper Table 1).
//
// Each entry carries the hardware configuration, 5G capability, Android
// version, and the published user share. The published prevalence/frequency
// columns are kept as *reference* values: the workload calibration derives
// per-model failure hazards from them, and the reproduction then re-measures
// both quantities through the full pipeline (benches compare measured vs.
// paper).

#ifndef CELLREL_DEVICE_PHONE_MODEL_H
#define CELLREL_DEVICE_PHONE_MODEL_H

#include <cstdint>
#include <span>

#include "common/rng.h"

namespace cellrel {

/// Android OS major version shipped on a model during the study window.
enum class AndroidVersion : std::uint8_t {
  kAndroid9 = 9,
  kAndroid10 = 10,
};

/// Static description of one phone model (one row of Table 1).
struct PhoneModelSpec {
  int model_id = 0;  // 1..34, ordered low-end to high-end
  double cpu_ghz = 0.0;
  int memory_gb = 0;
  int storage_gb = 0;
  bool has_5g = false;
  AndroidVersion android = AndroidVersion::kAndroid9;
  double user_share = 0.0;  // fraction of the fleet (Table 1 "Users")
  // Published reference values used for calibration & comparison:
  double paper_prevalence = 0.0;  // fraction of devices with >= 1 failure
  double paper_frequency = 0.0;   // mean #failures among failing devices
};

/// All 34 models, index i holds model_id i+1.
std::span<const PhoneModelSpec> phone_models();

/// Lookup by model_id (1-based). Throws std::out_of_range for bad ids.
const PhoneModelSpec& phone_model(int model_id);

/// Samples a model according to the published user shares.
class PhoneModelSampler {
 public:
  PhoneModelSampler();
  const PhoneModelSpec& sample(Rng& rng) const;

 private:
  AliasTable table_;
};

}  // namespace cellrel

#endif  // CELLREL_DEVICE_PHONE_MODEL_H
