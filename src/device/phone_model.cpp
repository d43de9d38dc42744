#include "device/phone_model.h"

#include <array>
#include <stdexcept>
#include <vector>

namespace cellrel {

namespace {

using AV = AndroidVersion;

// Table 1 verbatim: model, CPU GHz, RAM GB, storage GB, 5G, Android,
// user share, prevalence, frequency.
constexpr std::array<PhoneModelSpec, 34> kModels = {{
    {1, 1.80, 2, 16, false, AV::kAndroid10, 0.0271, 0.28, 35.9},
    {2, 1.95, 2, 16, false, AV::kAndroid9, 0.0302, 0.13, 23.8},
    {3, 2.00, 2, 16, false, AV::kAndroid9, 0.0731, 0.10, 13.8},
    {4, 2.00, 3, 32, false, AV::kAndroid9, 0.0390, 0.19, 22.4},
    {5, 2.00, 3, 32, false, AV::kAndroid9, 0.0285, 0.21, 28.2},
    {6, 2.00, 3, 32, false, AV::kAndroid10, 0.0433, 0.04, 5.3},
    {7, 2.00, 3, 32, false, AV::kAndroid10, 0.0144, 0.05, 6.4},
    {8, 2.00, 3, 32, false, AV::kAndroid9, 0.0407, 0.0015, 2.3},
    {9, 2.00, 3, 32, false, AV::kAndroid10, 0.0547, 0.02, 2.6},
    {10, 2.20, 4, 32, false, AV::kAndroid9, 0.0578, 0.27, 36.8},
    {11, 1.80, 4, 64, false, AV::kAndroid10, 0.0118, 0.25, 28.5},
    {12, 2.00, 4, 64, false, AV::kAndroid10, 0.0144, 0.33, 43.5},
    {13, 2.05, 6, 64, false, AV::kAndroid10, 0.0539, 0.26, 18.7},
    {14, 2.20, 6, 64, false, AV::kAndroid9, 0.0298, 0.15, 17.9},
    {15, 2.20, 4, 128, false, AV::kAndroid10, 0.0398, 0.25, 26.7},
    {16, 2.20, 4, 128, false, AV::kAndroid10, 0.0302, 0.19, 28.0},
    {17, 2.20, 6, 64, false, AV::kAndroid10, 0.0109, 0.28, 48.4},
    {18, 2.20, 6, 64, false, AV::kAndroid10, 0.0026, 0.13, 38.8},
    {19, 2.20, 6, 64, false, AV::kAndroid10, 0.0131, 0.24, 44.8},
    {20, 2.20, 6, 64, false, AV::kAndroid10, 0.0057, 0.21, 33.0},
    {21, 2.20, 6, 64, false, AV::kAndroid10, 0.0280, 0.36, 46.6},
    {22, 2.20, 6, 128, false, AV::kAndroid9, 0.0044, 0.38, 61.1},
    {23, 2.40, 6, 64, true, AV::kAndroid10, 0.0084, 0.44, 49.6},
    {24, 2.40, 6, 128, true, AV::kAndroid10, 0.0325, 0.37, 38.0},
    {25, 2.45, 6, 64, false, AV::kAndroid9, 0.0499, 0.14, 19.6},
    {26, 2.45, 6, 64, false, AV::kAndroid9, 0.0215, 0.17, 24.6},
    {27, 2.80, 6, 64, false, AV::kAndroid10, 0.0184, 0.22, 54.2},
    {28, 2.80, 6, 64, false, AV::kAndroid10, 0.0714, 0.28, 58.1},
    {29, 2.80, 6, 64, false, AV::kAndroid10, 0.0131, 0.30, 65.1},
    {30, 2.80, 6, 128, false, AV::kAndroid10, 0.0101, 0.30, 90.2},
    {31, 2.84, 6, 64, false, AV::kAndroid10, 0.0188, 0.28, 61.7},
    {32, 2.84, 6, 64, false, AV::kAndroid10, 0.0363, 0.29, 57.8},
    {33, 2.84, 8, 128, true, AV::kAndroid10, 0.0478, 0.32, 70.9},
    {34, 2.84, 8, 256, true, AV::kAndroid10, 0.0184, 0.25, 79.3},
}};

}  // namespace

std::span<const PhoneModelSpec> phone_models() { return kModels; }

const PhoneModelSpec& phone_model(int model_id) {
  if (model_id < 1 || model_id > static_cast<int>(kModels.size())) {
    throw std::out_of_range("phone_model: model_id must be in [1, 34]");
  }
  return kModels[static_cast<std::size_t>(model_id - 1)];
}

PhoneModelSampler::PhoneModelSampler() {
  std::vector<double> weights;
  weights.reserve(kModels.size());
  for (const auto& m : kModels) weights.push_back(m.user_share);
  table_ = AliasTable{weights};
}

const PhoneModelSpec& PhoneModelSampler::sample(Rng& rng) const {
  return kModels[table_.sample(rng)];
}

}  // namespace cellrel
