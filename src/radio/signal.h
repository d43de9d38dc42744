// Received signal strength (RSS) levels.
//
// Android buckets raw signal measurements into discrete levels; the paper
// uses levels 0 (worst) .. 5 (excellent). The simulation works on levels
// directly: base stations draw a level per session and no dBm value is
// modelled.

#ifndef CELLREL_RADIO_SIGNAL_H
#define CELLREL_RADIO_SIGNAL_H

#include <array>
#include <cstdint>

#include "radio/rat.h"

namespace cellrel {

/// Discrete signal level 0..5 as used throughout the paper's figures.
enum class SignalLevel : std::uint8_t {
  kLevel0 = 0,  // none / unusable
  kLevel1 = 1,  // poor
  kLevel2 = 2,  // moderate
  kLevel3 = 3,  // good
  kLevel4 = 4,  // great
  kLevel5 = 5,  // excellent
};

inline constexpr std::size_t kSignalLevelCount = 6;
inline constexpr std::array<SignalLevel, kSignalLevelCount> kAllSignalLevels = {
    SignalLevel::kLevel0, SignalLevel::kLevel1, SignalLevel::kLevel2,
    SignalLevel::kLevel3, SignalLevel::kLevel4, SignalLevel::kLevel5,
};

constexpr std::size_t index_of(SignalLevel l) { return static_cast<std::size_t>(l); }

constexpr SignalLevel signal_level_from_index(std::size_t i) {
  return static_cast<SignalLevel>(i < kSignalLevelCount ? i : kSignalLevelCount - 1);
}

}  // namespace cellrel

#endif  // CELLREL_RADIO_SIGNAL_H
