#include "telephony/data_connection.h"

#include <gtest/gtest.h>

#include <tuple>

namespace cellrel {
namespace {

TEST(DataConnection, StartsInactive) {
  DataConnection dc;
  EXPECT_EQ(dc.state(), DcState::kInactive);
  EXPECT_FALSE(dc.is_active());
  EXPECT_EQ(dc.transition_count(), 0u);
}

TEST(DataConnection, HappyPathLifecycle) {
  DataConnection dc;
  SimTime t = SimTime::origin();
  dc.transition(DcState::kActivating, t);
  dc.transition(DcState::kActive, t + SimDuration::seconds(1));
  EXPECT_TRUE(dc.is_active());
  dc.transition(DcState::kDisconnect, t + SimDuration::seconds(2));
  dc.transition(DcState::kInactive, t + SimDuration::seconds(3));
  EXPECT_EQ(dc.transition_count(), 4u);
  EXPECT_EQ(dc.retry_count(), 0u);
}

TEST(DataConnection, RetryLoopCountsRetries) {
  DataConnection dc;
  const SimTime t = SimTime::origin();
  dc.transition(DcState::kActivating, t);
  dc.transition(DcState::kRetrying, t);
  dc.transition(DcState::kActivating, t);
  dc.transition(DcState::kRetrying, t);
  dc.transition(DcState::kActivating, t);
  dc.transition(DcState::kActive, t);
  EXPECT_EQ(dc.retry_count(), 2u);
}

TEST(DataConnection, IllegalTransitionThrows) {
  DataConnection dc;
  EXPECT_THROW(dc.transition(DcState::kActive, SimTime::origin()), std::logic_error);
  EXPECT_EQ(dc.state(), DcState::kInactive);  // state unchanged after throw
}

TEST(DataConnection, LastTransitionTimestamp) {
  DataConnection dc;
  const SimTime t = SimTime::origin() + SimDuration::seconds(42);
  dc.transition(DcState::kActivating, t);
  EXPECT_EQ(dc.last_transition_at(), t);
}

// Exhaustive transition matrix (Fig. 1): only these edges are legal.
class DcTransitionMatrixTest
    : public ::testing::TestWithParam<std::tuple<DcState, DcState>> {};

TEST_P(DcTransitionMatrixTest, MatchesFigure1) {
  const auto [from, to] = GetParam();
  const bool expected = [&] {
    if (from == to) return false;
    switch (from) {
      case DcState::kInactive:
        return to == DcState::kActivating;
      case DcState::kActivating:
        return to == DcState::kActive || to == DcState::kRetrying ||
               to == DcState::kDisconnect || to == DcState::kInactive;
      case DcState::kRetrying:
        return to == DcState::kActivating || to == DcState::kInactive ||
               to == DcState::kDisconnect;
      case DcState::kActive:
        return to == DcState::kDisconnect;
      case DcState::kDisconnect:
        return to == DcState::kInactive;
    }
    return false;
  }();
  EXPECT_EQ(dc_transition_allowed(from, to), expected)
      << to_string(from) << " -> " << to_string(to);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, DcTransitionMatrixTest,
    ::testing::Combine(::testing::Values(DcState::kInactive, DcState::kActivating,
                                         DcState::kRetrying, DcState::kActive,
                                         DcState::kDisconnect),
                       ::testing::Values(DcState::kInactive, DcState::kActivating,
                                         DcState::kRetrying, DcState::kActive,
                                         DcState::kDisconnect)));

TEST(ServiceStateNames, Strings) {
  EXPECT_EQ(to_string(DcState::kInactive), "Inactive");
  EXPECT_EQ(to_string(DcState::kActivating), "Activating");
  EXPECT_EQ(to_string(DcState::kRetrying), "Retrying");
  EXPECT_EQ(to_string(DcState::kActive), "Active");
  EXPECT_EQ(to_string(DcState::kDisconnect), "Disconnect");
}

}  // namespace
}  // namespace cellrel
