// Shard executor + deterministic sharding helper tests.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.h"

namespace cellrel {
namespace {

TEST(ForEachShard, HardwareThreadsIsPositive) { EXPECT_GE(hardware_threads(), 1u); }

TEST(ForEachShard, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> runs(100);
  for_each_shard(runs.size(), 4, [&runs](std::size_t i) { ++runs[i]; });
  for (std::size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}

TEST(ForEachShard, OneThreadRunsInIndexOrderOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool all_on_caller = true;
  for_each_shard(50, 1, [&](std::size_t i) {
    order.push_back(i);
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
  });
  std::vector<std::size_t> expected(50);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(all_on_caller);
}

TEST(ForEachShard, StartsNoMoreThreadsThanIndices) {
  std::mutex mutex;
  std::set<std::thread::id> workers;
  for_each_shard(3, 8, [&](std::size_t) {
    // Hold each index long enough that an idle extra worker would have
    // taken one if it existed.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::lock_guard<std::mutex> lock(mutex);
    workers.insert(std::this_thread::get_id());
  });
  EXPECT_GE(workers.size(), 1u);
  EXPECT_LE(workers.size(), 3u);
}

TEST(ForEachShard, ZeroIndicesRunNothing) {
  int runs = 0;
  for_each_shard(0, 4, [&runs](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 0);
}

TEST(ForEachShard, RethrowsTheLowestFailingIndexAfterEveryIndexRan) {
  for (const std::size_t threads : {1UL, 4UL}) {
    std::atomic<int> ran{0};
    try {
      for_each_shard(40, threads, [&ran](std::size_t i) {
        ++ran;
        if (i == 29) throw std::runtime_error("shard 29");
        if (i == 7) throw std::runtime_error("shard 7");
      });
      ADD_FAILURE() << "no exception at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 7") << "threads=" << threads;
    }
    EXPECT_EQ(ran.load(), 40) << "threads=" << threads;
  }
}

TEST(ShardRangeHelpers, ShardCountForRoundsUp) {
  EXPECT_EQ(shard_count_for(0, 64), 1u);
  EXPECT_EQ(shard_count_for(1, 64), 1u);
  EXPECT_EQ(shard_count_for(64, 64), 1u);
  EXPECT_EQ(shard_count_for(65, 64), 2u);
  EXPECT_EQ(shard_count_for(20'000, 64), 313u);
  EXPECT_EQ(shard_count_for(10, 0), 10u);  // granularity clamped to 1
}

TEST(ShardRangeHelpers, PartitionIsContiguousBalancedAndComplete) {
  for (const std::size_t total : {0UL, 1UL, 7UL, 64UL, 150UL, 4001UL}) {
    for (const std::size_t shards : {1UL, 2UL, 3UL, 7UL, 64UL}) {
      std::size_t covered = 0;
      std::size_t previous_end = 0;
      std::size_t min_size = total + 1, max_size = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const ShardRange r = shard_range(total, shards, s);
        EXPECT_EQ(r.begin, previous_end);
        previous_end = r.end;
        covered += r.size();
        min_size = std::min(min_size, r.size());
        max_size = std::max(max_size, r.size());
      }
      EXPECT_EQ(previous_end, total);
      EXPECT_EQ(covered, total);
      EXPECT_LE(max_size - min_size, 1u) << total << "/" << shards;
    }
  }
}

TEST(ShardRangeHelpers, OutOfRangeShardIsAContractViolation) {
  ScopedCheckFailureHandler guard(throwing_check_failure_handler());
  EXPECT_THROW(shard_range(10, 2, 2), ContractViolation);
  EXPECT_THROW(shard_range(10, 0, 0), ContractViolation);
}

}  // namespace
}  // namespace cellrel
