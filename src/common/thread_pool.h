// The shard executor + deterministic sharding helpers.
//
// This is the only place in src/ where threading primitives are permitted
// (enforced by cellrel-lint's "threading" rule): all parallelism in the
// simulator is expressed as shard indices handed to for_each_shard, and
// every shard writes exclusively to its own result slot. Determinism
// therefore never depends on scheduling — workers may finish in any order,
// but results are merged in shard-index order, which is a pure function of
// the scenario.
//
// The sharding helpers live here (rather than in the campaign) so other
// fleet-scale workloads can reuse the same partition-and-merge discipline.

#ifndef CELLREL_COMMON_THREAD_POOL_H
#define CELLREL_COMMON_THREAD_POOL_H

#include <cstddef>
#include <functional>

namespace cellrel {

/// Runs fn(0) .. fn(count - 1), each index exactly once. With `threads <= 1`
/// or `count <= 1` the indices run in order on the calling thread; otherwise
/// min(threads, count) workers take indices from one shared counter. Every
/// index runs even when another throws; after all workers are joined, the
/// exception of the lowest failing index is rethrown.
void for_each_shard(std::size_t count, std::size_t threads,
                    const std::function<void(std::size_t)>& fn);

/// std::thread::hardware_concurrency(), never 0 (falls back to 1).
std::size_t hardware_threads();

/// One contiguous half-open range of a deterministic partition.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

/// Number of shards for `total` items at `items_per_shard` granularity
/// (at least 1). A pure function of the workload — never of thread count —
/// so the partition, and therefore the merge order, is identical whether
/// the shards run on 1 thread or 64.
std::size_t shard_count_for(std::size_t total, std::size_t items_per_shard);

/// The `shard`-th range of the partition of [0, total) into `shard_count`
/// contiguous, balanced ranges (sizes differ by at most 1; earlier shards
/// take the remainder). Requires shard < shard_count.
ShardRange shard_range(std::size_t total, std::size_t shard_count, std::size_t shard);

}  // namespace cellrel

#endif  // CELLREL_COMMON_THREAD_POOL_H
