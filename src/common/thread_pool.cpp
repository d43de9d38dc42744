#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/check.h"

namespace cellrel {

void for_each_shard(std::size_t count, std::size_t threads,
                    const std::function<void(std::size_t)>& fn) {
  // One slot per index: a worker writes only the slots of the indices it
  // took, and the scan after the join picks the lowest failing index no
  // matter which worker ran it or when.
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t workers = std::min(threads, count);
  if (workers <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t shard_count_for(std::size_t total, std::size_t items_per_shard) {
  const std::size_t granularity = std::max<std::size_t>(1, items_per_shard);
  return std::max<std::size_t>(1, (total + granularity - 1) / granularity);
}

ShardRange shard_range(std::size_t total, std::size_t shard_count, std::size_t shard) {
  CELLREL_CHECK_OP(shard_count, >, static_cast<std::size_t>(0));
  CELLREL_CHECK_OP(shard, <, shard_count);
  const std::size_t base = total / shard_count;
  const std::size_t remainder = total % shard_count;
  const std::size_t begin = shard * base + std::min(shard, remainder);
  const std::size_t size = base + (shard < remainder ? 1 : 0);
  return {begin, begin + size};
}

}  // namespace cellrel
