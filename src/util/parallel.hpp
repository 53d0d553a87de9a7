// Minimal fork-join helper behind the parallel sweep grid.
//
// parallel_for(n, threads, fn) invokes fn(i) exactly once for every
// i in [0, n), either inline (threads <= 1 or n <= 1) or on a freshly
// spawned worker pool that pulls indices from one atomic counter. Workers
// never let an exception escape (that would std::terminate); the first
// captured failure is rethrown on the calling thread after the join, and
// the remaining indices are drained so sibling workers finish promptly.
//
// The helper makes no fairness or ordering promise — callers must only
// depend on "each index runs exactly once, on some thread". Determinism is
// the caller's job: every fn(i) writes to its own disjoint state.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace webcache::util {

/// 0 -> std::thread::hardware_concurrency() (at least 1), else `requested`.
inline std::uint32_t resolve_threads(std::uint32_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

template <typename Fn>
void parallel_for(std::size_t task_count, std::uint32_t threads, Fn&& fn) {
  threads = static_cast<std::uint32_t>(std::min<std::size_t>(
      resolve_threads(threads), task_count));
  if (threads <= 1) {
    for (std::size_t i = 0; i < task_count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr failure;
  std::mutex failure_mutex;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint32_t w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      try {
        for (std::size_t i = next.fetch_add(1); i < task_count;
             i = next.fetch_add(1)) {
          fn(i);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (!failure) failure = std::current_exception();
        next.store(task_count);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace webcache::util
