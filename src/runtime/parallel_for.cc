#include "runtime/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace spatter::runtime {

void ParallelFor(size_t threads, size_t tasks,
                 const std::function<void(size_t)>& run) {
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // the first task's exception
  const auto work = [&] {
    for (size_t i = next++; i < tasks; i = next++) {
      try {
        run(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        next = tasks;  // claim no further task
      }
    }
  };
  std::vector<std::thread> workers;
  const auto join_all = [&] {
    for (std::thread& worker : workers) worker.join();
  };
  try {
    const size_t count = std::min(std::max<size_t>(threads, 1), tasks);
    while (workers.size() < count) workers.emplace_back(work);
  } catch (...) {
    next = tasks;
    join_all();
    throw;
  }
  join_all();
  if (error) std::rethrow_exception(error);
}

}  // namespace spatter::runtime
