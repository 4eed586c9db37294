#include "net/reactor_pool.hpp"

#include <exception>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

namespace gcr::net {

ReactorPool::ReactorPool(serve::RoutingService& service,
                         const ReactorPoolOptions& opts)
    : service_(service) {
  const std::size_t n = opts.reactors == 0 ? 1 : opts.reactors;
  loops_.reserve(n);

  // Loop 0 resolves the port (possibly kernel-assigned) and carries the
  // unix-domain listener; SO_REUSEPORT must be set on *every* sharing
  // socket before its bind, including the first.
  EventLoopOptions lo = opts.loop;
  lo.reuse_port = n > 1;
  lo.register_stats = false;
  loops_.push_back(std::make_unique<EventLoop>(service_, lo));

  const std::uint16_t bound = loops_[0]->port();
  for (std::size_t i = 1; i < n; ++i) {
    EventLoopOptions li = opts.loop;
    li.port = bound;
    li.reuse_port = true;
    li.register_stats = false;
    li.unix_path.clear();  // AF_UNIX cannot shard; loop 0 owns the path
    loops_.push_back(std::make_unique<EventLoop>(service_, li));
  }

  service_.set_extra_stats([this] { return render_stats(); });
}

ReactorPool::ReactorPool(serve::RoutingService& service,
                         const EventLoopOptions& loop, int read_fd,
                         int write_fd)
    : service_(service) {
  EventLoopOptions lo = loop;
  lo.register_stats = false;
  loops_.push_back(
      std::make_unique<EventLoop>(service_, lo, read_fd, write_fd));
  service_.set_extra_stats([this] { return render_stats(); });
}

ReactorPool::~ReactorPool() { service_.set_extra_stats({}); }

std::uint16_t ReactorPool::port() const noexcept { return loops_[0]->port(); }

void ReactorPool::run() {
  std::mutex err_mu;
  std::exception_ptr first_error;

  std::vector<std::thread> threads;
  threads.reserve(loops_.size());
  for (auto& loop : loops_) {
    threads.emplace_back([this, &loop, &err_mu, &first_error] {
      try {
        loop->run();
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        // One dead reactor must not leave the rest serving half a pool.
        stop();
        stop();  // second stop: force-close so the barrier cannot hang
      }
    });
  }
  // The drain barrier: every reactor has returned from run() — drained or
  // force-closed — before the pool's run() returns to the caller.
  for (auto& t : threads) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

void ReactorPool::stop() noexcept {
  for (auto& loop : loops_) loop->stop();
}

std::string ReactorPool::render_stats() const {
  std::vector<LoopStatsView> views;
  views.reserve(loops_.size());
  LoopStatsView total;
  for (const auto& loop : loops_) {
    views.push_back(snapshot_loop_stats(loop->stats()));
    total.merge(views.back());
  }
  std::ostringstream os;
  os << render_loop_stats(total, "loop_");
  os << "loop_reactors " << loops_.size() << '\n';
  for (std::size_t i = 0; i < views.size(); ++i) {
    os << render_loop_stats(views[i], "loop" + std::to_string(i) + "_");
  }
  return os.str();
}

}  // namespace gcr::net
