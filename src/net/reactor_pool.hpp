#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/event_loop.hpp"

/// \file reactor_pool.hpp
/// N event loops sharing one port: the multi-reactor front-end.
///
/// Every loop binds the same loopback port with SO_REUSEPORT and the
/// kernel hashes incoming connections across them, so accept/parse/flush
/// work scales with reactor count while each *connection* stays affine to
/// the loop that accepted it — its Connection state, mailbox completions
/// and epoll registration never cross threads, which is exactly the
/// single-loop invariant EventLoop was built on.  Loop 0 additionally
/// carries the optional unix-domain listener (AF_UNIX has no reuseport
/// load balancing, so one loop owns the path).
///
/// The pool owns the service's extra-stats hook: each loop is constructed
/// with register_stats=false and the pool renders one aggregated `loop_*`
/// block (counters summed, lag histograms merged bucket-wise so the
/// percentiles are of the true combined distribution) followed by per-loop
/// `loop<i>_*` shards — existing `loop_*` STATS consumers keep working and
/// per-reactor skew stays observable.
///
/// run() spawns one thread per loop and joins them all: the join *is* the
/// shutdown drain barrier across reactors.  stop() is async-signal-safe
/// (it only forwards to EventLoop::stop); first call drains every loop,
/// second force-closes every connection.

namespace gcr::net {

struct ReactorPoolOptions {
  /// Number of event loops; 0 is treated as 1.  With one reactor the pool
  /// is byte-for-byte the old single-loop server (no SO_REUSEPORT).
  std::size_t reactors = 1;
  /// Per-loop options.  `port` may be 0 (loop 0 binds it, the rest bind
  /// the resolved port); `unix_path` is honored on loop 0 only;
  /// `reuse_port`/`register_stats` are overridden by the pool.
  EventLoopOptions loop{};
};

class ReactorPool {
 public:
  /// Binds all listeners (throws on failure, e.g. the port or unix path is
  /// unusable); loops do not serve until run().
  ReactorPool(serve::RoutingService& service,
              const ReactorPoolOptions& opts = {});

  /// One listener-less loop serving the adopted descriptor pair
  /// \p read_fd / \p write_fd (see EventLoop's descriptor constructor):
  /// how the daemon serves stdin/stdout or an inherited socket with the
  /// same drain, stop and stats as its network mode.  run() returns once
  /// that connection has closed.
  ReactorPool(serve::RoutingService& service, const EventLoopOptions& loop,
              int read_fd, int write_fd);
  ~ReactorPool();

  ReactorPool(const ReactorPool&) = delete;
  ReactorPool& operator=(const ReactorPool&) = delete;

  /// The shared bound port — what to advertise when options said 0 (0 for
  /// an adopted pair).
  [[nodiscard]] std::uint16_t port() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return loops_.size(); }
  [[nodiscard]] EventLoop& loop(std::size_t i) { return *loops_[i]; }

  /// Serves until stop(): spawns one thread per reactor and joins them all.
  /// The join is the multi-loop drain barrier — run() returns only when
  /// every loop has drained (or force-closed) its connections.  A loop
  /// thread that throws stops the whole pool; the first exception is
  /// rethrown here after the barrier.
  void run();

  /// Requests shutdown on every loop; async-signal-safe, callable from any
  /// thread or a signal handler.  First call drains, second force-closes.
  void stop() noexcept;

  /// The `loop_*` aggregate + `loop<i>_*` shard STATS block (the pool's
  /// extra-stats hook).  Reads only atomics — safe from any thread.
  [[nodiscard]] std::string render_stats() const;

 private:
  serve::RoutingService& service_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
};

}  // namespace gcr::net
