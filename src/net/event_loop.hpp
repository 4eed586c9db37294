#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/connection.hpp"
#include "net/socket.hpp"
#include "serve/frame_parser.hpp"
#include "serve/routing_service.hpp"
#include "serve/trace.hpp"

/// \file event_loop.hpp
/// The server's one front-end: one thread, one epoll set, many connections,
/// all multiplexed onto the routing service's existing worker pool.  A loop
/// either listens (TCP, optionally a unix socket too) or serves one adopted
/// descriptor pair — stdin/stdout, two pipes, an inherited socket — with
/// the same Connection, framer and dispatcher.
///
/// Division of labour — the loop thread only ever does cheap things:
///   - accept connections and read whatever bytes are available;
///   - feed the per-connection FrameParser and hand each event to
///     serve::dispatch, the per-verb handler (ROUTE becomes a worker-pool
///     job; STATS/resident LOAD/errors are answered inline);
///   - flush write buffers and maintain epoll interest sets.
/// Routing runs on the pool; a finished job's worker thread formats the
/// response (the expensive route-dump rendering) and posts it to the
/// loop's mailbox — a mutex-guarded vector plus an eventfd the loop sleeps
/// on — so routing never blocks the loop and the loop never blocks routing.
/// Cold LOADs (layout parse + environment build) go to the pool the same
/// way, so a cold-session storm cannot stall every connection behind one
/// build; only the content-hash probe for an already-resident session runs
/// on the loop.  While a connection's LOAD is building, its later commands
/// park on the connection (Connection::load_inflight) and replay once the
/// completion lands, preserving pipelined LOAD→ROUTE semantics and
/// response order.
///
/// Backpressure: each connection's backlog (unwritten + parked response
/// bytes, see Connection) is compared against two marks.  Past
/// write_high_water the connection's reads are suspended — a slow reader
/// stops injecting new work but keeps its in-flight responses.  Past
/// write_hard_cap the connection is dropped: its fd closes, its cancel
/// token flips so still-queued jobs die at dequeue, and late completions
/// are discarded by id.
///
/// Shutdown: stop() is async-signal-safe (atomic increment + eventfd
/// write).  The first stop closes the listener and lets every connection
/// drain — in-flight jobs complete and flush — before the loop returns; a
/// second stop() force-closes whatever is left (the escape hatch when a
/// dead peer will never drain its responses).

namespace gcr::net {

struct EventLoopOptions {
  /// Port to bind on loopback; 0 = kernel-assigned (read EventLoop::port()).
  std::uint16_t port = 0;
  std::size_t max_connections = 256;
  /// Backlog bytes past which a connection's reads are suspended.
  std::size_t write_high_water = 1u << 20;
  /// Backlog bytes past which a connection is dropped outright.
  std::size_t write_hard_cap = 4u << 20;
  /// Per-connection cap on commands dispatched but not yet completed
  /// (ROUTE jobs on the pool *and* fail-fast responses still parked in
  /// the wakeup mailbox — the byte marks cannot see either).  Past it the
  /// connection's surplus commands park exactly like write backpressure,
  /// so a burst of instant-failing ROUTEs cannot grow the mailbox without
  /// bound.
  std::size_t max_inflight = 256;
  /// SO_SNDBUF for accepted sockets; 0 = kernel default.  The backpressure
  /// marks measure *user-space* backlog, so a generous kernel send buffer
  /// hides a slow reader until it overflows — shrink this to make the
  /// marks bite early (tests do; a memory-tight deployment might).
  int so_sndbuf = 0;
  /// Sets SO_REUSEPORT on the TCP listener before bind, so N reactor loops
  /// can each bind the same port and let the kernel spread incoming
  /// connections across them (see ReactorPool).
  bool reuse_port = false;
  /// Non-empty: additionally listen on a unix-domain socket at this path.
  /// Accepted peers share the Connection/FrameParser path verbatim with
  /// TCP peers; the socket file is unlinked when the loop is destroyed.
  std::string unix_path;
  /// Whether the loop installs itself as the routing service's extra-stats
  /// hook (the `loop_*` STATS block).  A standalone loop should (default);
  /// a ReactorPool member must not — the pool owns the single hook and
  /// renders aggregated `loop_*` plus per-loop `loop<i>_*` shards itself.
  bool register_stats = true;
  serve::FrameParser::Options parser{};
};

/// Counters the loop maintains; atomics so tests and monitoring threads can
/// read them while the loop runs.  Exported verbatim into the STATS body
/// (as `loop_*` keys) through RoutingService::set_extra_stats, so TCP
/// clients see loop health next to the service counters.
struct EventLoopStats {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected_at_capacity{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> commands{0};
  std::atomic<std::uint64_t> reads_suspended{0};  ///< suspension *events*
  std::atomic<std::uint64_t> dropped_slow{0};     ///< hard-cap drops
  std::atomic<std::uint64_t> dropped_error{0};    ///< read/write errors
  std::atomic<std::uint64_t> completions_discarded{0};  ///< conn died first
  /// Commands parked on a connection (backpressure or a LOAD barrier) and
  /// parked commands later replayed by settle(); parked >= replayed, the
  /// difference is what is parked right now plus what died parked.
  std::atomic<std::uint64_t> parked{0};
  std::atomic<std::uint64_t> replayed{0};
  std::atomic<std::uint64_t> bytes_in{0};   ///< recv()'d payload bytes
  std::atomic<std::uint64_t> bytes_out{0};  ///< send()'d payload bytes
  std::atomic<std::uint64_t> wakeups{0};    ///< epoll batches processed
  /// Live connection gauge — a dedicated atomic rather than conns_.size()
  /// because the STATS render runs on whatever thread asked, not the loop.
  std::atomic<std::uint64_t> connections{0};
  /// Wall-clock per epoll batch (event processing, not the sleep),
  /// microseconds: the loop's own responsiveness.  A fat tail here means
  /// something is doing expensive work on the loop thread.
  serve::Histogram loop_lag;
};

/// A plain-value snapshot of EventLoopStats.  Atomics and histograms do
/// not add, but their snapshots do: a ReactorPool sums one view per loop
/// into the aggregated `loop_*` block while rendering each view verbatim
/// as that loop's `loop<i>_*` shard.
struct LoopStatsView {
  std::uint64_t connections = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_at_capacity = 0;
  std::uint64_t closed = 0;
  std::uint64_t commands = 0;
  std::uint64_t reads_suspended = 0;
  std::uint64_t dropped_slow = 0;
  std::uint64_t dropped_error = 0;
  std::uint64_t completions_discarded = 0;
  std::uint64_t parked = 0;
  std::uint64_t replayed = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t wakeups = 0;
  serve::Histogram::Snapshot lag{};

  /// Folds \p other into this view: counters sum, lag histograms merge
  /// bucket-wise (percentiles of the merged distribution stay exact).
  void merge(const LoopStatsView& other);
};

/// Reads every counter (and the lag histogram) at relaxed order; safe from
/// any thread while the loop runs.
[[nodiscard]] LoopStatsView snapshot_loop_stats(const EventLoopStats& stats);

/// Renders the 17-key loop-health block as `<prefix><key> <value>` STATS
/// lines ("loop_" for the standalone/aggregate block, "loop0_" … for
/// per-reactor shards).
[[nodiscard]] std::string render_loop_stats(const LoopStatsView& view,
                                            const std::string& prefix);

class EventLoop {
 public:
  /// Binds the listener and creates the epoll set and wakeup mailbox; the
  /// loop does not serve until run().  Throws std::runtime_error when the
  /// port cannot be bound (and on non-Linux platforms, which lack epoll).
  EventLoop(serve::RoutingService& service, const EventLoopOptions& opts = {});

  /// A loop with no listener that serves one adopted descriptor pair —
  /// stdin/stdout, two pipes, or one inherited socket passed twice — as a
  /// single connection; run() returns once it has closed and drained.  The
  /// descriptors are borrowed (see Connection).  Commands run one at a
  /// time, as a pipe client expects: `max_inflight` is 1, so every
  /// handed-off command parks the ones behind it, and `write_hard_cap` is
  /// lifted, because with one command in flight the backlog stays within
  /// `write_high_water` plus one response.  Descriptors epoll refuses
  /// (regular files) are read and written without waiting.
  EventLoop(serve::RoutingService& service, const EventLoopOptions& opts,
            int read_fd, int write_fd);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// The bound port — what to advertise when options said 0; 0 without a
  /// listener.
  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Serves until stop() — or, without a listener, until the adopted
  /// connection closes.  Call from exactly one thread.
  void run();

  /// Requests shutdown; async-signal-safe, callable from any thread or a
  /// signal handler.  First call drains, second call force-closes.
  void stop() noexcept;

  [[nodiscard]] const EventLoopStats& stats() const noexcept { return stats_; }

 private:
  struct Mailbox;  ///< completion queue + wakeup eventfd (in the .cpp)

  /// The part both public constructors share: epoll set, mailbox, and the
  /// stats hook.
  EventLoop(serve::RoutingService& service, const EventLoopOptions& opts,
            std::optional<Listener> listener);

  void accept_ready(Listener& from);
  void drain_mailbox();
  void handle_readable(std::uint64_t id);
  /// Dispatches events[from..] in order, parking the tail on the
  /// connection (and suspending reads) the moment the backlog crosses the
  /// high-water mark — settle() resumes the parked tail as the peer
  /// drains.
  void process_events(Connection& conn,
                      std::vector<serve::FrameParser::Event>& events,
                      std::size_t from = 0);
  /// Hands one framer event to serve::dispatch with a Responder bound to
  /// the connection and a fresh response ticket.
  void dispatch(Connection& conn, serve::FrameParser::Event& ev);
  /// Writes what the socket accepts, applies backpressure marks, updates
  /// epoll interest, and closes the connection when it is done.  The one
  /// place a connection's fate is decided; \p id may be gone afterwards.
  void settle(std::uint64_t id);
  void close_connection(std::uint64_t id, bool drop);
  void begin_shutdown();
  void force_close_all();
  void update_interest(Connection& conn);
  /// Renders the `loop_* <value>` lines appended to the STATS body.
  /// Reads only atomics — safe from any thread while the loop runs.
  [[nodiscard]] std::string render_loop_stats() const;

  serve::RoutingService& service_;
  EventLoopOptions opts_;
  EventLoopStats stats_;
  ScopedFd epoll_;
  std::optional<Listener> listener_;       ///< empty: an adopted pair
  std::optional<Listener> unix_listener_;  ///< --listen-unix, loop 0 only
  std::shared_ptr<Mailbox> mailbox_;
  std::atomic<int> stop_requests_{0};
  bool stopping_ = false;
  bool listener_armed_ = false;
  bool unix_listener_armed_ = false;
  /// 0 = TCP listener tag, 1 = mailbox tag, 2 = unix listener tag.
  std::uint64_t next_conn_id_ = 3;
  /// The adopted pair's connection id (0 = none).
  std::uint64_t adopted_ = 0;
  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
};

}  // namespace gcr::net
