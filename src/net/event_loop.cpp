#include "net/event_loop.hpp"

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#define GCR_NET_HAVE_EPOLL 1
#else
#define GCR_NET_HAVE_EPOLL 0
#endif

namespace gcr::net {

namespace {

#if GCR_NET_HAVE_EPOLL

constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kMailboxTag = 1;
constexpr std::uint64_t kUnixListenerTag = 2;
/// Or'd into a connection id to tag an adopted pair's write descriptor,
/// whose hangup means "reader gone" where the read side's means "input
/// ended".
constexpr std::uint64_t kWriteSide = std::uint64_t{1} << 63;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

#endif  // GCR_NET_HAVE_EPOLL

}  // namespace

/// The bridge between worker threads and the loop thread.  post() is called
/// from workers (and, for fail-fast submissions, from the loop itself);
/// drain() only from the loop.  wake() is a bare eventfd write — no lock,
/// no allocation — which is what makes stop() safe inside a signal handler.
/// Held by shared_ptr from every in-flight job's callback, so a completion
/// landing after the loop died posts into a soon-to-be-freed vector instead
/// of a dangling one.
struct EventLoop::Mailbox {
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string frame;
    /// This completion finishes the connection's LOAD/GEN barrier: drop it
    /// so parked commands replay (see Connection::load_inflight).
    bool barrier = false;
    /// A progress chunk (an OPTIMIZE `PASS` line), not the final response:
    /// the ticket stays open — no in-flight decrement, no barrier drop —
    /// and the bytes stream through Connection::progress.  Workers post
    /// every partial before the final frame on the same thread, and the
    /// mailbox is FIFO, so order within a ticket is preserved.
    bool partial = false;
  };

#if GCR_NET_HAVE_EPOLL
  Mailbox() : event_fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    if (!event_fd) throw_errno("eventfd");
  }
#else
  Mailbox() { throw std::runtime_error("gcr::net requires Linux epoll"); }
#endif

  void post(Completion c) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      items.push_back(std::move(c));
    }
    wake();
  }

  void wake() noexcept {
#if GCR_NET_HAVE_EPOLL
    const std::uint64_t one = 1;
    // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
    [[maybe_unused]] const auto r =
        ::write(event_fd.get(), &one, sizeof one);
#endif
  }

  std::vector<Completion> drain() {
#if GCR_NET_HAVE_EPOLL
    std::uint64_t counter = 0;
    [[maybe_unused]] const auto r =
        ::read(event_fd.get(), &counter, sizeof counter);
#endif
    std::vector<Completion> out;
    const std::lock_guard<std::mutex> lock(mu);
    out.swap(items);
    return out;
  }

  ScopedFd event_fd;
  std::mutex mu;
  std::vector<Completion> items;
};

#if GCR_NET_HAVE_EPOLL

EventLoop::EventLoop(serve::RoutingService& service,
                     const EventLoopOptions& opts,
                     std::optional<Listener> listener)
    : service_(service), opts_(opts),
      epoll_(::epoll_create1(EPOLL_CLOEXEC)),
      listener_(std::move(listener)),
      mailbox_(std::make_shared<Mailbox>()) {
  if (!epoll_) throw_errno("epoll_create1");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kMailboxTag;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, mailbox_->event_fd.get(),
                  &ev) < 0) {
    throw_errno("epoll_ctl(mailbox)");
  }
  // Splice the loop's own health into the service's STATS body: clients
  // see one coherent metrics page.  The render reads only atomics, so any
  // thread may call stats_text() while the loop runs.  A ReactorPool
  // member loop skips this — the pool renders all its loops through one
  // hook instead.
  if (opts_.register_stats) {
    service_.set_extra_stats([this] { return render_loop_stats(); });
  }
}

EventLoop::EventLoop(serve::RoutingService& service,
                     const EventLoopOptions& opts)
    : EventLoop(service, opts, Listener(opts.port, opts.reuse_port)) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, listener_->fd(), &ev) < 0) {
    throw_errno("epoll_ctl(listener)");
  }
  listener_armed_ = true;
  if (!opts_.unix_path.empty()) {
    // A second accept source on the same loop: unix-domain peers get the
    // same Connection/FrameParser/backpressure path as TCP peers — only
    // the accept syscall's address family differs.
    unix_listener_.emplace(Listener::unix_listener(opts_.unix_path));
    ev.events = EPOLLIN;
    ev.data.u64 = kUnixListenerTag;
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, unix_listener_->fd(),
                    &ev) < 0) {
      throw_errno("epoll_ctl(unix listener)");
    }
    unix_listener_armed_ = true;
  }
}

EventLoop::EventLoop(serve::RoutingService& service,
                     const EventLoopOptions& opts, int read_fd, int write_fd)
    : EventLoop(service, opts, std::nullopt) {
  opts_.max_inflight = 1;
  opts_.write_hard_cap = SIZE_MAX;
  adopted_ = next_conn_id_++;
  auto conn =
      std::make_unique<Connection>(read_fd, write_fd, adopted_, opts_.parser);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = adopted_;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, read_fd, &ev) < 0) {
    // epoll refuses regular files; the loop reads those without waiting.
    if (errno != EPERM) throw_errno("epoll_ctl(adopted descriptor)");
    conn->read_polled = false;
  }
  conn->registered_events = EPOLLIN;
  conns_.emplace(adopted_, std::move(conn));
  stats_.accepted.fetch_add(1, std::memory_order_relaxed);
  stats_.connections.fetch_add(1, std::memory_order_relaxed);
}

EventLoop::~EventLoop() {
  // Unhook before members die; a stats_text() racing the destructor is the
  // caller's lifetime bug (the loop must outlive its servers), this just
  // keeps an orderly shutdown from rendering freed counters.
  if (opts_.register_stats) service_.set_extra_stats({});
}

std::uint16_t EventLoop::port() const noexcept {
  return listener_ ? listener_->port() : 0;
}

void EventLoop::stop() noexcept {
  stop_requests_.fetch_add(1, std::memory_order_relaxed);
  mailbox_->wake();
}

void EventLoop::run() {
  epoll_event events[64];
  for (;;) {
    const int stops = stop_requests_.load(std::memory_order_relaxed);
    if (stops > 0 && !stopping_) begin_shutdown();
    if (stops >= 2) force_close_all();
    if ((stopping_ || !listener_) && conns_.empty()) return;

    // An adopted regular file never reports readiness but never blocks
    // either: while its reads are wanted, poll without sleeping and read it
    // after the batch.
    const auto adopted = conns_.find(adopted_);
    const bool eager_read = adopted != conns_.end() &&
                            !adopted->second->read_polled &&
                            (adopted->second->registered_events & EPOLLIN);
    const int n = ::epoll_wait(epoll_.get(), events,
                               static_cast<int>(std::size(events)),
                               eager_read ? 0 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }
    // Loop lag = how long this batch keeps the thread away from
    // epoll_wait; every connection's tail latency rides on it.
    const auto batch_begin = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const std::uint32_t flags = events[i].events;
      if (tag == kListenerTag) {
        accept_ready(*listener_);
        continue;
      }
      if (tag == kUnixListenerTag) {
        accept_ready(*unix_listener_);
        continue;
      }
      if (tag == kMailboxTag) {
        drain_mailbox();
        continue;
      }
      // A connection may have been closed by an earlier event in this same
      // batch (or by a completion); stale tags simply miss.
      const std::uint64_t id = tag & ~kWriteSide;
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      const bool write_side = (tag & kWriteSide) != 0;
      const bool hangup = (flags & (EPOLLHUP | EPOLLERR)) != 0;
      // A pipe's read side hangs up once its writer is done, which only
      // ends the input; the read sees the EOF.
      if (hangup && (write_side || ((flags & EPOLLIN) == 0 &&
                                    !it->second->split()))) {
        // Pure error/hangup with nothing readable, or an output
        // descriptor whose reader closed: the peer is gone.
        stats_.dropped_error.fetch_add(1, std::memory_order_relaxed);
        close_connection(id, /*drop=*/true);
        continue;
      }
      if (!write_side && ((flags & EPOLLIN) != 0 || hangup)) {
        handle_readable(id);
      }
      if (conns_.find(id) != conns_.end() && (flags & EPOLLOUT) != 0) {
        settle(id);
      }
    }
    if (eager_read && conns_.find(adopted_) != conns_.end()) {
      handle_readable(adopted_);
    }
    stats_.wakeups.fetch_add(1, std::memory_order_relaxed);
    stats_.loop_lag.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - batch_begin)
            .count()));
  }
}

void EventLoop::accept_ready(Listener& from) {
  for (;;) {
    ScopedFd fd = from.accept_one();
    if (!fd) return;
    if (stopping_ || conns_.size() >= opts_.max_connections) {
      // Refuse by closing: the client sees a clean EOF, retries elsewhere.
      stats_.rejected_at_capacity.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (opts_.so_sndbuf > 0) {
      ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &opts_.so_sndbuf,
                   sizeof opts_.so_sndbuf);
    }
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(std::move(fd), id, opts_.parser);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, conn->read_fd(), &ev) < 0) {
      continue;  // kernel refused; drop the socket
    }
    conn->registered_events = EPOLLIN;
    conns_.emplace(id, std::move(conn));
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.connections.fetch_add(1, std::memory_order_relaxed);
  }
}

void EventLoop::drain_mailbox() {
  for (auto& c : mailbox_->drain()) {
    const auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) {
      // The connection died while its job was routing; nobody to tell.
      stats_.completions_discarded.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Connection& conn = *it->second;
    if (c.partial) {
      // Mid-response progress: the job is still running, so the ticket
      // stays in flight; just stream (or park) the bytes and flush.
      conn.progress(c.seq, std::move(c.frame));
      settle(c.conn_id);
      continue;
    }
    conn.job_completed();
    if (c.barrier) conn.load_inflight = false;  // deferred replay
    conn.complete(c.seq, std::move(c.frame));
    settle(c.conn_id);
  }
}

void EventLoop::handle_readable(std::uint64_t id) {
  Connection& conn = *conns_.at(id);
  char buf[64 * 1024];
  std::vector<serve::FrameParser::Event> events;
  // Fairness bound: a sender faster than our parsing must not monopolize
  // the loop — after a few buffers, fall back to epoll (level-triggered,
  // so the remaining data re-reports immediately) and let other
  // connections, accepts, and the completion mailbox run.
  int rounds = 4;
  while (!conn.reads_suspended && !conn.eof && rounds-- > 0) {
    const ssize_t r = ::read(conn.read_fd(), buf, sizeof buf);
    if (r > 0) {
      stats_.bytes_in.fetch_add(static_cast<std::uint64_t>(r),
                                std::memory_order_relaxed);
      events.clear();
      conn.parser().feed(buf, static_cast<std::size_t>(r), events);
      process_events(conn, events);
      if (conn.close_after_flush || conn.parser().dead()) {
        conn.reads_suspended = true;  // no further commands will be served
        break;
      }
      if (conn.reads_suspended) break;  // backpressured mid-batch
      continue;
    }
    if (r == 0) {
      // Peer finished sending.  Possibly a half-close: keep flushing what
      // it is still owed; settle() closes once drained.  The parser may
      // hold a trailing LF-less command line: flush and dispatch it like
      // any other.
      conn.eof = true;
      conn.reads_suspended = true;
      events.clear();
      conn.parser().finish_eof(events);
      process_events(conn, events);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    stats_.dropped_error.fetch_add(1, std::memory_order_relaxed);
    close_connection(id, /*drop=*/true);
    return;
  }
  settle(id);
}

void EventLoop::process_events(Connection& conn,
                               std::vector<serve::FrameParser::Event>& events,
                               std::size_t from) {
  for (std::size_t i = from; i < events.size(); ++i) {
    // Commands after QUIT or a fatal framing error are never served.
    if (conn.close_after_flush) break;
    const bool backpressured = conn.backlog() > opts_.write_high_water ||
                               conn.inflight() >= opts_.max_inflight;
    if (backpressured || conn.load_inflight) {
      // One recv batch of cheap commands can outrun the write marks all
      // by itself, and fail-fast ROUTE responses park in the mailbox
      // where the byte marks cannot see them; park the surplus so both
      // bounds hold even against a single pipelined burst.  An offloaded
      // LOAD parks everything behind it too (the ordering barrier) —
      // that is sequencing, not a slow reader, so it skips the
      // backpressure stat.
      stats_.parked.fetch_add(events.size() - i, std::memory_order_relaxed);
      for (std::size_t j = i; j < events.size(); ++j) {
        conn.deferred.push_back(std::move(events[j]));
      }
      if (!conn.reads_suspended) {
        conn.reads_suspended = true;
        if (backpressured) {
          stats_.reads_suspended.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return;
    }
    dispatch(conn, events[i]);
  }
}

void EventLoop::dispatch(Connection& conn, serve::FrameParser::Event& ev) {
  // The connection's side of serve::dispatch: an inline answer completes
  // the command's response ticket directly; a handed-off command counts as
  // in flight and its frames post back through the mailbox (see
  // drain_mailbox), while a LOAD/GEN barrier parks later commands.
  class Reply final : public serve::Responder {
   public:
    Reply(Connection& conn, const std::shared_ptr<Mailbox>& mailbox)
        : conn_(conn), mailbox_(mailbox), seq_(conn.assign_seq()) {}

    [[nodiscard]] const std::shared_ptr<std::atomic<bool>>& owner()
        const override {
      return conn_.cancel_token();
    }
    void answer(std::string frame) override {
      conn_.complete(seq_, std::move(frame));
    }
    serve::ReplySink hand_off(bool barrier) override {
      conn_.job_dispatched();
      if (barrier) conn_.load_inflight = true;
      return [mailbox = mailbox_, id = conn_.id(), seq = seq_, barrier](
                 std::string text, bool final) {
        mailbox->post({id, seq, std::move(text), barrier && final, !final});
      };
    }
    void close_after() override {
      conn_.close_after_flush = true;
      conn_.deferred.clear();  // commands after this one are never served
    }

   private:
    Connection& conn_;
    const std::shared_ptr<Mailbox>& mailbox_;
    std::uint64_t seq_;
  };

  stats_.commands.fetch_add(1, std::memory_order_relaxed);
  Reply reply(conn, mailbox_);
  serve::dispatch(service_, ev, reply);
}

void EventLoop::settle(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;

  for (;;) {
    while (conn.has_output()) {
      // send() keeps a vanished socket peer from raising SIGPIPE in
      // whatever process embeds the loop.
      const ssize_t w =
          conn.write_is_socket()
              ? ::send(conn.write_fd(), conn.out_data(), conn.out_size(),
                       MSG_NOSIGNAL)
              : ::write(conn.write_fd(), conn.out_data(), conn.out_size());
      if (w > 0) {
        stats_.bytes_out.fetch_add(static_cast<std::uint64_t>(w),
                                   std::memory_order_relaxed);
        conn.out_consume(static_cast<std::size_t>(w));
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // EPIPE/ECONNRESET: the peer is gone.  Cancel whatever it still has
      // queued and discard the connection.
      stats_.dropped_error.fetch_add(1, std::memory_order_relaxed);
      close_connection(id, /*drop=*/true);
      return;
    }

    if (conn.backlog() > opts_.write_hard_cap) {
      // The socket stopped accepting and responses keep accumulating: this
      // reader is too slow to serve while a response is pending.
      stats_.dropped_slow.fetch_add(1, std::memory_order_relaxed);
      close_connection(id, /*drop=*/true);
      return;
    }

    // Work parked by mid-batch backpressure resumes once the peer has
    // drained below the low-water mark; whatever it produces goes back
    // through the flush above.  Dispatch pops the deque front in place —
    // the undispatched tail stays put, so replay cost is O(1) amortized
    // per command no matter how often the limits interrupt it (a
    // wholesale move-out/re-park here would be quadratic against a large
    // parked burst drained one completion at a time).
    if (conn.deferred.empty() || conn.close_after_flush ||
        conn.load_inflight ||
        conn.backlog() > opts_.write_high_water / 2 ||
        conn.inflight() >= opts_.max_inflight) {
      break;
    }
    while (!conn.deferred.empty() && !conn.close_after_flush &&
           !conn.load_inflight &&
           conn.backlog() <= opts_.write_high_water &&
           conn.inflight() < opts_.max_inflight) {
      serve::FrameParser::Event ev = std::move(conn.deferred.front());
      conn.deferred.pop_front();
      stats_.replayed.fetch_add(1, std::memory_order_relaxed);
      // dispatch may clear the deque (QUIT); ev was moved out already.
      dispatch(conn, ev);
    }
  }

  if ((conn.close_after_flush || conn.eof) && conn.drained() &&
      conn.deferred.empty()) {
    close_connection(id, /*drop=*/false);
    return;
  }

  // Resume reads once a backpressured (but otherwise live) connection has
  // drained to half the high-water mark — hysteresis so a borderline peer
  // does not flap between suspend and resume per byte.  Conversely suspend
  // when *completions* (not reads) pushed the backlog over the mark: an
  // unread socket then fills the peer's TCP window and stalls the sender
  // itself, which is backpressure all the way down.
  if (conn.reads_suspended && !conn.eof && !conn.close_after_flush && !conn.parser().dead() && !stopping_ &&
      conn.deferred.empty() && !conn.load_inflight &&
      conn.inflight() < opts_.max_inflight &&
      conn.backlog() <= opts_.write_high_water / 2) {
    conn.reads_suspended = false;
  } else if (!conn.reads_suspended &&
             conn.backlog() > opts_.write_high_water) {
    conn.reads_suspended = true;
    stats_.reads_suspended.fetch_add(1, std::memory_order_relaxed);
  }

  update_interest(conn);
}

void EventLoop::update_interest(Connection& conn) {
  const std::uint32_t want = (conn.reads_suspended ? 0u : EPOLLIN) |
                             (conn.has_output() ? EPOLLOUT : 0u);
  if (want == conn.registered_events) return;
  if (!conn.split()) {
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = conn.id();
    if (conn.read_polled &&
        ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn.read_fd(), &ev) < 0) {
      return;
    }
    conn.registered_events = want;
    return;
  }
  // An adopted pair: each descriptor sits in the epoll set only while its
  // direction is wanted.  A pipe whose writer has gone reports EPOLLHUP
  // whatever the interest mask, which would spin the loop for as long as
  // reads are suspended.
  const std::uint32_t changed = want ^ conn.registered_events;
  epoll_event ev{};
  if ((changed & EPOLLIN) != 0 && conn.read_polled) {
    ev.events = EPOLLIN;
    ev.data.u64 = conn.id();
    ::epoll_ctl(epoll_.get(), (want & EPOLLIN) ? EPOLL_CTL_ADD : EPOLL_CTL_DEL,
                conn.read_fd(), &ev);
  }
  if ((changed & EPOLLOUT) != 0) {
    ev.events = EPOLLOUT;
    ev.data.u64 = conn.id() | kWriteSide;
    ::epoll_ctl(epoll_.get(),
                (want & EPOLLOUT) ? EPOLL_CTL_ADD : EPOLL_CTL_DEL,
                conn.write_fd(), &ev);
  }
  conn.registered_events = want;
}

void EventLoop::close_connection(std::uint64_t id, bool drop) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  if (drop) {
    // Jobs still queued for this peer die at dequeue instead of routing
    // into the void; late completions are discarded in drain_mailbox.
    it->second->cancel_token()->store(true, std::memory_order_relaxed);
  }
  // Either way the owner identity is gone: auto-release this connection's
  // pins so the handles become claimable (and UNPIN-able) by successors.
  // During a drain, ownership is dropped but the sessions stay registered:
  // the shutdown path still owes each one a final SAVE.
  service_.release_pins(it->second->cancel_token(), /*preserve=*/stopping_);
  // Closing a socket (ScopedFd dtor) deregisters it from epoll implicitly;
  // borrowed descriptors stay open, so they leave the set explicitly.
  if (it->second->borrowed()) {
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, it->second->read_fd(), nullptr);
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, it->second->write_fd(), nullptr);
  }
  conns_.erase(it);
  stats_.closed.fetch_add(1, std::memory_order_relaxed);
  stats_.connections.fetch_sub(1, std::memory_order_relaxed);
}

void EventLoop::begin_shutdown() {
  stopping_ = true;
  if (listener_armed_) {
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, listener_->fd(), nullptr);
    listener_armed_ = false;
  }
  if (unix_listener_armed_) {
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, unix_listener_->fd(), nullptr);
    unix_listener_armed_ = false;
  }
  // Stop taking commands everywhere; settle() each connection so the ones
  // already drained close immediately and the rest close as their
  // in-flight jobs finish and flush.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) {
    conn->reads_suspended = true;
    conn->close_after_flush = true;
    conn->deferred.clear();  // commands after shutdown are not served
    ids.push_back(id);
  }
  for (const std::uint64_t id : ids) settle(id);
}

void EventLoop::force_close_all() {
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) close_connection(id, /*drop=*/true);
}

std::string EventLoop::render_loop_stats() const {
  return gcr::net::render_loop_stats(snapshot_loop_stats(stats_), "loop_");
}

#else  // !GCR_NET_HAVE_EPOLL

EventLoop::EventLoop(serve::RoutingService& service,
                     const EventLoopOptions& opts)
    : service_(service), opts_(opts) {
  throw std::runtime_error("gcr::net::EventLoop requires Linux epoll");
}

EventLoop::EventLoop(serve::RoutingService& service,
                     const EventLoopOptions& opts, int, int)
    : EventLoop(service, opts) {}

EventLoop::~EventLoop() = default;
std::uint16_t EventLoop::port() const noexcept { return 0; }
void EventLoop::run() {}
void EventLoop::stop() noexcept {}
void EventLoop::accept_ready(Listener&) {}
void EventLoop::drain_mailbox() {}
void EventLoop::handle_readable(std::uint64_t) {}
void EventLoop::process_events(Connection&,
                               std::vector<serve::FrameParser::Event>&,
                               std::size_t) {}
void EventLoop::dispatch(Connection&, serve::FrameParser::Event&) {}
void EventLoop::settle(std::uint64_t) {}
void EventLoop::close_connection(std::uint64_t, bool) {}
void EventLoop::begin_shutdown() {}
void EventLoop::force_close_all() {}
void EventLoop::update_interest(Connection&) {}
std::string EventLoop::render_loop_stats() const { return {}; }

#endif  // GCR_NET_HAVE_EPOLL

// ------------------------------------------------------------------------
// Loop-stats snapshot/render — pure computation, platform-independent.

void LoopStatsView::merge(const LoopStatsView& other) {
  connections += other.connections;
  accepted += other.accepted;
  rejected_at_capacity += other.rejected_at_capacity;
  closed += other.closed;
  commands += other.commands;
  reads_suspended += other.reads_suspended;
  dropped_slow += other.dropped_slow;
  dropped_error += other.dropped_error;
  completions_discarded += other.completions_discarded;
  parked += other.parked;
  replayed += other.replayed;
  bytes_in += other.bytes_in;
  bytes_out += other.bytes_out;
  wakeups += other.wakeups;
  for (std::size_t i = 0; i < lag.buckets.size(); ++i) {
    lag.buckets[i] += other.lag.buckets[i];
  }
  lag.count += other.lag.count;
  lag.sum += other.lag.sum;
}

LoopStatsView snapshot_loop_stats(const EventLoopStats& stats) {
  const auto v = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  LoopStatsView view;
  view.connections = v(stats.connections);
  view.accepted = v(stats.accepted);
  view.rejected_at_capacity = v(stats.rejected_at_capacity);
  view.closed = v(stats.closed);
  view.commands = v(stats.commands);
  view.reads_suspended = v(stats.reads_suspended);
  view.dropped_slow = v(stats.dropped_slow);
  view.dropped_error = v(stats.dropped_error);
  view.completions_discarded = v(stats.completions_discarded);
  view.parked = v(stats.parked);
  view.replayed = v(stats.replayed);
  view.bytes_in = v(stats.bytes_in);
  view.bytes_out = v(stats.bytes_out);
  view.wakeups = v(stats.wakeups);
  view.lag = stats.loop_lag.snapshot();
  return view;
}

std::string render_loop_stats(const LoopStatsView& view,
                              const std::string& prefix) {
  std::ostringstream os;
  os << prefix << "connections " << view.connections << '\n'
     << prefix << "accepted " << view.accepted << '\n'
     << prefix << "rejected_at_capacity " << view.rejected_at_capacity << '\n'
     << prefix << "closed " << view.closed << '\n'
     << prefix << "commands " << view.commands << '\n'
     << prefix << "reads_suspended " << view.reads_suspended << '\n'
     << prefix << "dropped_slow " << view.dropped_slow << '\n'
     << prefix << "dropped_error " << view.dropped_error << '\n'
     << prefix << "completions_discarded " << view.completions_discarded
     << '\n'
     << prefix << "parked " << view.parked << '\n'
     << prefix << "replayed " << view.replayed << '\n'
     << prefix << "bytes_in " << view.bytes_in << '\n'
     << prefix << "bytes_out " << view.bytes_out << '\n'
     << prefix << "wakeups " << view.wakeups << '\n'
     << prefix << "lag_p50_us " << view.lag.percentile(50) << '\n'
     << prefix << "lag_p95_us " << view.lag.percentile(95) << '\n'
     << prefix << "lag_p99_us " << view.lag.percentile(99) << '\n';
  return os.str();
}

}  // namespace gcr::net
