#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "net/socket.hpp"
#include "serve/frame_parser.hpp"

/// \file connection.hpp
/// Per-client connection state for the epoll front-end: the incremental
/// frame parser on the inbound side, and on the outbound side a *sequenced*
/// response buffer.
///
/// Sequencing is the part a blocking loop gets for free and an event loop
/// must earn: a pipelined client may have several ROUTE jobs in flight on
/// the worker pool at once, and they complete in whatever order routing
/// finishes — but the protocol promises responses in request order.  Every
/// command therefore takes a ticket (assign_seq) at dispatch; a completed
/// response parks in `ready_` until every earlier ticket has been flattened
/// into the write buffer.  Interleaving is impossible by construction.
///
/// The write buffer is also where backpressure is measured: backlog() is
/// the byte count a slow reader has forced the server to hold, and the
/// event loop suspends reads (high-water) or drops the connection (hard
/// cap) based on it.
///
/// All members are owned and touched by the event-loop thread only; worker
/// threads never see a Connection (they post completions through the
/// loop's mailbox, keyed by id).  The one cross-thread member is the
/// cancel token, an atomic shared with queued jobs so a vanished client's
/// requests are dropped at dequeue instead of routed into the void.

namespace gcr::net {

class Connection {
 public:
  /// An accepted socket: reads and writes go through \p fd, which the
  /// connection closes when destroyed.
  Connection(ScopedFd fd, std::uint64_t id,
             const serve::FrameParser::Options& popts)
      : socket_(std::move(fd)), read_fd_(socket_.get()), write_fd_(read_fd_),
        write_is_socket_(true), id_(id), parser_(popts),
        cancel_(std::make_shared<std::atomic<bool>>(false)) {}

  /// An adopted descriptor pair — stdin/stdout, two pipes, or one
  /// inherited socket passed twice.  Borrowed: non-blocking while the
  /// connection lives, original flags restored after, never closed.
  Connection(int read_fd, int write_fd, std::uint64_t id,
             const serve::FrameParser::Options& popts)
      : read_fd_(read_fd), write_fd_(write_fd),
        write_is_socket_(is_socket(write_fd)), id_(id), parser_(popts),
        cancel_(std::make_shared<std::atomic<bool>>(false)) {
    read_scope_.emplace(read_fd);
    if (split()) write_scope_.emplace(write_fd);
  }

  [[nodiscard]] int read_fd() const noexcept { return read_fd_; }
  [[nodiscard]] int write_fd() const noexcept { return write_fd_; }
  /// Reads and writes use different descriptors (an adopted pair).
  [[nodiscard]] bool split() const noexcept { return read_fd_ != write_fd_; }
  /// The descriptors stay open after the connection (adopted, not owned).
  [[nodiscard]] bool borrowed() const noexcept { return !socket_; }
  /// Writes go through send(MSG_NOSIGNAL); anything else uses write(2).
  [[nodiscard]] bool write_is_socket() const noexcept {
    return write_is_socket_;
  }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] serve::FrameParser& parser() noexcept { return parser_; }
  [[nodiscard]] const std::shared_ptr<std::atomic<bool>>& cancel_token()
      const noexcept {
    return cancel_;
  }

  // ------------------------------------------------- response sequencing
  /// Takes the next response ticket; one per dispatched command.
  [[nodiscard]] std::uint64_t assign_seq() noexcept { return next_seq_++; }

  /// Delivers the final response for ticket \p seq.  Flattens it — and any
  /// later finished responses it unblocks — into the write buffer the
  /// moment it is next in line; parks it otherwise.
  void complete(std::uint64_t seq, std::string frame) {
    deliver(seq, std::move(frame), /*done=*/true);
  }

  /// Appends a *progress* chunk (an OPTIMIZE `PASS` line) to ticket
  /// \p seq without finishing it.  When the ticket is front of line the
  /// bytes stream straight to the write buffer — the client sees passes as
  /// they complete; otherwise they park with the ticket and flush, still
  /// in order, once the earlier responses land.  The ticket keeps blocking
  /// later responses until complete() arrives.
  void progress(std::uint64_t seq, std::string chunk) {
    deliver(seq, std::move(chunk), /*done=*/false);
  }

  /// In-flight accounting for jobs handed to the worker pool.
  void job_dispatched() noexcept { ++inflight_; }
  void job_completed() noexcept {
    if (inflight_ > 0) --inflight_;
  }
  [[nodiscard]] std::size_t inflight() const noexcept { return inflight_; }

  // ------------------------------------------------------- write buffer
  [[nodiscard]] bool has_output() const noexcept {
    return out_off_ < out_.size();
  }
  [[nodiscard]] const char* out_data() const noexcept {
    return out_.data() + out_off_;
  }
  [[nodiscard]] std::size_t out_size() const noexcept {
    return out_.size() - out_off_;
  }
  /// Marks \p n bytes as written; reclaims the buffer when fully drained
  /// (or when the dead prefix has grown past a compaction threshold).
  void out_consume(std::size_t n) noexcept {
    out_off_ += n;
    if (out_off_ >= out_.size()) {
      out_.clear();
      out_off_ = 0;
    } else if (out_off_ >= kCompactAt) {
      out_.erase(0, out_off_);
      out_off_ = 0;
    }
  }

  /// Outbound bytes held for this peer: unwritten buffer + parked
  /// out-of-order responses.  The backpressure measure.
  [[nodiscard]] std::size_t backlog() const noexcept {
    return (out_.size() - out_off_) + ready_bytes_;
  }

  /// True once every assigned ticket has been completed and written — the
  /// graceful-close condition.
  [[nodiscard]] bool drained() const noexcept {
    return inflight_ == 0 && ready_.empty() && !has_output();
  }

  // ---------------------------------- lifecycle flags (event-loop owned)
  bool eof = false;                ///< peer finished sending (read got 0)
  /// QUIT or a fatal framing error seen: serve no further commands, close
  /// once drained.
  bool close_after_flush = false;
  bool reads_suspended = false;    ///< EPOLLIN currently off
  /// A cold LOAD is building on the worker pool.  Commands behind it park
  /// in `deferred` until its completion lands: a pipelined `LOAD …\nROUTE`
  /// burst must see the session resolvable at the ROUTE's admission, which
  /// the old loop-thread-inline LOAD guaranteed for free and the offloaded
  /// path must earn with this barrier.
  bool load_inflight = false;
  std::uint32_t registered_events = 0;  ///< epoll interest as last set
  /// False when epoll refused the read descriptor (EPERM: a regular file).
  /// It never blocks, so the loop reads it whenever reads are wanted; its
  /// writes never meet EAGAIN, so EPOLLOUT is never armed for it either.
  bool read_polled = true;

  /// Commands parsed but not yet dispatched: when one recv batch carries
  /// more (cheap, synchronously-answered) commands than the high-water
  /// mark can hold responses for, the surplus parks here and resumes as
  /// the peer drains — the backlog bound stays real even against a single
  /// pipelined burst.  Cleared on QUIT/fatal/shutdown (commands after
  /// those are never served).
  std::deque<serve::FrameParser::Event> deferred;

 private:
  static constexpr std::size_t kCompactAt = 64 * 1024;

  /// A parked response: the bytes accumulated so far and whether the final
  /// frame has arrived.  An unfinished entry at the front of the line
  /// streams its text out incrementally but stays parked — it must keep
  /// blocking later tickets until complete() marks it done.
  struct Pending {
    std::string text;
    bool done = false;
  };

  void deliver(std::uint64_t seq, std::string bytes, bool done) {
    if (seq == flush_seq_ && ready_.find(seq) == ready_.end()) {
      // Front of line with nothing parked: stream straight through.
      out_ += bytes;
      if (done) {
        ++flush_seq_;
        flush_ready();
      } else {
        // Park an empty marker so drained() and later tickets still see
        // this response as unfinished.
        ready_.emplace(seq, Pending{});
      }
      return;
    }
    auto [it, inserted] = ready_.try_emplace(seq);
    Pending& p = it->second;
    ready_bytes_ += bytes.size();
    p.text += bytes;
    p.done = p.done || done;
    if (seq == flush_seq_) {
      // Front-of-line ticket that was already parked (progress arrived
      // before this chunk): flush what we have; retire it only when done.
      ready_bytes_ -= p.text.size();
      out_ += p.text;
      p.text.clear();
      if (p.done) {
        ready_.erase(it);
        ++flush_seq_;
        flush_ready();
      }
    }
  }

  /// Flattens the in-order prefix of finished responses into the write
  /// buffer, stopping at a gap or at an unfinished (streaming) ticket.
  void flush_ready() {
    auto it = ready_.begin();
    while (it != ready_.end() && it->first == flush_seq_) {
      ready_bytes_ -= it->second.text.size();
      out_ += it->second.text;
      if (!it->second.done) {
        it->second.text.clear();
        break;  // streaming ticket: emit its bytes but keep it parked
      }
      it = ready_.erase(it);
      ++flush_seq_;
    }
  }

  ScopedFd socket_;  ///< empty for an adopted pair
  int read_fd_;
  int write_fd_;
  bool write_is_socket_;
  /// Adopted pairs only.  The write side is restored first, so a pair
  /// sharing one file description (a terminal) ends with the read side's.
  std::optional<NonblockingScope> read_scope_;
  std::optional<NonblockingScope> write_scope_;
  std::uint64_t id_;
  serve::FrameParser parser_;
  std::shared_ptr<std::atomic<bool>> cancel_;
  std::uint64_t next_seq_ = 0;   ///< next ticket to hand out
  std::uint64_t flush_seq_ = 0;  ///< next ticket the write buffer expects
  std::map<std::uint64_t, Pending> ready_;  ///< parked responses
  std::size_t ready_bytes_ = 0;
  std::string out_;
  std::size_t out_off_ = 0;
  std::size_t inflight_ = 0;
};

}  // namespace gcr::net
