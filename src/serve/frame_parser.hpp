#pragma once

#include <cstddef>
#include <string>
#include <vector>

/// \file frame_parser.hpp
/// The protocol's one framer: bytes go in as they arrive, complete protocol
/// commands come out.  The epoll loop feeds it whatever a non-blocking
/// read() returned, so it never waits for "one line" or "N body bytes";
/// the parser is a state machine over the grammar (command line, optional
/// byte-counted LOAD body) that holds partial input between feed() calls.
///
/// Hardening rules:
///   - a command line longer than max_line is discarded to its terminating
///     LF and reported (the connection answers ERR and keeps going);
///   - a LOAD whose count exceeds max_load is reported and its body bytes
///     are skipped without buffering (framing survives);
///   - a LOAD whose count cannot be parsed is fatal — the stream position
///     is unknowable, so the connection must close after the ERR.
/// Memory held between calls is therefore bounded by max_line + max_load
/// regardless of peer behaviour.

namespace gcr::serve {

/// Command lines longer than this are rejected with ERR and discarded up to
/// the next LF; framing survives, memory stays bounded.
inline constexpr std::size_t kMaxCommandLine = 4096;
/// LOAD bodies above this are refused (the declared bytes are skipped so
/// the connection stays framed).
inline constexpr std::size_t kMaxLoadBytes = 64ull << 20;

/// Framing limits.  Top-level (not nested in FrameParser) so its default
/// member initializers are usable in default arguments — GCC rejects that
/// for nested aggregates until the enclosing class completes.
struct FrameParserOptions {
  std::size_t max_line = kMaxCommandLine;
  std::size_t max_load = kMaxLoadBytes;
};

class FrameParser {
 public:
  using Options = FrameParserOptions;

  enum class EventKind {
    kCommand,       ///< complete command line (+ body when it was a LOAD)
    kOverlongLine,  ///< line exceeded max_line; discarded — answer ERR
    kOversizeLoad,  ///< LOAD count > max_load; body skipped — answer ERR
    kFatal,         ///< unparsable LOAD count — answer ERR, then close
  };

  struct Event {
    EventKind kind = EventKind::kCommand;
    std::string line;   ///< the command line, CR stripped
    std::string body;   ///< LOAD body bytes
    std::string error;  ///< diagnostic for the non-kCommand kinds
  };

  explicit FrameParser(const FrameParserOptions& opts = FrameParserOptions())
      : opts_(opts) {}

  /// Feeds \p n bytes, appending every event they complete to \p out.
  /// Returns false once a fatal event has been emitted; further bytes are
  /// ignored (the connection is out of sync and must close).
  bool feed(const char* data, std::size_t n, std::vector<Event>& out);

  /// Signals end of input.  Flushes a trailing LF-less command line (served
  /// like any other) and reports a LOAD whose declared body the peer never
  /// finished (kFatal, "body truncated").  The parser is dead afterwards.
  /// Returns like feed().
  bool finish_eof(std::vector<Event>& out);

  [[nodiscard]] bool dead() const noexcept { return state_ == State::kDead; }
  /// Bytes currently buffered awaiting completion (tests pin the bound).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return line_.size() + body_.size();
  }

 private:
  enum class State {
    kLine,         ///< accumulating a command line
    kBody,         ///< accumulating a LOAD body (need_ bytes left)
    kSkipBody,     ///< discarding an oversize LOAD body (need_ bytes left)
    kDiscardLine,  ///< discarding an overlong line up to the next LF
    kDead,         ///< fatal framing error; feed() is a no-op
  };

  /// Handles one complete command line; may change state (LOAD).
  void finish_line(std::vector<Event>& out);

  FrameParserOptions opts_;
  State state_ = State::kLine;
  std::string line_;        ///< partial command line
  std::string body_;        ///< partial LOAD body
  std::string load_line_;   ///< the LOAD command line awaiting its body
  std::size_t need_ = 0;    ///< body bytes still to read / skip
};

}  // namespace gcr::serve
