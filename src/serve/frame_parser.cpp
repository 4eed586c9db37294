#include "serve/frame_parser.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "serve/protocol.hpp"

namespace gcr::serve {

bool FrameParser::feed(const char* data, std::size_t n,
                       std::vector<Event>& out) {
  std::size_t i = 0;
  while (i < n && state_ != State::kDead) {
    switch (state_) {
      case State::kLine: {
        const void* nl = std::memchr(data + i, '\n', n - i);
        const std::size_t line_end =
            nl != nullptr
                ? static_cast<std::size_t>(static_cast<const char*>(nl) - data)
                : n;
        const std::size_t chunk = line_end - i;
        if (line_.size() + chunk > opts_.max_line) {
          line_.clear();
          Event ev;
          ev.kind = EventKind::kOverlongLine;
          ev.error = "command line exceeds " + std::to_string(opts_.max_line) +
                     " bytes";
          out.push_back(std::move(ev));
          state_ = State::kDiscardLine;
          break;  // kDiscardLine consumes from i
        }
        line_.append(data + i, chunk);
        i = line_end;
        if (nl != nullptr) {
          ++i;  // consume the LF
          finish_line(out);
        }
        break;
      }

      case State::kBody: {
        const std::size_t take = std::min(need_, n - i);
        body_.append(data + i, take);
        i += take;
        need_ -= take;
        if (need_ == 0) {
          Event ev;
          ev.kind = EventKind::kCommand;
          ev.line = std::move(load_line_);
          ev.body = std::move(body_);
          load_line_.clear();
          body_.clear();
          out.push_back(std::move(ev));
          state_ = State::kLine;
        }
        break;
      }

      case State::kSkipBody: {
        const std::size_t take = std::min(need_, n - i);
        i += take;
        need_ -= take;
        if (need_ == 0) state_ = State::kLine;
        break;
      }

      case State::kDiscardLine: {
        const void* nl = std::memchr(data + i, '\n', n - i);
        if (nl == nullptr) {
          i = n;
        } else {
          i = static_cast<std::size_t>(static_cast<const char*>(nl) - data) + 1;
          state_ = State::kLine;
        }
        break;
      }

      case State::kDead:
        break;
    }
  }
  return state_ != State::kDead;
}

bool FrameParser::finish_eof(std::vector<Event>& out) {
  switch (state_) {
    case State::kLine:
      if (!line_.empty()) finish_line(out);  // may emit kCommand / kFatal
      break;
    case State::kBody: {
      Event ev;
      ev.kind = EventKind::kFatal;
      ev.line = std::move(load_line_);
      ev.error = "LOAD body truncated (connection out of sync)";
      load_line_.clear();
      body_.clear();
      out.push_back(std::move(ev));
      state_ = State::kDead;
      break;
    }
    case State::kSkipBody:     // oversize LOAD already answered its ERR
    case State::kDiscardLine:  // overlong line already answered its ERR
    case State::kDead:
      break;
  }
  const bool clean = state_ != State::kDead;  // finish_line may go fatal
  state_ = State::kDead;  // no further input exists either way
  return clean;
}

void FrameParser::finish_line(std::vector<Event>& out) {
  if (!line_.empty() && line_.back() == '\r') line_.pop_back();
  // Blank lines are keep-alives: no event, no response.
  if (line_.find_first_not_of(" \t") == std::string::npos) {
    line_.clear();
    return;
  }

  // LOAD framing is the parser's business — the body length comes from the
  // command line.  Every other command passes through whole.
  std::istringstream is(line_);
  std::string kw;
  is >> kw;
  if (kw != "LOAD") {
    Event ev;
    ev.kind = EventKind::kCommand;
    ev.line = std::move(line_);
    line_.clear();
    out.push_back(std::move(ev));
    return;
  }

  unsigned long long nbytes = 0;
  try {
    nbytes = parse_load_count(line_);
  } catch (const std::exception& e) {
    Event ev;
    ev.kind = EventKind::kFatal;
    ev.line = std::move(line_);
    ev.error = std::string(e.what()) + " (connection out of sync)";
    line_.clear();
    out.push_back(std::move(ev));
    state_ = State::kDead;
    return;
  }

  if (nbytes > opts_.max_load) {
    Event ev;
    ev.kind = EventKind::kOversizeLoad;
    ev.line = std::move(line_);
    ev.error = opts_.max_load == kMaxLoadBytes
                   ? "LOAD body larger than 64 MiB"
                   : "LOAD body larger than " + std::to_string(opts_.max_load) +
                         " bytes";
    line_.clear();
    out.push_back(std::move(ev));
    need_ = static_cast<std::size_t>(nbytes);
    state_ = need_ > 0 ? State::kSkipBody : State::kLine;
    return;
  }

  if (nbytes == 0) {
    Event ev;
    ev.kind = EventKind::kCommand;
    ev.line = std::move(line_);
    line_.clear();
    out.push_back(std::move(ev));
    return;
  }

  load_line_ = std::move(line_);
  line_.clear();
  body_.clear();
  // Reserve only a bounded starter, not the declared size: a 15-byte
  // "LOAD <huge>" line must not pin max_load bytes per connection before a
  // single body byte arrives (amplification across many connections).
  // Memory then tracks bytes actually received, amortized by string growth.
  body_.reserve(std::min<std::size_t>(static_cast<std::size_t>(nbytes),
                                      64 * 1024));
  need_ = static_cast<std::size_t>(nbytes);
  state_ = State::kBody;
}

}  // namespace gcr::serve
