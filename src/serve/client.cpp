#include "serve/client.hpp"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>

#include <cerrno>
#define GCR_SERVE_HAVE_POSIX_FD 1
#else
#define GCR_SERVE_HAVE_POSIX_FD 0
#endif

namespace gcr::serve {

#if GCR_SERVE_HAVE_POSIX_FD

namespace {

/// write(2) until done, retrying EINTR.  False on error/closed peer.
bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

FdStreamBuf::FdStreamBuf(int read_fd, int write_fd)
    : read_fd_(read_fd), write_fd_(write_fd) {
  setg(in_buf_.data(), in_buf_.data(), in_buf_.data());
  setp(out_buf_.data(), out_buf_.data() + out_buf_.size());
}

FdStreamBuf::int_type FdStreamBuf::underflow() {
  if (read_fd_ < 0) return traits_type::eof();
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  ssize_t n;
  do {
    n = ::read(read_fd_, in_buf_.data(), in_buf_.size());
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return traits_type::eof();
  setg(in_buf_.data(), in_buf_.data(), in_buf_.data() + n);
  return traits_type::to_int_type(*gptr());
}

bool FdStreamBuf::flush_buffer() {
  const std::size_t n = static_cast<std::size_t>(pptr() - pbase());
  if (n == 0) return true;
  if (write_fd_ < 0 || !write_all(write_fd_, pbase(), n)) return false;
  setp(out_buf_.data(), out_buf_.data() + out_buf_.size());
  return true;
}

FdStreamBuf::int_type FdStreamBuf::overflow(int_type ch) {
  if (!flush_buffer()) return traits_type::eof();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int FdStreamBuf::sync() { return flush_buffer() ? 0 : -1; }

std::streamsize FdStreamBuf::xsputn(const char* s, std::streamsize n) {
  // Large bodies (layout text, route dumps) bypass the buffer: flush what
  // is pending, then write straight through.
  if (n >= static_cast<std::streamsize>(out_buf_.size())) {
    if (!flush_buffer()) return 0;
    return write_all(write_fd_, s, static_cast<std::size_t>(n)) ? n : 0;
  }
  return std::streambuf::xsputn(s, n);
}

#else  // !GCR_SERVE_HAVE_POSIX_FD

FdStreamBuf::FdStreamBuf(int, int) {
  throw std::runtime_error("fd transport requires a POSIX platform");
}
FdStreamBuf::int_type FdStreamBuf::underflow() { return traits_type::eof(); }
FdStreamBuf::int_type FdStreamBuf::overflow(int_type) {
  return traits_type::eof();
}
int FdStreamBuf::sync() { return -1; }
std::streamsize FdStreamBuf::xsputn(const char*, std::streamsize) {
  return 0;
}
bool FdStreamBuf::flush_buffer() { return false; }

#endif  // GCR_SERVE_HAVE_POSIX_FD

StatusLine parse_status(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  StatusLine s;
  const std::string_view kw = line.substr(0, line.find(' '));
  const std::string_view rest =
      kw.size() < line.size() ? line.substr(kw.size() + 1) : std::string_view();
  if (kw == "ERR") {
    s.kind = StatusLine::Kind::kErr;
    s.text = rest.empty() ? "ERR" : std::string(rest);
  } else if (kw == "PASS") {
    const std::string copy(line);
    long long wl = 0;
    unsigned long long of = 0;
    if (std::sscanf(copy.c_str(), "PASS %zu wirelength=%lld overflow=%llu",
                    &s.pass.pass, &wl, &of) != 3) {
      s.text = "malformed PASS line: " + copy;
      return s;
    }
    s.kind = StatusLine::Kind::kPass;
    s.pass.wirelength = static_cast<geom::Cost>(wl);
    s.pass.overflow = static_cast<std::size_t>(of);
  } else if (kw == "OK") {
    const auto [end, ec] =
        std::from_chars(rest.data(), rest.data() + rest.size(), s.body_bytes);
    if (ec != std::errc() || end == rest.data()) {
      s.text = "missing body byte count: " + std::string(line);
      return s;
    }
    s.kind = StatusLine::Kind::kOk;
    std::string_view meta =
        rest.substr(static_cast<std::size_t>(end - rest.data()));
    while (!meta.empty() && meta.front() == ' ') meta.remove_prefix(1);
    s.text = std::string(meta);
  } else {
    s.text = "malformed status line: " + std::string(line);
  }
  return s;
}

Reply read_reply(std::istream& in) {
  Reply r;
  for (;;) {
    if (!std::getline(in, r.status)) {
      r.status.clear();
      r.broken = true;
      r.error = "connection closed before response";
      return r;
    }
    if (!r.status.empty() && r.status.back() == '\r') r.status.pop_back();
    StatusLine s = parse_status(r.status);
    switch (s.kind) {
      case StatusLine::Kind::kPass:
        r.passes.push_back(s.pass);
        continue;
      case StatusLine::Kind::kErr:
        r.error = std::move(s.text);
        return r;
      case StatusLine::Kind::kMalformed:
        r.broken = true;
        r.error = std::move(s.text);
        return r;
      case StatusLine::Kind::kOk:
        break;
    }
    r.meta = std::move(s.text);
    // Chunked, so a corrupt count costs what the stream holds rather than
    // an allocation of the count.
    std::array<char, 16 * 1024> buf{};
    for (std::size_t left = s.body_bytes; left > 0;) {
      in.read(buf.data(),
              static_cast<std::streamsize>(std::min(left, buf.size())));
      const auto got = static_cast<std::size_t>(in.gcount());
      if (got == 0) break;
      r.body.append(buf.data(), got);
      left -= got;
    }
    if (r.body.size() != s.body_bytes) {
      r.broken = true;
      r.error = "truncated response body";
      return r;
    }
    r.ok = true;
    return r;
  }
}

Reply call(std::ostream& out, std::istream& in, const std::string& line,
           const std::string& body) {
  out << line << '\n' << body;
  out.flush();
  return read_reply(in);
}

std::string load_command(const std::string& text) {
  return "LOAD " + std::to_string(text.size());
}

std::string load_frame(const std::string& text) {
  return load_command(text) + '\n' + text;
}

std::string meta_token(const std::string& meta, const std::string& key) {
  std::istringstream is(meta);
  std::string tok;
  while (is >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq != std::string::npos && tok.compare(0, eq, key) == 0) {
      return tok.substr(eq + 1);
    }
  }
  return std::string();
}

long long meta_value(const std::string& meta, const std::string& key) {
  const std::string v = meta_token(meta, key);
  long long n = -1;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
  return ec == std::errc() && end != v.data() ? n : -1;
}

}  // namespace gcr::serve
