#include "client.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args,
               const std::vector<int>& cpus) {
  int out[2];
  if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(127);  // parent already gone
    if (!pin_to(cpus)) _exit(127);
    ::dup2(out[1], 1);
    ::close(out[0]);
    ::close(out[1]);
    std::vector<std::string> argv_s{binary, "--listen", "0"};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(out[1]);
  pid_ = pid;
  std::string banner;
  char c = 0;
  while (banner.find('\n') == std::string::npos && ::read(out[0], &c, 1) == 1) {
    banner.push_back(c);
  }
  ::close(out[0]);
  const std::size_t colon = banner.rfind(':');
  const long port = colon == std::string::npos
                        ? 0
                        : std::strtol(&banner[colon + 1], nullptr, 10);
  if (port <= 0 || port > 65535) {
    stop(1.0);
    throw std::runtime_error("daemon did not print its banner: '" + banner +
                             "'");
  }
  port_ = static_cast<std::uint16_t>(port);
}

Daemon::~Daemon() {
  if (pid_ > 0) stop(1.0);
}

bool Daemon::stop(double timeout_s) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGINT);
  int status = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  pid_t got = 0;
  while ((got = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (got == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  return got == 0 ? false : WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Conn::Conn(std::uint16_t port) : fd_(gcr::net::tcp_connect(port)) {
  const int one = 1;
  ::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Reply Conn::call(const std::string& line, const std::string& body) {
  send_all(line + '\n' + body);
  Reply r;
  std::string status;
  for (;;) {
    status = read_line();
    if (status.rfind("PASS ", 0) != 0) break;
    r.progress += status + '\n';
  }
  if (status.rfind("ERR", 0) == 0) {
    r.error = status.size() > 4 ? status.substr(4) : status;
    return r;
  }
  std::istringstream is(status);
  std::string kw;
  std::size_t nbytes = 0;
  if (!(is >> kw >> nbytes) || kw != "OK") {
    r.error = "malformed status line: " + status;
    return r;
  }
  std::getline(is >> std::ws, r.meta);
  r.body = read_exact(nbytes);
  r.ok = true;
  return r;
}

void Conn::send_all(const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_.get(), data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed");
    off += static_cast<std::size_t>(n);
  }
}

void Conn::fill() {
  if (pos_ > 0) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_.get(), chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("connection closed by the daemon");
    buf_.append(chunk, static_cast<std::size_t>(n));
    return;
  }
}

std::string Conn::read_line() {
  for (;;) {
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      std::string line = buf_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    fill();
  }
}

std::string Conn::read_exact(std::size_t n) {
  while (buf_.size() - pos_ < n) fill();
  std::string out = buf_.substr(pos_, n);
  pos_ += n;
  return out;
}

bool pin_to(const std::vector<int>& cpus) {
  if (cpus.empty()) return true;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0;
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
  if (v.empty()) return -1;
  char* end = nullptr;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  return *end == '\0' ? parsed : -1;
}

}  // namespace perfbench
