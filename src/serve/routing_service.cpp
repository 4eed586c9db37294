#include "serve/routing_service.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "io/route_dump.hpp"
#include "io/text_format.hpp"
#include "pipeline/stage_runner.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"

namespace gcr::serve {

namespace {

std::uint64_t micros_between(std::chrono::steady_clock::time_point a,
                             std::chrono::steady_clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <typename... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

/// The latency shard and TRACE label of a route-family request.
VerbKind verb_of(const RouteRequest::Payload& payload) {
  return std::visit(
      Overloaded{
          [](const RouteRequest::Route&) { return VerbKind::kRoute; },
          [](const RouteRequest::Reroute&) { return VerbKind::kReroute; },
          [](const route::OptimizeOptions&) { return VerbKind::kOptimize; },
          [](const pipeline::StageOptions& stage) {
            switch (stage.kind) {
              case pipeline::StageKind::kDetail: return VerbKind::kDetail;
              case pipeline::StageKind::kCongest: return VerbKind::kCongest;
              case pipeline::StageKind::kVerify: return VerbKind::kVerify;
              case pipeline::StageKind::kSvg: break;
            }
            return VerbKind::kSvg;
          }},
      payload);
}

/// Closes a descriptor when it goes out of scope.
struct FdGuard {
  explicit FdGuard(int descriptor) : fd(descriptor) {}
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;

  int fd;
};

/// A SAVE name is a plain file name that cannot shadow a temp file.
bool valid_save_name(std::string_view name) {
  return !name.empty() && name.front() != '.' &&
         name.find_first_of("/\\") == std::string_view::npos;
}

/// True for exactly the names write_file_durably gives its temp files:
/// '.', a valid SAVE name, '.', and mkstemp's six letters or digits.
bool is_save_temp(std::string_view file) {
  constexpr std::size_t kRandom = 6;
  if (file.size() < kRandom + 3 || file.front() != '.' ||
      file[file.size() - kRandom - 1] != '.') {
    return false;
  }
  const std::string_view tail = file.substr(file.size() - kRandom);
  return valid_save_name(file.substr(1, file.size() - kRandom - 2)) &&
         std::all_of(tail.begin(), tail.end(), [](char ch) {
           return std::isalnum(static_cast<unsigned char>(ch)) != 0;
         });
}

/// Publishes \p blob as `dir/name`, atomically and durably.  The bytes go
/// to a temp file of their own in the same directory — concurrent saves
/// under one name never share it — which is fsynced, renamed over the
/// target, and followed by an fsync of the directory so the rename itself
/// survives a crash.  Returns the error text, empty on success.
std::string write_file_durably(const std::filesystem::path& dir,
                               const std::string& name,
                               const std::string& blob) {
  // SAVE names never start with a dot, so the temp file cannot shadow one.
  std::string tmp = (dir / ("." + name + ".XXXXXX")).string();
  std::string error;
  {
    const FdGuard file(::mkstemp(tmp.data()));
    if (file.fd < 0) {
      return "cannot write snapshot file in '" + dir.string() +
             "': " + std::strerror(errno);
    }
    for (std::size_t off = 0; off < blob.size() && error.empty();) {
      const ssize_t n = ::write(file.fd, blob.data() + off, blob.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        error = "short write to snapshot file '" + tmp + "'";
      } else {
        off += static_cast<std::size_t>(n);
      }
    }
    if (error.empty() && ::fsync(file.fd) != 0) {
      error = "cannot sync snapshot file '" + tmp + "'";
    }
  }
  if (error.empty() &&
      ::rename(tmp.c_str(), (dir / name).string().c_str()) != 0) {
    error = std::string("cannot publish snapshot file: ") +
            std::strerror(errno);
  }
  if (!error.empty()) {
    ::unlink(tmp.c_str());
    return error;
  }
  const FdGuard dir_fd(::open(dir.string().c_str(), O_RDONLY | O_DIRECTORY));
  if (dir_fd.fd < 0 || ::fsync(dir_fd.fd) != 0) {
    return "cannot sync snapshot directory '" + dir.string() + "'";
  }
  return {};
}

}  // namespace

const char* to_string(RouteStatus s) noexcept {
  switch (s) {
    case RouteStatus::kOk: return "ok";
    case RouteStatus::kSessionNotFound: return "session_not_found";
    case RouteStatus::kRejected: return "rejected";
    case RouteStatus::kExpired: return "deadline_expired";
    case RouteStatus::kCancelled: return "cancelled";
    case RouteStatus::kError: return "error";
  }
  return "unknown";
}

RoutingService::RoutingService(const Options& opts)
    : opts_(opts),
      cache_(opts.cache_capacity),
      stage_cache_(opts.stage_cache_capacity),
      queue_(opts.queue_capacity),
      start_(std::chrono::steady_clock::now()),
      slow_ring_(opts.slow_ring_capacity, opts.slow_threshold_ms * 1000) {
  // Rehydrate snapshotted pins before the workers start, so restored
  // sessions are addressable from the very first request.
  if (!opts_.restore_dir.empty()) restore_pins(opts_.restore_dir);
  const std::size_t n = route::resolve_worker_count(opts.workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (!opts_.snapshot_dir.empty() && opts_.snapshot_interval_s > 0) {
    autosaver_ = std::thread([this] { autosave_loop(); });
  }
}

RoutingService::~RoutingService() {
  // The autosaver submits into the queue; stop it before admission closes.
  if (autosaver_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(autosave_mu_);
      autosave_stop_ = true;
    }
    autosave_cv_.notify_all();
    autosaver_.join();
  }
  queue_.close();
  for (std::thread& t : workers_) t.join();
  // Workers have drained the queue: every accepted job's callback has fired.
}

std::shared_ptr<const LayoutSession> RoutingService::load(
    const std::string& text, bool* cache_hit) {
  return cache_.load(text, cache_hit);
}

std::future<RouteResponse> RoutingService::submit(RouteRequest req) {
  auto p = std::make_shared<std::promise<RouteResponse>>();
  std::future<RouteResponse> fut = p->get_future();
  submit(std::move(req),
         [p](RouteResponse resp) { p->set_value(std::move(resp)); });
  return fut;
}

void RoutingService::submit(RouteRequest req, RouteCallback done) {
  metrics_.requests_submitted.fetch_add(1, std::memory_order_relaxed);
  Job job(verb_of(req.payload), req.session_key,
          RouteWork{{}, {}, std::move(done)});
  RouteWork& work = std::get<RouteWork>(job.work);
  if (req.received != std::chrono::steady_clock::time_point{} &&
      req.received <= job.submitted) {
    job.trace.parse_us = micros_between(req.received, job.submitted);
  }

  // Resolve the session at admission: an unknown handle must fail fast, not
  // burn a queue slot and a worker wake-up.
  work.session = cache_.find(req.session_key);
  if (work.session == nullptr) {
    return refuse(job, RouteStatus::kSessionNotFound);
  }

  // Resolve a net-name list against the session while we still can answer
  // with a precise diagnostic; by worker time the client context is gone.
  // ROUTE lists become a subset restriction, REROUTE lists the rip-up set.
  if (!req.net_names.empty()) {
    const LayoutSession& session = *work.session;
    std::vector<std::size_t> indices;
    indices.reserve(req.net_names.size());
    std::vector<bool> taken(session.layout.nets().size(), false);
    for (const std::string& name : req.net_names) {
      const auto it = session.net_index.find(name);
      if (it == session.net_index.end()) {
        return refuse(job, RouteStatus::kError, "unknown net '" + name + "'");
      }
      if (taken[it->second]) continue;  // duplicate name: route once
      taken[it->second] = true;
      indices.push_back(it->second);
    }
    if (auto* reroute = std::get_if<RouteRequest::Reroute>(&req.payload)) {
      reroute->opts.reroute = std::move(indices);
      reroute->opts.subset.clear();
    } else if (auto* route = std::get_if<RouteRequest::Route>(&req.payload)) {
      route->opts.subset = std::move(indices);
    }
  }
  work.req = std::move(req);
  // Shard by session: fair dispatch is per layout, so one session's burst
  // queues behind itself instead of in front of everyone else.
  admit(std::move(job), job.label);
}

RouteResponse RoutingService::route(RouteRequest req) {
  return submit(std::move(req)).get();
}

void RoutingService::submit_pin(PinRequest req, PinCallback done) {
  Job job(VerbKind::kPin, req.key, PinWork{{}, {}, {}, 0, std::move(done)});
  PinWork& work = std::get<PinWork>(job.work);
  if (req.owner == nullptr) {
    return refuse(job, RouteStatus::kError,
                  "pin request without a connection identity");
  }

  std::shared_ptr<PinnedSession> pin = pins_.find(req.key);
  if (pin == nullptr && req.op == PinRequest::Op::kPin) {
    // Derive from a cached session.  The expensive copy-on-pin runs on a
    // worker; no ticket — the pin does not exist yet, so nothing to order
    // against (and the client cannot address it before the reply names
    // the handle).
    work.session = cache_.find(req.key);
    if (work.session == nullptr) {
      return refuse(job, RouteStatus::kSessionNotFound);
    }
    work.req = std::move(req);
    // Derive shards under the *base session* key: the handle does not
    // exist yet, and the copy-on-pin competes with that session's routes.
    return admit(std::move(job), job.label);
  }
  if (pin == nullptr) {
    return refuse(job, RouteStatus::kSessionNotFound,
                  "no pin '" + req.key + "'");
  }
  // Advisory ownership pre-check (claims excepted — claiming an unowned
  // pin is the point; system sweeps too — the autosaver snapshots pins it
  // does not own); re-checked authoritatively on the worker once this
  // op's turn comes up.
  if (req.op != PinRequest::Op::kPin && !req.system &&
      !pins_.verify(pin, req.owner)) {
    return refuse(job, RouteStatus::kError,
                  "pin '" + req.key + "' is owned by another connection");
  }
  work.pin = std::move(pin);
  work.ticket = work.pin->acquire_ticket();
  work.req = std::move(req);
  // Mutations shard by handle: the pin's FIFO ticket chain and its queue
  // shard agree on order, and a busy pin cannot starve other sessions.
  admit(std::move(job), work.pin->handle);
}

void RoutingService::release_pins(
    const std::shared_ptr<std::atomic<bool>>& owner, bool preserve) {
  const std::size_t released = pins_.release_owner(owner, preserve);
  if (released > 0) {
    metrics_.pins_released.fetch_add(released, std::memory_order_relaxed);
  }
}

std::size_t RoutingService::final_save_pins() {
  if (opts_.snapshot_dir.empty()) return 0;
  std::size_t written = 0;
  for (const auto& pin : pins_.all()) {
    // Ride the ticket chain: a mutation still running on a worker (or
    // queued ahead by a force-closed connection) holds an earlier ticket,
    // so wait_turn is the per-pin quiesce barrier — the snapshot always
    // serializes a committed state, never a half-applied op.
    const std::uint64_t ticket = pin->acquire_ticket();
    pin->wait_turn(ticket);
    PinResponse resp;
    save_pin(*pin, pin->handle, resp);
    pin->finish_turn(ticket);
    if (resp.ok()) {
      ++written;
      metrics_.pin_autosaves.fetch_add(1, std::memory_order_relaxed);
    } else {
      std::cerr << "gcr_serve: final save of '" << pin->handle
                << "' failed: " << resp.error << "\n";
    }
  }
  return written;
}

void RoutingService::autosave_loop() {
  const auto interval = std::chrono::seconds(opts_.snapshot_interval_s);
  std::unique_lock<std::mutex> lock(autosave_mu_);
  for (;;) {
    if (autosave_cv_.wait_for(lock, interval,
                              [&] { return autosave_stop_; })) {
      return;
    }
    lock.unlock();
    // Hot pins persist continuously: each registered pin gets a system
    // SAVE job that rides its ticket chain like any client mutation, so
    // the snapshot lands between ops, in submission order, without ever
    // claiming the pin away from its owner.
    for (const auto& pin : pins_.all()) {
      PinRequest req;
      req.op = PinRequest::Op::kSave;
      req.key = pin->handle;
      req.save_name = pin->handle;
      req.owner = system_owner_;
      req.system = true;
      submit_pin(std::move(req), [this](PinResponse resp) {
        if (resp.ok()) {
          metrics_.pin_autosaves.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    lock.lock();
  }
}

void RoutingService::submit_load(std::string text, std::string key,
                                 std::shared_ptr<std::atomic<bool>> cancel,
                                 LoadCallback done) {
  metrics_.loads_offloaded.fetch_add(1, std::memory_order_relaxed);
  Job job(VerbKind::kLoad, std::move(key),
          LoadWork{std::move(text), {}, std::move(cancel), std::move(done)});
  // The load key IS the session content key, so a cold LOAD queues in the
  // same shard as that session's routes — fair against other sessions,
  // ordered within its own.
  admit(std::move(job), job.label);
}

void RoutingService::submit_gen(std::function<std::string()> synth,
                                std::shared_ptr<std::atomic<bool>> cancel,
                                LoadCallback done) {
  metrics_.loads_offloaded.fetch_add(1, std::memory_order_relaxed);
  Job job(VerbKind::kGen, {},
          LoadWork{{}, std::move(synth), std::move(cancel), std::move(done)});
  // All GENs share one shard: synthesis has no session identity yet, and
  // pooling them keeps a generation storm to one turn per round.
  admit(std::move(job), "gen");
}

void RoutingService::admit(Job&& job, std::string shard) {
  job.id = trace_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Admission work (session resolve, net-name resolution) is the span
  // between the origin and here; the queue span starts at this stamp.
  job.trace.enqueue_us =
      micros_between(job.submitted, std::chrono::steady_clock::now());
  // try_push moves only on success, so a rejected job still owns its
  // callback and can deliver the rejection.
  if (!queue_.try_push(shard, std::move(job))) {
    refuse(job, RouteStatus::kRejected);
  }
}

void RoutingService::refuse(Job& job, RouteStatus status, std::string error) {
  std::visit(
      Overloaded{
          [&](RouteWork& work) {
            (status == RouteStatus::kRejected ? metrics_.requests_rejected
             : status == RouteStatus::kSessionNotFound
                 ? metrics_.requests_not_found
                 : metrics_.requests_errored)
                .fetch_add(1, std::memory_order_relaxed);
            RouteResponse resp;
            resp.status = status;
            resp.error = std::move(error);
            work.done(std::move(resp));
          },
          [&](LoadWork& work) {
            metrics_.loads_failed.fetch_add(1, std::memory_order_relaxed);
            if (job.verb == VerbKind::kGen) {
              metrics_.gens_failed.fetch_add(1, std::memory_order_relaxed);
            }
            LoadResponse resp;
            resp.error = to_string(status);
            work.done(std::move(resp));
          },
          [&](PinWork& work) {
            metrics_.pin_ops_failed.fetch_add(1, std::memory_order_relaxed);
            if (work.pin != nullptr) work.pin->abort_turn(work.ticket);
            PinResponse resp;
            resp.status = status;
            resp.error = std::move(error);
            work.done(std::move(resp));
          }},
      job.work);
}

std::uint64_t RoutingService::complete(Job& job, RouteStatus status) {
  // One clock read produces both the reported latency and the trace's
  // total_us — the rendered span deltas sum to total_us exactly.
  const std::uint64_t total =
      micros_between(job.submitted, std::chrono::steady_clock::now());
  RequestTrace& trace = job.trace;
  // LOAD/GEN stay out of the *global* histograms: those are what STATS
  // reports as routing percentiles, and one cold environment build would
  // distort p95/p99 for every dashboard reading them.  Their latency lives
  // in their own verb shard (and in the slow-request ring) instead.
  if (job.verb != VerbKind::kLoad && job.verb != VerbKind::kGen) {
    metrics_.queue_wait.record(trace.dequeue_us);
    metrics_.latency.record(total);
  }
  // Early-out paths (cancel/expiry at dequeue, admission-stage errors) skip
  // some stamps; clamp forward so the chain stays monotone with zero-width
  // spans for the phases that never ran.
  if (trace.dequeue_us < trace.enqueue_us) trace.dequeue_us = trace.enqueue_us;
  if (trace.env_us < trace.dequeue_us) trace.env_us = trace.dequeue_us;
  if (trace.exec_us < trace.env_us) trace.exec_us = trace.env_us;
  trace.total_us = total;
  metrics_.verb_latency[static_cast<std::size_t>(job.verb)].record(total);
  SlowRecord rec;
  rec.id = job.id;
  rec.verb = job.verb;
  rec.session = job.label;
  rec.status = to_string(status);
  rec.trace = trace;
  slow_ring_.offer(std::move(rec));
  return total;
}

RouteStatus RoutingService::stopped(
    const std::shared_ptr<std::atomic<bool>>& cancel) {
  // The cancel token wins; otherwise it was the deadline.
  const bool was_cancel = cancel && cancel->load(std::memory_order_relaxed);
  (was_cancel ? metrics_.requests_cancelled : metrics_.requests_expired)
      .fetch_add(1, std::memory_order_relaxed);
  return was_cancel ? RouteStatus::kCancelled : RouteStatus::kExpired;
}

void RoutingService::worker_loop() {
  // pop() returns nullopt once the queue is closed and drained.
  while (std::optional<Job> job = queue_.pop()) {
    job->trace.dequeue_us =
        micros_between(job->submitted, std::chrono::steady_clock::now());
    std::visit([&](auto& work) { run(*job, work); }, job->work);
  }
}

/// Runs one route-family verb on a worker: each call fills the response
/// and returns its status.  Every span stamp is an offset from submission.
struct RoutingService::VerbRunner {
  RoutingService& service;
  Job& job;
  RouteWork& work;
  RouteResponse& resp;

  [[nodiscard]] std::uint64_t now_us() const {
    return micros_between(job.submitted, std::chrono::steady_clock::now());
  }

  RouteStatus operator()(RouteRequest::Route& verb) const {
    // A subset result holds only the requested nets: only a whole-netlist
    // pass is committed.
    return pass(verb.opts, verb.opts.subset, verb.opts.subset.empty());
  }

  RouteStatus operator()(RouteRequest::Reroute& verb) const {
    // The result carries the whole netlist around the rip-up set; the dump
    // shows only the re-routed nets (the rest was the committed backdrop).
    return pass(verb.opts, verb.opts.reroute, /*commit=*/true);
  }

  RouteStatus operator()(route::OptimizeOptions& opts) const {
    opts.deadline = work.req.deadline;
    opts.cancel = work.req.cancel;
    // Per-pass sub-spans: wrap the caller's progress hook so every
    // completed pass leaves a trace stamp (same origin as the spans).
    opts.progress = [user = std::move(opts.progress), this](
                        const route::OptimizePassStats& p) {
      job.trace.subs.push_back({"pass" + std::to_string(p.pass), now_us()});
      if (user) user(p);
    };
    const route::Optimizer optimizer(work.session->layout, work.session->env);
    job.trace.env_us = now_us();
    route::OptimizeReport report = optimizer.run(opts);
    job.trace.exec_us = now_us();
    // The client vanished mid-run (pass-boundary check): nothing wants the
    // result.  PASS lines already streamed are fine — the peer that would
    // have read them is gone.
    if (report.cancelled) return service.stopped(work.req.cancel);
    resp.result = std::move(report.result);
    resp.passes = std::move(report.passes);
    service.metrics_.optimizes_ok.fetch_add(1, std::memory_order_relaxed);
    service.metrics_.optimize_passes.fetch_add(
        resp.passes.empty() ? 0 : resp.passes.size() - 1,
        std::memory_order_relaxed);
    return publish(/*commit=*/true);
  }

  RouteStatus operator()(const pipeline::StageOptions& sopts) const {
    RouteStatus status = RouteStatus::kError;
    try {
      status = stage(sopts);
    } catch (...) {
      service.metrics_.stages_failed.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
    (status == RouteStatus::kOk ? service.metrics_.stages_ok
                                : service.metrics_.stages_failed)
        .fetch_add(1, std::memory_order_relaxed);
    return status;
  }

  /// ROUTE/REROUTE: one NetlistRouter pass; \p dump restricts the response
  /// dump (empty = every net).
  RouteStatus pass(route::NetlistOptions& opts,
                   const std::vector<std::size_t>& dump, bool commit) const {
    // The session's environment is injected, so this call performs no
    // ObstacleIndex / EscapeLineSet construction — the cache already paid
    // for both.  That holds for *sequential* mode too: the router copies
    // the shared environment and absorbs routed nets with incremental
    // commit_route updates instead of per-net rebuilds.
    const route::NetlistRouter router(work.session->layout,
                                      work.session->env);
    opts.deadline = work.req.deadline;
    opts.cancel = work.req.cancel;
    job.trace.env_us = now_us();
    resp.result = router.route_all(opts);
    job.trace.exec_us = now_us();
    if (resp.result.cancelled) {
      // Stopped between nets: the partial result must not be dumped,
      // committed, or counted.
      resp.result = {};
      return service.stopped(work.req.cancel);
    }
    resp.nets = dump;
    return publish(commit);
  }

  /// A finished routing run: answer with the session, optionally publish
  /// the (full-netlist) result as the session's committed routes, count it.
  /// The fingerprint in the committed snapshot re-keys the stage cache, so
  /// a mutated routing invalidates cached stage results while a
  /// byte-identical re-commit keeps them hot.
  RouteStatus publish(bool commit) const {
    resp.session = work.session;
    if (commit) work.session->routes.set(resp.result);
    ServiceMetrics& m = service.metrics_;
    m.requests_ok.fetch_add(1, std::memory_order_relaxed);
    m.nets_routed.fetch_add(resp.result.routed, std::memory_order_relaxed);
    m.nets_failed.fetch_add(resp.result.failed, std::memory_order_relaxed);
    return RouteStatus::kOk;
  }

  /// DETAIL/CONGEST/VERIFY/SVG against the session's committed routes.
  RouteStatus stage(const pipeline::StageOptions& sopts) const {
    const LayoutSession& session = *work.session;
    // The stage consumes the committed routes.  A fresh session has none:
    // run the default full sequential pass once and commit it, so `LOAD;
    // DETAIL` works without an explicit ROUTE — and later stages (and
    // ROUTEs) share that exact snapshot.
    std::shared_ptr<const pipeline::CommittedRoutes> state =
        session.routes.get();
    if (state == nullptr) {
      // The implicit route honors the stage request's deadline and cancel
      // token (checked between nets) — on a large GEN'd session it can
      // dwarf the stage itself.  A stopped route is never committed: the
      // next request starts from a clean no-routes slot.
      route::NetlistOptions ropts;
      ropts.deadline = work.req.deadline;
      ropts.cancel = work.req.cancel;
      route::NetlistResult routed =
          route::NetlistRouter(session.layout, session.env).route_all(ropts);
      if (routed.cancelled) return service.stopped(work.req.cancel);
      state = session.routes.set(std::move(routed));
    }
    // Committed routes (possibly just materialized above) are this verb's
    // "environment": everything after this stamp is the stage itself.
    job.trace.env_us = now_us();

    const std::string key = pipeline::StageCache::key_for(
        session.key, state->fingerprint, sopts.fingerprint());
    if (auto cached = service.stage_cache_.find(key)) {
      resp.stage = std::move(cached);
      resp.stage_cached = true;
      job.trace.subs.push_back({"stage_cache_hit", now_us()});
    } else {
      const pipeline::StageContext ctx{session.layout, session.env,
                                       state->result, work.req.cancel,
                                       work.req.deadline};
      pipeline::StageOutcome out = pipeline::run_stage(ctx, sopts);
      // Stopped inside the engine.
      if (out.result == nullptr) return service.stopped(work.req.cancel);
      service.stage_cache_.insert(key, out.result);
      resp.stage = std::move(out.result);
      job.trace.subs.push_back({"stage_run", now_us()});
    }
    job.trace.exec_us = now_us();
    resp.session = work.session;
    service.metrics_.requests_ok.fetch_add(1, std::memory_order_relaxed);
    return RouteStatus::kOk;
  }
};

void RoutingService::run(Job& job, RouteWork& work) {
  const RouteRequest& req = work.req;
  RouteResponse resp;
  resp.queue_wait = std::chrono::microseconds(job.trace.dequeue_us);
  if ((req.cancel && req.cancel->load(std::memory_order_relaxed)) ||
      (req.deadline != std::chrono::steady_clock::time_point{} &&
       std::chrono::steady_clock::now() > req.deadline)) {
    resp.status = stopped(req.cancel);
  } else {
    try {
      resp.status =
          std::visit(VerbRunner{*this, job, work, resp}, work.req.payload);
    } catch (const std::exception& e) {
      resp.status = RouteStatus::kError;
      resp.error = e.what();
      metrics_.requests_errored.fetch_add(1, std::memory_order_relaxed);
    }
  }
  resp.latency = std::chrono::microseconds(complete(job, resp.status));
  resp.trace = std::move(job.trace);
  resp.traced = req.trace;
  work.done(std::move(resp));
}

void RoutingService::run(Job& job, LoadWork& work) {
  LoadResponse resp;
  if (work.cancel && work.cancel->load(std::memory_order_relaxed)) {
    resp.error = "cancelled";  // peer gone: skip the expensive build
  } else {
    // The build consumes the content key out of the label; a failed build
    // leaves the record without a session name.
    std::string key;
    key.swap(job.label);
    try {
      // GEN synthesizes here, then loads by content — the worker hashes
      // the body it just produced (no admission-time probe existed).
      resp.session = work.synth
                         ? cache_.load(work.synth(), &resp.cache_hit)
                         : cache_.load(work.text, std::move(key),
                                       &resp.cache_hit);
      resp.ok = true;
      job.label = resp.session->key;
      metrics_.loads_ok.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception& e) {
      resp.error = e.what();
    }
  }
  if (!resp.ok) {
    metrics_.loads_failed.fetch_add(1, std::memory_order_relaxed);
  }
  if (job.verb == VerbKind::kGen) {
    (resp.ok ? metrics_.gens_ok : metrics_.gens_failed)
        .fetch_add(1, std::memory_order_relaxed);
  }
  job.trace.exec_us =
      micros_between(job.submitted, std::chrono::steady_clock::now());
  complete(job, resp.ok ? RouteStatus::kOk : RouteStatus::kError);
  work.done(std::move(resp));
}

void RoutingService::run(Job& job, PinWork& work) {
  PinResponse resp;
  resp.queue_wait = std::chrono::microseconds(job.trace.dequeue_us);
  if (work.pin == nullptr) {
    // Derive: copy-on-pin of the cached environment.  The layout is shared
    // with the base session via an aliasing pointer — the read-only entry
    // is untouched and stays cached.
    try {
      std::shared_ptr<const layout::Layout> layout(work.session,
                                                   &work.session->layout);
      std::shared_ptr<PinnedSession> pin =
          pins_.create(work.session->key, std::move(layout),
                       work.session->env, work.req.owner);
      resp.status = RouteStatus::kOk;
      resp.handle = pin->handle;
      resp.base_key = pin->base_key;
      resp.nets_total = pin->layout->nets().size();
      resp.committed = 0;
      metrics_.pins_created.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception& e) {
      resp.status = RouteStatus::kError;
      resp.error = e.what();
    }
  } else {
    PinnedSession& pin = *work.pin;
    pin.wait_turn(work.ticket);
    resp.handle = pin.handle;
    resp.base_key = pin.base_key;
    if (work.req.op == PinRequest::Op::kPin) {
      // Claim (an existing handle — restored-unowned or idempotent
      // re-claim).  Resolved here rather than at admission so a pipelined
      // claim observes the pin's state in submission order.
      switch (pins_.claim(pin.handle, work.req.owner, nullptr)) {
        case PinRegistry::ClaimResult::kOk:
          resp.status = RouteStatus::kOk;
          resp.nets_total = pin.layout->nets().size();
          resp.committed = pin.routes.size();
          break;
        case PinRegistry::ClaimResult::kNotFound:
          resp.status = RouteStatus::kCancelled;
          resp.error = "pin released";
          break;
        case PinRegistry::ClaimResult::kOwnedElsewhere:
          resp.status = RouteStatus::kError;
          resp.error =
              "pin '" + pin.handle + "' is owned by another connection";
          break;
      }
    } else if (work.req.system ? pins_.find(pin.handle) != work.pin
                               : !pins_.verify(work.pin, work.req.owner)) {
      // The pin was released (disconnect or UNPIN racing ahead in another
      // claim cycle) between admission and this turn.  System sweeps skip
      // the ownership half of the check — the autosaver saves pins it does
      // not own — but still bail if the pin left the registry.
      resp.status = RouteStatus::kCancelled;
      resp.error = "pin released";
    } else if (work.req.op == PinRequest::Op::kUnpin) {
      if (pins_.erase(pin.handle, work.req.owner)) {
        resp.status = RouteStatus::kOk;
        metrics_.pins_released.fetch_add(1, std::memory_order_relaxed);
      } else {
        resp.status = RouteStatus::kCancelled;
        resp.error = "pin released";
      }
    } else {
      run_pin_mutation(work, resp);
    }
    pin.finish_turn(work.ticket);
  }
  job.trace.exec_us =
      micros_between(job.submitted, std::chrono::steady_clock::now());
  resp.latency = std::chrono::microseconds(complete(job, resp.status));
  (resp.ok() ? metrics_.pin_ops_ok : metrics_.pin_ops_failed)
      .fetch_add(1, std::memory_order_relaxed);
  work.done(std::move(resp));
}

void RoutingService::run_pin_mutation(PinWork& work, PinResponse& resp) {
  PinnedSession& pin = *work.pin;
  const PinRequest& req = work.req;
  try {
    if (req.op == PinRequest::Op::kSave) {
      save_pin(pin, req.save_name, resp);
      return;
    }

    // Resolve names first: any unknown name fails the whole op before a
    // single mutation lands (atomic at the op level).
    std::vector<std::size_t> ids;
    ids.reserve(req.nets.size());
    std::vector<bool> taken(pin.layout->nets().size(), false);
    for (const std::string& name : req.nets) {
      const auto it = pin.net_index.find(name);
      if (it == pin.net_index.end()) {
        resp.status = RouteStatus::kError;
        resp.error = "unknown net '" + name + "'";
        return;
      }
      if (taken[it->second]) continue;  // duplicate name: once
      taken[it->second] = true;
      ids.push_back(it->second);
    }
    resp.nets_total = ids.size();

    if (req.op == PinRequest::Op::kCommit) {
      for (const std::size_t id : ids) {
        if (pin.routes.count(id) != 0) {
          resp.status = RouteStatus::kError;
          resp.error = "net '" + pin.layout->nets()[id].name() +
                       "' is already committed";
          return;
        }
      }
    } else if (req.op == PinRequest::Op::kUncommit) {
      for (const std::size_t id : ids) {
        if (pin.routes.count(id) == 0) {
          resp.status = RouteStatus::kError;
          resp.error =
              "net '" + pin.layout->nets()[id].name() + "' is not committed";
          return;
        }
      }
    }

    if (req.op == PinRequest::Op::kUncommit) {
      for (const std::size_t id : ids) {
        pin.env.remove_route(id);
        pin.routes.erase(id);
      }
      resp.removed = ids.size();
      resp.committed = pin.routes.size();
      resp.status = RouteStatus::kOk;
      return;
    }

    if (req.op == PinRequest::Op::kReroute) {
      // Rip up the listed nets that are present; absent ones just route.
      for (const std::size_t id : ids) {
        if (pin.routes.count(id) != 0) {
          pin.env.remove_route(id);
          pin.routes.erase(id);
        }
      }
    }

    // Route and commit into the pin's own environment, in list order,
    // exactly as ROUTE mode=sequential does over these nets — no
    // environment construction anywhere on this path.
    route::NetlistOptions nopts;
    nopts.subset = ids;
    nopts.wire_halo = req.wire_halo;
    route::NetlistResult result;
    try {
      result = route::route_sequential(pin.env, *pin.layout, nopts);
    } catch (...) {
      // Nets committed before the throw have no entry in `pin.routes`; rip
      // them out so the environment and the route map stay in step.
      for (const std::size_t id : ids) pin.env.remove_route(id);
      throw;
    }
    resp.routed = result.routed;
    resp.failed = result.failed;
    resp.wirelength = result.total_wirelength;
    // Dump only the nets this op touched.
    resp.body = io::write_routes_string(*pin.layout, result, ids);
    for (const std::size_t id : ids) {
      pin.routes[id] = std::move(result.routes[id]);
    }
    resp.committed = pin.routes.size();
    resp.status = RouteStatus::kOk;
  } catch (const std::exception& e) {
    resp.status = RouteStatus::kError;
    resp.error = e.what();
  }
}

void RoutingService::save_pin(const PinnedSession& pin,
                              const std::string& name, PinResponse& resp) {
  if (opts_.snapshot_dir.empty()) {
    resp.status = RouteStatus::kError;
    resp.error = "snapshots are disabled (start with --snapshot-dir)";
    return;
  }
  if (!valid_save_name(name)) {
    resp.status = RouteStatus::kError;
    resp.error = "SAVE name must be a plain file name";
    return;
  }

  // Encode the compacted live view: tombstones vanish, survivors are
  // renumbered densely, and the line set / commit records follow the remap.
  PinSnapshot snap;
  snap.handle = pin.handle;
  snap.base_key = pin.base_key;
  snap.layout_text = io::write_layout_string(*pin.layout);
  const spatial::ObstacleIndex& index = pin.env.index();
  const std::vector<spatial::EscapeLine>& lines = pin.env.lines().lines();
  if (lines.size() != 4 + 4 * index.size()) {
    resp.status = RouteStatus::kError;
    resp.error = "snapshot: line table out of step with the index";
    return;
  }
  snap.boundary = index.boundary();
  snap.base_obstacles = index.live_size() - pin.env.committed();
  std::vector<std::size_t> remap(index.size(), spatial::ObstacleIndex::npos);
  snap.obstacles.reserve(index.live_size());
  snap.lines.reserve(4 + 4 * index.live_size());
  for (std::size_t k = 0; k < 4; ++k) {
    spatial::EscapeLine l = lines[k];
    l.dead = false;
    snap.lines.push_back(l);
  }
  for (std::size_t i = 0; i < index.size(); ++i) {
    if (!index.alive(i)) continue;
    remap[i] = snap.obstacles.size();
    snap.obstacles.push_back(index.obstacles()[i]);
    for (std::size_t k = 0; k < 4; ++k) {
      spatial::EscapeLine l = lines[4 + 4 * i + k];
      l.source = remap[i];
      l.dead = false;
      snap.lines.push_back(l);
    }
  }
  for (const auto& [net, record] : pin.env.committed_records()) {
    std::vector<std::size_t> renumbered;
    renumbered.reserve(record.size());
    for (const std::size_t slot : record) {
      if (slot >= remap.size() || remap[slot] == spatial::ObstacleIndex::npos) {
        resp.status = RouteStatus::kError;
        resp.error = "snapshot: commit record references a dead obstacle";
        return;
      }
      renumbered.push_back(remap[slot]);
    }
    snap.committed.emplace(net, std::move(renumbered));
  }
  snap.routes = pin.routes;

  const std::string blob = encode_snapshot(snap);
  const std::filesystem::path dir(opts_.snapshot_dir);
  std::error_code ec;
  // Best effort: the write below reports a missing directory.
  std::filesystem::create_directories(dir, ec);
  std::string error = write_file_durably(dir, name, blob);
  if (!error.empty()) {
    resp.status = RouteStatus::kError;
    resp.error = std::move(error);
    return;
  }
  resp.save_bytes = blob.size();
  resp.status = RouteStatus::kOk;
  metrics_.pin_saves.fetch_add(1, std::memory_order_relaxed);
}

void RoutingService::restore_pins(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    std::cerr << "gcr_serve: cannot read restore dir '" << dir
              << "': " << ec.message() << "\n";
    return;
  }
  std::vector<fs::path> stale_temps;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    // Dot files are never snapshots.  A SAVE temp file (see
    // write_file_durably) still present at startup was left by a crash
    // before its rename, so it is deleted; other dot files are not ours.
    const std::string file = entry.path().filename().string();
    if (file.front() == '.') {
      if (is_save_temp(file)) stale_temps.push_back(entry.path());
      continue;
    }
    const std::string path = entry.path().string();
    try {
      std::ifstream in(entry.path(), std::ios::binary);
      if (!in) throw std::runtime_error("cannot open");
      const std::string blob((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      PinSnapshot snap = decode_snapshot(blob);

      layout::Layout lay = io::read_layout_string(snap.layout_text);
      const std::size_t n_nets = lay.nets().size();
      for (const auto& [net, record] : snap.committed) {
        if (net >= n_nets) {
          throw std::runtime_error("snapshot: commit record for unknown net");
        }
      }
      for (const auto& [net, r] : snap.routes) {
        if (net >= n_nets) {
          throw std::runtime_error("snapshot: route record for unknown net");
        }
      }

      // Rebuild *lookup tables only* from the serialized live state: the
      // ObstacleIndex ctor sorts/buckets the given rects and the line set
      // re-sorts the given lines — no tracing, no environment build (the
      // build counter stays untouched; tests assert it).
      spatial::ObstacleIndex index(snap.boundary, snap.obstacles);
      spatial::EscapeLineSet lines =
          spatial::EscapeLineSet::restore(std::move(snap.lines));
      route::SearchEnvironment env = route::SearchEnvironment::restore(
          std::move(index), std::move(lines), snap.base_obstacles,
          std::move(snap.committed));

      auto pin = std::make_shared<PinnedSession>(
          std::move(snap.handle), std::move(snap.base_key),
          std::make_shared<const layout::Layout>(std::move(lay)),
          std::move(env));
      pin->routes = std::move(snap.routes);
      if (pins_.adopt(std::move(pin))) {
        metrics_.pins_restored.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::cerr << "gcr_serve: skipping snapshot '" << path
                  << "': duplicate handle\n";
      }
    } catch (const std::exception& e) {
      // Invalid-on-partial-read: the pin was never registered, so a corrupt
      // file leaves the session absent rather than half-restored.
      std::cerr << "gcr_serve: skipping snapshot '" << path
                << "': " << e.what() << "\n";
    }
  }
  for (const fs::path& temp : stale_temps) {
    if (fs::remove(temp, ec)) {
      std::cerr << "gcr_serve: removed stale snapshot temp '"
                << temp.string() << "'\n";
    }
  }
}

MetricsSnapshot RoutingService::snapshot() const {
  MetricsSnapshot s;
  s.requests_submitted =
      metrics_.requests_submitted.load(std::memory_order_relaxed);
  s.requests_ok = metrics_.requests_ok.load(std::memory_order_relaxed);
  s.requests_rejected =
      metrics_.requests_rejected.load(std::memory_order_relaxed);
  s.requests_expired =
      metrics_.requests_expired.load(std::memory_order_relaxed);
  s.requests_cancelled =
      metrics_.requests_cancelled.load(std::memory_order_relaxed);
  s.requests_not_found =
      metrics_.requests_not_found.load(std::memory_order_relaxed);
  s.requests_errored =
      metrics_.requests_errored.load(std::memory_order_relaxed);
  s.nets_routed = metrics_.nets_routed.load(std::memory_order_relaxed);
  s.nets_failed = metrics_.nets_failed.load(std::memory_order_relaxed);
  s.loads_offloaded = metrics_.loads_offloaded.load(std::memory_order_relaxed);
  s.loads_ok = metrics_.loads_ok.load(std::memory_order_relaxed);
  s.loads_failed = metrics_.loads_failed.load(std::memory_order_relaxed);
  s.optimizes_ok = metrics_.optimizes_ok.load(std::memory_order_relaxed);
  s.optimize_passes =
      metrics_.optimize_passes.load(std::memory_order_relaxed);
  s.stages_ok = metrics_.stages_ok.load(std::memory_order_relaxed);
  s.stages_failed = metrics_.stages_failed.load(std::memory_order_relaxed);
  s.gens_ok = metrics_.gens_ok.load(std::memory_order_relaxed);
  s.gens_failed = metrics_.gens_failed.load(std::memory_order_relaxed);
  s.pins_created = metrics_.pins_created.load(std::memory_order_relaxed);
  s.pins_released = metrics_.pins_released.load(std::memory_order_relaxed);
  s.pins_restored = metrics_.pins_restored.load(std::memory_order_relaxed);
  s.pin_ops_ok = metrics_.pin_ops_ok.load(std::memory_order_relaxed);
  s.pin_ops_failed = metrics_.pin_ops_failed.load(std::memory_order_relaxed);
  s.pin_saves = metrics_.pin_saves.load(std::memory_order_relaxed);
  s.pin_autosaves = metrics_.pin_autosaves.load(std::memory_order_relaxed);
  s.pins_active = pins_.size();
  s.stage_cache_hits = stage_cache_.hits();
  s.stage_cache_misses = stage_cache_.misses();
  s.stage_cache_evictions = stage_cache_.evictions();
  s.stage_cache_size = stage_cache_.size();
  // One bucket snapshot per histogram serves every quantile query.
  const Histogram::Snapshot lat = metrics_.latency.snapshot();
  s.latency_p50_us = lat.percentile(50);
  s.latency_p95_us = lat.percentile(95);
  s.latency_p99_us = lat.percentile(99);
  s.queue_wait_p50_us = metrics_.queue_wait.snapshot().percentile(50);
  for (std::size_t i = 0; i < kVerbKinds; ++i) {
    const Histogram::Snapshot vs = metrics_.verb_latency[i].snapshot();
    s.verbs[i].count = vs.count;
    s.verbs[i].p50_us = vs.percentile(50);
    s.verbs[i].p95_us = vs.percentile(95);
    s.verbs[i].p99_us = vs.percentile(99);
  }
  s.uptime_s = uptime_s();
  s.protocol_version = kProtocolVersion;
  s.queue_depth = queue_.size();
  s.queue_capacity = queue_.capacity();
  s.queue_shards = queue_.shards();
  s.queue_fair_rounds = queue_.fair_rounds();
  s.queue_oldest_wait_us = queue_.oldest_wait_us();
  for (const auto& sh : queue_.shard_stats()) {
    s.queue_shard_stats.push_back(
        {sh.depth, sh.enqueued, sh.served, sh.head_wait_us});
  }
  s.workers = workers_.size();
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_evictions = cache_.evictions();
  s.cache_size = cache_.size();
  return s;
}

std::string RoutingService::stats_text() const {
  std::string text = snapshot().to_text();
  std::function<std::string()> extra;
  {
    const std::lock_guard<std::mutex> lock(extra_stats_mu_);
    extra = extra_stats_;
  }
  if (extra) text += extra();
  return text;
}

void RoutingService::set_extra_stats(std::function<std::string()> extra) {
  const std::lock_guard<std::mutex> lock(extra_stats_mu_);
  extra_stats_ = std::move(extra);
}

std::uint64_t RoutingService::uptime_s() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

}  // namespace gcr::serve
