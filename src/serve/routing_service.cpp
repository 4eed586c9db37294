#include "serve/routing_service.hpp"

#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <utility>

#include "core/steiner.hpp"
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

/// The latency shard a route-family request records into.
VerbKind classify_verb(const RouteRequest& req) {
  if (req.stage.has_value()) {
    switch (req.stage->kind) {
      case pipeline::StageKind::kDetail: return VerbKind::kDetail;
      case pipeline::StageKind::kCongest: return VerbKind::kCongest;
      case pipeline::StageKind::kVerify: return VerbKind::kVerify;
      case pipeline::StageKind::kSvg: return VerbKind::kSvg;
    }
  }
  if (req.optimize) return VerbKind::kOptimize;
  if (req.reroute) return VerbKind::kReroute;
  return VerbKind::kRoute;
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
  const auto now = std::chrono::steady_clock::now();

  const auto fail_now = [&](RouteStatus status, std::string error = {}) {
    RouteResponse resp;
    resp.status = status;
    resp.error = std::move(error);
    done(std::move(resp));
  };

  // Resolve the session at admission: an unknown handle must fail fast, not
  // burn a queue slot and a worker wake-up.
  std::shared_ptr<const LayoutSession> session = cache_.find(req.session_key);
  if (session == nullptr) {
    metrics_.requests_not_found.fetch_add(1, std::memory_order_relaxed);
    return fail_now(RouteStatus::kSessionNotFound);
  }

  // Resolve a net-name list against the session while we still can answer
  // with a precise diagnostic; by worker time the client context is gone.
  // ROUTE lists become a subset restriction, REROUTE lists the rip-up set.
  if (!req.net_names.empty()) {
    std::vector<std::size_t> indices;
    indices.reserve(req.net_names.size());
    std::vector<bool> taken(session->layout.nets().size(), false);
    for (const std::string& name : req.net_names) {
      const auto it = session->net_index.find(name);
      if (it == session->net_index.end()) {
        metrics_.requests_errored.fetch_add(1, std::memory_order_relaxed);
        return fail_now(RouteStatus::kError, "unknown net '" + name + "'");
      }
      if (taken[it->second]) continue;  // duplicate name: route once
      taken[it->second] = true;
      indices.push_back(it->second);
    }
    if (req.reroute) {
      req.opts.reroute = std::move(indices);
      req.opts.subset.clear();
    } else {
      req.opts.subset = std::move(indices);
    }
  }

  Job job;
  job.req = std::move(req);
  job.session = std::move(session);
  job.done = std::move(done);
  job.submitted = now;
  job.id = trace_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  job.verb = classify_verb(job.req);
  if (job.req.received != std::chrono::steady_clock::time_point{} &&
      job.req.received <= now) {
    job.trace.parse_us = micros_between(job.req.received, now);
  }
  // Admission work (session resolve, net-name resolution) is the span
  // between the origin and here; the queue span starts at this stamp.
  job.trace.enqueue_us =
      micros_between(now, std::chrono::steady_clock::now());
  // Shard by session: fair dispatch is per layout, so one session's burst
  // queues behind itself instead of in front of everyone else.  The key is
  // copied out before the push — try_push moves the job (and the string
  // the key aliases) on success.
  const std::string shard = job.req.session_key;
  if (!queue_.try_push(shard, std::move(job))) {
    // try_push moves only on success, so the rejected job still owns its
    // callback and can deliver the rejection.
    metrics_.requests_rejected.fetch_add(1, std::memory_order_relaxed);
    RouteResponse resp;
    resp.status = RouteStatus::kRejected;
    job.done(std::move(resp));
  }
}

RouteResponse RoutingService::route(RouteRequest req) {
  return submit(std::move(req)).get();
}

void RoutingService::submit_pin(PinRequest req, PinCallback done) {
  const auto now = std::chrono::steady_clock::now();
  const auto fail_now = [&](RouteStatus status, std::string error = {}) {
    metrics_.pin_ops_failed.fetch_add(1, std::memory_order_relaxed);
    PinResponse resp;
    resp.status = status;
    resp.error = std::move(error);
    done(std::move(resp));
  };
  if (req.owner == nullptr) {
    return fail_now(RouteStatus::kError,
                    "pin request without a connection identity");
  }

  std::shared_ptr<PinnedSession> pin = pins_.find(req.key);
  if (pin == nullptr && req.op == PinRequest::Op::kPin) {
    // Derive from a cached session.  The expensive copy-on-pin runs on a
    // worker; no ticket — the pin does not exist yet, so nothing to order
    // against (and the client cannot address it before the reply names
    // the handle).
    std::shared_ptr<const LayoutSession> session = cache_.find(req.key);
    if (session == nullptr) return fail_now(RouteStatus::kSessionNotFound);
    Job job;
    job.kind = Job::Kind::kPin;
    job.verb = VerbKind::kPin;
    job.id = trace_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
    job.pin_req = std::move(req);
    job.session = std::move(session);
    job.pin_done = std::move(done);
    job.submitted = now;
    job.trace.enqueue_us =
        micros_between(now, std::chrono::steady_clock::now());
    // Derive shards under the *base session* key: the handle does not
    // exist yet, and the copy-on-pin competes with that session's routes.
    const std::string shard = job.pin_req.key;
    if (!queue_.try_push(shard, std::move(job))) {
      metrics_.pin_ops_failed.fetch_add(1, std::memory_order_relaxed);
      PinResponse resp;
      resp.status = RouteStatus::kRejected;
      job.pin_done(std::move(resp));
    }
    return;
  }
  if (pin == nullptr) {
    return fail_now(RouteStatus::kSessionNotFound,
                    "no pin '" + req.key + "'");
  }
  // Advisory ownership pre-check (claims excepted — claiming an unowned
  // pin is the point; system sweeps too — the autosaver snapshots pins it
  // does not own); re-checked authoritatively on the worker once this
  // op's turn comes up.
  if (req.op != PinRequest::Op::kPin && !req.system &&
      !pins_.verify(pin, req.owner)) {
    return fail_now(RouteStatus::kError, "pin '" + req.key +
                                             "' is owned by another "
                                             "connection");
  }
  Job job;
  job.kind = Job::Kind::kPin;
  job.verb = VerbKind::kPin;
  job.id = trace_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  job.pin = std::move(pin);
  job.pin_ticket = job.pin->acquire_ticket();
  job.pin_req = std::move(req);
  job.pin_done = std::move(done);
  job.submitted = now;
  job.trace.enqueue_us =
      micros_between(now, std::chrono::steady_clock::now());
  // Mutations shard by handle: the pin's FIFO ticket chain and its queue
  // shard agree on order, and a busy pin cannot starve other sessions.
  const std::string shard = job.pin->handle;
  if (!queue_.try_push(shard, std::move(job))) {
    metrics_.pin_ops_failed.fetch_add(1, std::memory_order_relaxed);
    job.pin->abort_turn(job.pin_ticket);
    PinResponse resp;
    resp.status = RouteStatus::kRejected;
    job.pin_done(std::move(resp));
  }
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
  Job job;
  job.kind = Job::Kind::kLoad;
  job.verb = VerbKind::kLoad;
  job.id = trace_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  job.load_text = std::move(text);
  job.load_key = std::move(key);
  job.load_cancel = std::move(cancel);
  job.load_done = std::move(done);
  job.submitted = std::chrono::steady_clock::now();
  // The load key IS the session content key, so a cold LOAD queues in the
  // same shard as that session's routes — fair against other sessions,
  // ordered within its own.
  const std::string shard = job.load_key;
  if (!queue_.try_push(shard, std::move(job))) {
    metrics_.loads_failed.fetch_add(1, std::memory_order_relaxed);
    LoadResponse resp;
    resp.error = "rejected";
    job.load_done(std::move(resp));
  }
}

void RoutingService::submit_gen(std::function<std::string()> synth,
                                std::shared_ptr<std::atomic<bool>> cancel,
                                LoadCallback done) {
  metrics_.loads_offloaded.fetch_add(1, std::memory_order_relaxed);
  Job job;
  job.kind = Job::Kind::kLoad;
  job.verb = VerbKind::kGen;
  job.id = trace_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  job.load_synth = std::move(synth);
  job.load_cancel = std::move(cancel);
  job.load_done = std::move(done);
  job.submitted = std::chrono::steady_clock::now();
  // All GENs share one shard: synthesis has no session identity yet, and
  // pooling them keeps a generation storm to one DRR turn per round.
  const std::string shard = "gen";
  if (!queue_.try_push(shard, std::move(job))) {
    metrics_.loads_failed.fetch_add(1, std::memory_order_relaxed);
    metrics_.gens_failed.fetch_add(1, std::memory_order_relaxed);
    LoadResponse resp;
    resp.error = "rejected";
    job.load_done(std::move(resp));
  }
}

void RoutingService::run_load_job(Job& job) {
  // Deliberately not recorded into the *global* latency/queue-wait
  // histograms: those are what STATS reports as routing percentiles, and
  // one cold environment build would distort p95/p99 for every dashboard
  // reading them.  LOAD/GEN latency lives in its own verb shard (and in
  // the slow-request ring) instead.
  job.trace.dequeue_us =
      micros_between(job.submitted, std::chrono::steady_clock::now());
  LoadResponse resp;
  if (job.load_cancel &&
      job.load_cancel->load(std::memory_order_relaxed)) {
    resp.error = "cancelled";  // peer gone: skip the expensive build
  } else {
    try {
      if (job.load_synth) {
        // GEN: synthesize here, then load by content — the worker hashes
        // the body it just produced (no admission-time probe existed).
        resp.session = cache_.load(job.load_synth(), &resp.cache_hit);
      } else {
        resp.session = cache_.load(job.load_text, std::move(job.load_key),
                                   &resp.cache_hit);
      }
      resp.ok = true;
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
  RequestTrace& trace = job.trace;
  const std::uint64_t total =
      micros_between(job.submitted, std::chrono::steady_clock::now());
  trace.exec_us = total;
  if (trace.env_us < trace.dequeue_us) trace.env_us = trace.dequeue_us;
  trace.total_us = total;
  metrics_.verb_latency[static_cast<std::size_t>(job.verb)].record(total);
  SlowRecord rec;
  rec.id = job.id;
  rec.verb = job.verb;
  rec.session = resp.session != nullptr ? resp.session->key : job.load_key;
  rec.status = resp.ok ? "ok" : "error";
  rec.trace = std::move(trace);
  slow_ring_.offer(std::move(rec));
  job.load_done(std::move(resp));
}

void RoutingService::worker_loop() {
  for (;;) {
    std::optional<Job> job = queue_.pop();
    if (!job) return;  // closed and drained

    if (job->kind == Job::Kind::kLoad) {
      run_load_job(*job);
      continue;
    }
    if (job->kind == Job::Kind::kPin) {
      run_pin_job(*job);
      continue;
    }

    const auto dequeued = std::chrono::steady_clock::now();
    job->trace.dequeue_us = micros_between(job->submitted, dequeued);
    RouteResponse resp;
    resp.queue_wait = std::chrono::microseconds(
        micros_between(job->submitted, dequeued));
    metrics_.queue_wait.record(
        static_cast<std::uint64_t>(resp.queue_wait.count()));

    if (job->req.cancel && job->req.cancel->load(std::memory_order_relaxed)) {
      resp.status = RouteStatus::kCancelled;
      metrics_.requests_cancelled.fetch_add(1, std::memory_order_relaxed);
      finish(*job, std::move(resp));
      continue;
    }
    if (job->req.deadline != std::chrono::steady_clock::time_point{} &&
        dequeued > job->req.deadline) {
      resp.status = RouteStatus::kExpired;
      metrics_.requests_expired.fetch_add(1, std::memory_order_relaxed);
      finish(*job, std::move(resp));
      continue;
    }

    if (job->req.stage.has_value()) {
      run_stage_job(*job, resp);
      finish(*job, std::move(resp));
      continue;
    }

    try {
      // The session's environment is injected, so this call performs no
      // ObstacleIndex / EscapeLineSet construction — the cache already paid
      // for both.  That holds for *sequential* mode too: the router copies
      // the shared environment and absorbs routed nets with incremental
      // commit_route updates instead of per-net rebuilds.
      if (job->req.optimize) {
        route::OptimizeOptions oopts;
        oopts.steiner = job->req.opts.steiner;
        oopts.wire_halo = job->req.opts.wire_halo;
        if (job->req.optimize_passes > 0) {
          oopts.max_passes = job->req.optimize_passes;
        }
        oopts.budget = job->req.optimize_budget;
        oopts.deadline = job->req.deadline;
        oopts.cancel = job->req.cancel;
        // Per-pass sub-spans: wrap the caller's progress hook so every
        // completed pass leaves a trace stamp (same origin as the spans).
        {
          const route::OptimizeProgress user = job->req.progress;
          RequestTrace* trace = &job->trace;
          const auto origin = job->submitted;
          oopts.progress = [user, trace,
                            origin](const route::OptimizePassStats& p) {
            trace->subs.push_back(
                {"pass" + std::to_string(p.pass),
                 micros_between(origin, std::chrono::steady_clock::now())});
            if (user) user(p);
          };
        }
        const route::Optimizer optimizer(job->session->layout,
                                         job->session->env);
        job->trace.env_us =
            micros_between(job->submitted, std::chrono::steady_clock::now());
        route::OptimizeReport report = optimizer.run(oopts);
        job->trace.exec_us =
            micros_between(job->submitted, std::chrono::steady_clock::now());
        if (report.cancelled) {
          // The client vanished mid-run (pass-boundary check): nothing
          // wants the result.  PASS lines already streamed are fine — the
          // peer that would have read them is gone.
          resp.status = RouteStatus::kCancelled;
          metrics_.requests_cancelled.fetch_add(1, std::memory_order_relaxed);
          finish(*job, std::move(resp));
          continue;
        }
        resp.result = std::move(report.result);
        resp.passes = std::move(report.passes);
        metrics_.optimizes_ok.fetch_add(1, std::memory_order_relaxed);
        metrics_.optimize_passes.fetch_add(
            resp.passes.empty() ? 0 : resp.passes.size() - 1,
            std::memory_order_relaxed);
      } else {
        const route::NetlistRouter router(job->session->layout,
                                          job->session->env);
        job->req.opts.deadline = job->req.deadline;
        job->req.opts.cancel = job->req.cancel;
        job->trace.env_us =
            micros_between(job->submitted, std::chrono::steady_clock::now());
        resp.result = router.route_all(job->req.opts);
        job->trace.exec_us =
            micros_between(job->submitted, std::chrono::steady_clock::now());
        if (resp.result.cancelled) {
          // Stopped between nets: the partial result must not be dumped,
          // committed, or counted.  Attribute like the dequeue checks do.
          const bool was_cancel =
              job->req.cancel &&
              job->req.cancel->load(std::memory_order_relaxed);
          resp.result = {};
          resp.status =
              was_cancel ? RouteStatus::kCancelled : RouteStatus::kExpired;
          (was_cancel ? metrics_.requests_cancelled
                      : metrics_.requests_expired)
              .fetch_add(1, std::memory_order_relaxed);
          finish(*job, std::move(resp));
          continue;
        }
      }
      resp.session = job->session;
      // The dump restriction: the subset that was routed, or — for a
      // rip-up — the nets that were re-routed (the rest of the netlist was
      // only the committed backdrop).
      resp.nets = job->req.reroute ? job->req.opts.reroute
                                   : job->req.opts.subset;
      // Publish full-netlist results (ROUTE of everything, REROUTE — whose
      // result carries the whole netlist around the rip-up set — and
      // OPTIMIZE) as the session's committed routes.  The fingerprint in
      // the snapshot re-keys the stage cache, so a mutated routing
      // invalidates cached stage results while a byte-identical re-commit
      // keeps them hot.  Subset ROUTEs never commit: their result holds
      // only the requested nets.
      if (job->req.optimize || job->req.reroute ||
          job->req.opts.subset.empty()) {
        job->session->routes.set(resp.result);
      }
      resp.status = RouteStatus::kOk;
      metrics_.requests_ok.fetch_add(1, std::memory_order_relaxed);
      metrics_.nets_routed.fetch_add(resp.result.routed,
                                     std::memory_order_relaxed);
      metrics_.nets_failed.fetch_add(resp.result.failed,
                                     std::memory_order_relaxed);
    } catch (const std::exception& e) {
      resp.status = RouteStatus::kError;
      resp.error = e.what();
      metrics_.requests_errored.fetch_add(1, std::memory_order_relaxed);
    }
    finish(*job, std::move(resp));
  }
}

void RoutingService::run_pin_job(Job& job) {
  const auto dequeued = std::chrono::steady_clock::now();
  job.trace.dequeue_us = micros_between(job.submitted, dequeued);
  PinResponse resp;
  resp.queue_wait =
      std::chrono::microseconds(micros_between(job.submitted, dequeued));
  metrics_.queue_wait.record(
      static_cast<std::uint64_t>(resp.queue_wait.count()));

  if (job.pin == nullptr) {
    // Derive: copy-on-pin of the cached environment.  The layout is shared
    // with the base session via an aliasing pointer — the read-only entry
    // is untouched and stays cached.
    try {
      std::shared_ptr<const layout::Layout> layout(job.session,
                                                   &job.session->layout);
      std::shared_ptr<PinnedSession> pin = pins_.create(
          job.session->key, std::move(layout), job.session->env,
          job.pin_req.owner);
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
    job.trace.exec_us =
        micros_between(job.submitted, std::chrono::steady_clock::now());
    finish_pin(job, std::move(resp));
    return;
  }

  PinnedSession& pin = *job.pin;
  pin.wait_turn(job.pin_ticket);
  resp.handle = pin.handle;
  resp.base_key = pin.base_key;
  if (job.pin_req.op == PinRequest::Op::kPin) {
    // Claim (an existing handle — restored-unowned or idempotent re-claim).
    // Resolved here rather than at admission so a pipelined claim observes
    // the pin's state in submission order.
    switch (pins_.claim(pin.handle, job.pin_req.owner, nullptr)) {
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
        resp.error = "pin '" + pin.handle + "' is owned by another connection";
        break;
    }
  } else if (job.pin_req.system ? pins_.find(job.pin->handle) != job.pin
                                : !pins_.verify(job.pin, job.pin_req.owner)) {
    // The pin was released (disconnect or UNPIN racing ahead in another
    // claim cycle) between admission and this turn.  System sweeps skip the
    // ownership half of the check — the autosaver saves pins it does not
    // own — but still bail if the pin left the registry.
    resp.status = RouteStatus::kCancelled;
    resp.error = "pin released";
  } else if (job.pin_req.op == PinRequest::Op::kUnpin) {
    if (pins_.erase(pin.handle, job.pin_req.owner)) {
      resp.status = RouteStatus::kOk;
      metrics_.pins_released.fetch_add(1, std::memory_order_relaxed);
    } else {
      resp.status = RouteStatus::kCancelled;
      resp.error = "pin released";
    }
  } else {
    run_pin_mutation(job, resp);
  }
  pin.finish_turn(job.pin_ticket);
  job.trace.exec_us =
      micros_between(job.submitted, std::chrono::steady_clock::now());
  finish_pin(job, std::move(resp));
}

void RoutingService::run_pin_mutation(Job& job, PinResponse& resp) {
  PinnedSession& pin = *job.pin;
  const PinRequest& req = job.pin_req;
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

    // Route and commit incrementally, in list order.  The router reads the
    // pin's own index/lines, so each commit is visible to the next net —
    // no environment construction anywhere on this path.
    const route::SteinerNetRouter router(pin.env.index(), pin.env.lines());
    const route::SteinerOptions sopts;
    for (const std::size_t id : ids) {
      route::NetRoute r =
          router.route_net(*pin.layout, pin.layout->nets()[id], sopts);
      if (r.ok) {
        pin.env.commit_route(id, r.segments, req.wire_halo);
        ++resp.routed;
        resp.wirelength += r.wirelength;
      } else {
        ++resp.failed;
      }
      pin.routes[id] = std::move(r);
    }

    // Dump only the nets this op touched.
    route::NetlistResult nr;
    nr.routes.resize(pin.layout->nets().size());
    for (const std::size_t id : ids) nr.routes[id] = pin.routes[id];
    resp.body = io::write_routes_string(*pin.layout, nr, ids);
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
  if (name.empty() || name.front() == '.' ||
      name.find('/') != std::string::npos ||
      name.find('\\') != std::string::npos) {
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
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path dir(opts_.snapshot_dir);
  fs::create_directories(dir, ec);  // best effort; the open below reports
  const fs::path tmp = dir / (name + ".tmp");
  const fs::path final_path = dir / name;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      resp.status = RouteStatus::kError;
      resp.error = "cannot write snapshot file '" + tmp.string() + "'";
      return;
    }
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.flush();
    if (!out) {
      resp.status = RouteStatus::kError;
      resp.error = "short write to snapshot file '" + tmp.string() + "'";
      return;
    }
  }
  // Atomic publish: a crash mid-write leaves only the .tmp, which restore
  // skips (bad magic / truncation), never a half-visible snapshot.
  fs::rename(tmp, final_path, ec);
  if (ec) {
    resp.status = RouteStatus::kError;
    resp.error = "cannot publish snapshot file: " + ec.message();
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
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
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
}

void RoutingService::finish_pin(Job& job, PinResponse&& resp) {
  const std::uint64_t total =
      micros_between(job.submitted, std::chrono::steady_clock::now());
  resp.latency = std::chrono::microseconds(total);
  RequestTrace& trace = job.trace;
  if (trace.dequeue_us < trace.enqueue_us) trace.dequeue_us = trace.enqueue_us;
  if (trace.env_us < trace.dequeue_us) trace.env_us = trace.dequeue_us;
  if (trace.exec_us < trace.env_us) trace.exec_us = trace.env_us;
  trace.total_us = total;
  metrics_.latency.record(total);
  metrics_.verb_latency[static_cast<std::size_t>(VerbKind::kPin)].record(
      total);
  SlowRecord rec;
  rec.id = job.id;
  rec.verb = VerbKind::kPin;
  rec.session = job.pin_req.key;
  rec.status = to_string(resp.status);
  rec.trace = trace;
  slow_ring_.offer(std::move(rec));
  (resp.ok() ? metrics_.pin_ops_ok : metrics_.pin_ops_failed)
      .fetch_add(1, std::memory_order_relaxed);
  job.pin_done(std::move(resp));
}

void RoutingService::run_stage_job(Job& job, RouteResponse& resp) {
  const pipeline::StageOptions& sopts = *job.req.stage;
  try {
    // The stage consumes the committed routes.  A fresh session has none:
    // run the default full sequential pass once and commit it, so `LOAD;
    // DETAIL` works without an explicit ROUTE — and later stages (and
    // ROUTEs) share that exact snapshot.
    std::shared_ptr<const pipeline::CommittedRoutes> state =
        job.session->routes.get();
    if (state == nullptr) {
      const route::NetlistRouter router(job.session->layout,
                                        job.session->env);
      // The implicit route honors the stage request's deadline and cancel
      // token (checked between nets) — on a large GEN'd session it can
      // dwarf the stage itself.  A stopped route is never committed: the
      // next request starts from a clean no-routes slot.
      route::NetlistOptions ropts;
      ropts.deadline = job.req.deadline;
      ropts.cancel = job.req.cancel;
      route::NetlistResult routed = router.route_all(ropts);
      if (routed.cancelled) {
        const bool was_cancel =
            job.req.cancel &&
            job.req.cancel->load(std::memory_order_relaxed);
        resp.status =
            was_cancel ? RouteStatus::kCancelled : RouteStatus::kExpired;
        (was_cancel ? metrics_.requests_cancelled : metrics_.requests_expired)
            .fetch_add(1, std::memory_order_relaxed);
        metrics_.stages_failed.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      state = job.session->routes.set(std::move(routed));
    }
    // Committed routes (possibly just materialized above) are this verb's
    // "environment": everything after this stamp is the stage itself.
    job.trace.env_us =
        micros_between(job.submitted, std::chrono::steady_clock::now());

    const std::string key = pipeline::StageCache::key_for(
        job.session->key, state->fingerprint, sopts.fingerprint());
    std::shared_ptr<const pipeline::StageResult> cached =
        stage_cache_.find(key);
    if (cached != nullptr) {
      resp.stage = std::move(cached);
      resp.stage_cached = true;
      job.trace.subs.push_back(
          {"stage_cache_hit",
           micros_between(job.submitted, std::chrono::steady_clock::now())});
    } else {
      const pipeline::StageContext ctx{job.session->layout,
                                       job.session->env, state->result,
                                       job.req.cancel, job.req.deadline};
      pipeline::StageOutcome out = pipeline::run_stage(ctx, sopts);
      if (out.result == nullptr) {
        // Stopped inside the engine: attribute it like the dequeue checks
        // do — cancel token wins, otherwise it was the deadline.
        const bool was_cancel =
            job.req.cancel &&
            job.req.cancel->load(std::memory_order_relaxed);
        resp.status =
            was_cancel ? RouteStatus::kCancelled : RouteStatus::kExpired;
        (was_cancel ? metrics_.requests_cancelled : metrics_.requests_expired)
            .fetch_add(1, std::memory_order_relaxed);
        metrics_.stages_failed.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      stage_cache_.insert(key, out.result);
      resp.stage = std::move(out.result);
      job.trace.subs.push_back(
          {"stage_run",
           micros_between(job.submitted, std::chrono::steady_clock::now())});
    }
    job.trace.exec_us =
        micros_between(job.submitted, std::chrono::steady_clock::now());
    resp.session = job.session;
    resp.status = RouteStatus::kOk;
    metrics_.requests_ok.fetch_add(1, std::memory_order_relaxed);
    metrics_.stages_ok.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    resp.status = RouteStatus::kError;
    resp.error = e.what();
    metrics_.requests_errored.fetch_add(1, std::memory_order_relaxed);
    metrics_.stages_failed.fetch_add(1, std::memory_order_relaxed);
  }
}

void RoutingService::finish(Job& job, RouteResponse&& resp) {
  // One clock read produces both the reported latency and the trace's
  // total_us — the rendered span deltas sum to total_us exactly.
  const std::uint64_t total =
      micros_between(job.submitted, std::chrono::steady_clock::now());
  resp.latency = std::chrono::microseconds(total);
  RequestTrace& trace = job.trace;
  // Early-out paths (cancel/expiry at dequeue, admission-stage errors) skip
  // some stamps; clamp forward so the chain stays monotone with zero-width
  // spans for the phases that never ran.
  if (trace.dequeue_us < trace.enqueue_us) trace.dequeue_us = trace.enqueue_us;
  if (trace.env_us < trace.dequeue_us) trace.env_us = trace.dequeue_us;
  if (trace.exec_us < trace.env_us) trace.exec_us = trace.env_us;
  trace.total_us = total;
  metrics_.latency.record(total);
  metrics_.verb_latency[static_cast<std::size_t>(job.verb)].record(total);
  SlowRecord rec;
  rec.id = job.id;
  rec.verb = job.verb;
  rec.session = job.req.session_key;
  rec.status = to_string(resp.status);
  rec.trace = trace;
  slow_ring_.offer(std::move(rec));
  resp.trace = std::move(trace);
  resp.traced = job.req.trace;
  job.done(std::move(resp));
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
