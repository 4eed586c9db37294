#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/netlist_router.hpp"
#include "core/optimize.hpp"
#include "pipeline/stage.hpp"
#include "pipeline/stage_cache.hpp"
#include "serve/fair_queue.hpp"
#include "serve/layout_session.hpp"
#include "serve/metrics.hpp"
#include "serve/pinned_session.hpp"
#include "serve/trace.hpp"

/// \file routing_service.hpp
/// The serving facade: a persistent worker pool draining a bounded, fair
/// job queue of route requests against cached layout sessions.
///
/// Request lifecycle:
///   submit  -> session resolved (miss fails fast, nothing queued)
///           -> admit(): one path for every submit* — a Job is stamped with
///              its id and enqueue span and offered to the bounded fair
///              queue (full = refused through the job's own callback).
///              Jobs shard by session key (pins by handle, LOADs by content
///              key, GENs together) and dequeue round-robin, so one
///              saturating session cannot starve its neighbors
///   worker  -> pop, stamp the dequeue span, run() the job's payload:
///              route-family verbs check cancellation and deadline first,
///              then NetlistRouter::route_all (or the optimizer, or a
///              pipeline stage) over the session's shared SearchEnvironment
///              — no per-request index builds
///           -> complete(): one tail for every kind — total latency, span
///              clamp, histograms, slow-request ring — then the callback
///   future  -> RouteResponse with result, status, and latency breakdown
///
/// A Job is one shared header (id, verb, submission time, trace, slow-ring
/// label) plus a payload variant: route family (ROUTE/REROUTE/OPTIMIZE and
/// the stages, itself a variant inside RouteRequest), LOAD/GEN, or pin op.
/// LOAD/GEN stay out of the global latency/queue-wait histograms — one cold
/// environment build must not skew the routing percentiles — and report
/// ok/error as their slow-ring status.
///
/// Deadlines and cancellation are enforced at the queue boundary — a job
/// whose deadline passed while queued, or whose client hung up, is dropped
/// without routing — and cooperatively in flight: ROUTE/REROUTE check
/// between nets, OPTIMIZE at pass boundaries, and the pipeline stages
/// inside their own loops.  A stopped run is reported kExpired/kCancelled
/// (the cancel token wins when both apply) and its partial result is
/// discarded — never committed to the session or cached.

namespace gcr::serve {

enum class RouteStatus {
  kOk,
  kSessionNotFound,  ///< ROUTE before LOAD (or evicted session)
  kRejected,         ///< queue full at admission
  kExpired,          ///< deadline passed while queued or mid-run
  kCancelled,        ///< cancel token set while queued or mid-run
  kError,            ///< routing threw (bad options, internal failure)
};

[[nodiscard]] const char* to_string(RouteStatus s) noexcept;

struct RouteRequest {
  /// ROUTE: one routing pass over the session — the whole netlist, or only
  /// the nets `net_names` lists (resolved into `opts.subset`).
  struct Route {
    route::NetlistOptions opts;
  };
  /// REROUTE: `net_names` is the rip-up set (resolved into `opts.reroute`),
  /// routed last against the committed remainder of a full sequential pass
  /// (see route::NetlistOptions::reroute).  The response dump is restricted
  /// to these nets, exactly like a subset request.
  struct Reroute {
    route::NetlistOptions opts;
  };
  /// The verb and its own knobs; the default is a plain ROUTE.
  ///  - OPTIMIZE carries the engine's options: the iterated rip-up-and-
  ///    reroute engine runs over the whole netlist.  Its deadline and cancel
  ///    come from the fields below and are honored at pass boundaries too —
  ///    expiry mid-run returns the best routing so far rather than an error.
  ///    `progress` runs on the worker after every pass (the front-end
  ///    streams each call as a `PASS` line); it must not block or throw.
  ///  - The pipeline stages (DETAIL/CONGEST/VERIFY/SVG) run against the
  ///    session's committed routes instead of routing.  A session with none
  ///    first runs a default full sequential pass (deterministic) and
  ///    commits it.  Results are cached content-addressed — see StageCache.
  /// OPTIMIZE and the stages take no `net_names`.
  using Payload = std::variant<Route, Reroute, route::OptimizeOptions,
                               pipeline::StageOptions>;

  std::string session_key;
  Payload payload;
  /// Net-name list (the protocol's `nets=a,b,c`), resolved against the
  /// session's netlist at admission: an unknown name fails the request with
  /// kError before anything is queued, and duplicate names collapse to one
  /// entry.  Empty = whole netlist.
  std::vector<std::string> net_names;
  /// Zero (default) = no deadline.
  std::chrono::steady_clock::time_point deadline{};
  /// Optional cooperative cancel token; set it to true to drop the request
  /// — before a worker picks it up, or mid-run at the engine's next check
  /// (between nets / at pass boundaries / inside stage loops).
  std::shared_ptr<std::atomic<bool>> cancel;
  /// `trace=1`: echo the request's span breakdown in the response meta.
  /// Spans are stamped unconditionally (a handful of clock reads against
  /// engine runs of >= 100 us) so the slow-request ring always has them;
  /// this flag only gates the rendering.
  bool trace = false;
  /// When the front-end read the command off the wire, stamped just before
  /// parsing — the origin of the trace's parse span.  Zero (default) = the
  /// parse span is not measured.
  std::chrono::steady_clock::time_point received{};
};

struct RouteResponse {
  RouteStatus status = RouteStatus::kError;
  std::string error;  ///< populated for kError
  /// The session the request routed against (null unless kOk); holding it
  /// keeps the layout alive while the caller renders the route dump.
  std::shared_ptr<const LayoutSession> session;
  route::NetlistResult result;
  /// The net indices the request covered (the resolved subset); empty when
  /// the whole netlist was routed.  Dump rendering must restrict itself to
  /// these — unlisted `result.routes` slots were never attempted.
  std::vector<std::size_t> nets;
  /// OPTIMIZE: the per-pass convergence curve (pass 1 first, wirelength
  /// and overflow non-increasing).  Empty for plain ROUTE/REROUTE.
  std::vector<route::OptimizePassStats> passes;
  /// Stage requests: the rendered stage output (null otherwise) and whether
  /// it was served from the stage cache.
  std::shared_ptr<const pipeline::StageResult> stage;
  bool stage_cached = false;
  std::chrono::microseconds queue_wait{0};  ///< submit -> dequeue
  std::chrono::microseconds latency{0};     ///< submit -> completion
  /// The span breakdown (always populated for worker-served requests;
  /// trace.total_us equals latency exactly — same clock read).
  RequestTrace trace;
  /// Echo of RouteRequest::trace: the front-end appends trace.render_meta()
  /// to the response meta iff set.
  bool traced = false;

  [[nodiscard]] bool ok() const noexcept { return status == RouteStatus::kOk; }
};

/// Completion callback for the asynchronous submit form.  Invoked exactly
/// once: inline on the submitting thread for fail-fast outcomes (unknown
/// session, unknown net, full queue), or on a worker thread after routing.
/// It must not block — the worker pool's throughput rides on it.
using RouteCallback = std::function<void(RouteResponse)>;

/// Outcome of an offloaded LOAD (parse + validate + environment build on a
/// worker instead of the caller's thread).
struct LoadResponse {
  bool ok = false;
  std::string error;  ///< parse/validation failure, or the rejection reason
  std::shared_ptr<const LayoutSession> session;  ///< set iff ok
  bool cache_hit = false;
};

/// Invoked exactly once, like RouteCallback: inline for a full queue, on a
/// worker thread otherwise.  Must not block.
using LoadCallback = std::function<void(LoadResponse)>;

/// A session-lifecycle request (PIN / UNPIN / COMMIT / UNCOMMIT / pinned
/// REROUTE / SAVE).  `owner` is the submitting connection's identity — its
/// cancel token, the same object the disconnect path flips — and gates
/// every mutation: only the owner may touch a pin.
struct PinRequest {
  enum class Op { kPin, kUnpin, kCommit, kUncommit, kReroute, kSave };
  Op op = Op::kPin;
  /// PIN: a cached session key (derive) or an existing handle (claim);
  /// everything else: the pin handle.
  std::string key;
  /// COMMIT/UNCOMMIT/REROUTE: the net-name list, resolved against the
  /// pin's layout on the worker.
  std::vector<std::string> nets;
  /// SAVE: the snapshot file name (validated — no path separators).
  std::string save_name;
  /// Wire spacing halo for committed segments (COMMIT/REROUTE).
  geom::Coord wire_halo = 1;
  std::shared_ptr<std::atomic<bool>> owner;
  /// Service-internal request (the periodic autosave sweep): bypasses the
  /// ownership gate so an owned pin can be snapshotted without claiming
  /// it.  Never set by the protocol parser — unreachable from the wire.
  bool system = false;
};

struct PinResponse {
  RouteStatus status = RouteStatus::kError;
  std::string error;
  std::string handle;
  std::string base_key;
  std::size_t nets_total = 0;  ///< nets in the pin's layout
  std::size_t committed = 0;   ///< nets currently recorded in the pin
  std::size_t removed = 0;     ///< UNCOMMIT: entries cleared
  std::size_t routed = 0;      ///< COMMIT/REROUTE: ok nets this op
  std::size_t failed = 0;      ///< COMMIT/REROUTE: failed nets this op
  geom::Cost wirelength = 0;   ///< COMMIT/REROUTE: total over this op's nets
  std::string body;            ///< COMMIT/REROUTE: route dump of this op's nets
  std::uint64_t save_bytes = 0;  ///< SAVE: blob size written
  std::chrono::microseconds queue_wait{0};
  std::chrono::microseconds latency{0};

  [[nodiscard]] bool ok() const noexcept { return status == RouteStatus::kOk; }
};

/// Invoked exactly once: inline for fail-fast outcomes (unknown key, not
/// the owner, full queue, inline claims) or on a worker thread.  Must not
/// block.
using PinCallback = std::function<void(PinResponse)>;

class RoutingService {
 public:
  struct Options {
    /// 0 = one worker per hardware thread.
    std::size_t workers = 0;
    std::size_t queue_capacity = 64;
    std::size_t cache_capacity = 8;
    /// Stage results are small relative to sessions (text renderings, not
    /// obstacle indexes), so the default holds several per session.
    std::size_t stage_cache_capacity = 32;
    /// SAVE target directory; empty = snapshots disabled (SAVE answers ERR).
    std::string snapshot_dir;
    /// Directory scanned at construction: every decodable snapshot becomes
    /// a registered (unowned) pin — the rolling-restart rehydration path.
    /// Dot files (SAVE's unpublished temp files) are skipped.
    /// Corrupt or truncated files are skipped with a stderr warning; they
    /// never produce a half-restored session.
    std::string restore_dir;
    /// Slow-request ring admission threshold (the daemon's --slow-ms).
    /// 0 = no threshold: the ring keeps the top-N slowest requests seen.
    std::uint64_t slow_threshold_ms = 0;
    /// How many slow-request traces the TRACE verb can dump.
    std::size_t slow_ring_capacity = 32;
    /// Background SAVE period for registered pins (the daemon's
    /// --snapshot-interval-s): every interval, each pin gets a system SAVE
    /// job riding its ticket chain, so a crash loses at most one
    /// interval's mutations instead of everything since the last explicit
    /// SAVE.  0 = disabled; requires snapshot_dir.
    std::size_t snapshot_interval_s = 0;
  };

  RoutingService() : RoutingService(Options{}) {}
  explicit RoutingService(const Options& opts);
  ~RoutingService();  ///< closes the queue and joins the pool

  RoutingService(const RoutingService&) = delete;
  RoutingService& operator=(const RoutingService&) = delete;

  /// Parses + caches a layout (see SessionCache::load).  Throws
  /// std::runtime_error on malformed or invalid layouts.
  std::shared_ptr<const LayoutSession> load(const std::string& text,
                                            bool* cache_hit = nullptr);

  /// Non-blocking admission.  The returned future is always valid; a
  /// request that cannot be served (unknown session, full queue) completes
  /// immediately with the corresponding status.
  [[nodiscard]] std::future<RouteResponse> submit(RouteRequest req);

  /// Callback form of admission — dispatch()'s entry point (protocol.hpp):
  /// no future to block on, \p done fires with the response wherever it
  /// materializes (see RouteCallback).  The callback typically formats the
  /// response and hands it to the front-end's reply sink.
  void submit(RouteRequest req, RouteCallback done);

  /// Offloads a LOAD — layout parse, validation, and the expensive
  /// environment build — to the worker pool instead of the calling thread;
  /// the front-end's defence against a cold-session storm stalling every
  /// connection.  \p key is the precomputed `SessionCache::content_key` of
  /// \p text (the caller's admission probe already hashed the body; the
  /// worker must not pay that again).  \p done fires on a worker (or
  /// inline with a rejection when the queue is full).  \p cancel, when set
  /// at dequeue, skips the build — the peer is gone and nobody wants the
  /// session (the callback still fires, with ok=false).
  void submit_load(std::string text, std::string key,
                   std::shared_ptr<std::atomic<bool>> cancel,
                   LoadCallback done);

  /// Offloads a GEN: \p synth runs on a worker to produce the layout text
  /// (at the parse caps synthesis alone can run for seconds — far too long
  /// for a front-end thread), then the text takes the LOAD path on the
  /// same worker — content probe, session build, cache insert.  \p synth
  /// may throw; the failure comes back as ok=false.  \p cancel and \p done
  /// behave exactly as in submit_load.  Every outcome, a rejection
  /// included, counts into gens_ok / gens_failed.
  void submit_gen(std::function<std::string()> synth,
                  std::shared_ptr<std::atomic<bool>> cancel,
                  LoadCallback done);

  /// Closed-loop convenience: submit and wait.
  [[nodiscard]] RouteResponse route(RouteRequest req);

  /// Session-lifecycle admission.  Claims of an existing handle resolve
  /// inline (registry mutation only); PIN-derive and every mutating op run
  /// on the worker pool.  Mutations of one pin apply in submission order —
  /// a per-pin FIFO ticket chain layered over the queue (see
  /// pinned_session.hpp) — and the ownership check runs both at admission
  /// and again on the worker, so a pin released mid-queue fails cleanly.
  void submit_pin(PinRequest req, PinCallback done);

  /// Releases every pin owned by \p owner — the disconnect auto-release
  /// hook, called by the event loop's close_connection when a connection
  /// ends.  With \p preserve (the event loop's drain path during
  /// shutdown) the pins stay registered unowned instead of being
  /// destroyed, so final_save_pins can still snapshot them.
  void release_pins(const std::shared_ptr<std::atomic<bool>>& owner,
                    bool preserve = false);

  /// Shutdown final SAVE: snapshots every registered pin to snapshot_dir
  /// under its handle name, bracketing each save on the pin's ticket chain
  /// — a mutation still in flight (or queued by a force-closed
  /// connection) finishes before its pin serializes, never mid-op.  Call
  /// after the front-end has drained; no-op without a snapshot_dir.
  /// Returns how many snapshots were written.
  std::size_t final_save_pins();

  [[nodiscard]] PinRegistry& pins() noexcept { return pins_; }

  [[nodiscard]] SessionCache& sessions() noexcept { return cache_; }
  [[nodiscard]] pipeline::StageCache& stages() noexcept {
    return stage_cache_;
  }
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// The STATS response body: the metrics snapshot plus whatever the
  /// registered extra-stats hook (the front-end's loop-health section)
  /// appends.
  [[nodiscard]] std::string stats_text() const;

  /// Registers a hook whose output is appended verbatim to stats_text() —
  /// how the event loop exports its health without the service knowing
  /// about epoll.  Pass an empty function to clear (the loop's destructor
  /// must, before its counters die).  The hook may be called from any
  /// thread and must only read lock-free state.
  void set_extra_stats(std::function<std::string()> extra);

  /// Records one sample into a verb's latency shard — for request kinds
  /// served outside the worker pool (the front-end's inline STATS render).
  void record_verb_latency(VerbKind kind, std::uint64_t micros) noexcept {
    metrics_.verb_latency[static_cast<std::size_t>(kind)].record(micros);
  }

  /// Up to \p n completed slow-request traces, slowest first (TRACE verb).
  [[nodiscard]] std::vector<SlowRecord> slow_requests(std::size_t n) const {
    return slow_ring_.top(n);
  }
  [[nodiscard]] std::uint64_t slow_threshold_ms() const noexcept {
    return opts_.slow_threshold_ms;
  }

  /// Whole seconds since this service instance was constructed.
  [[nodiscard]] std::uint64_t uptime_s() const;

 private:
  /// ROUTE/REROUTE/OPTIMIZE/stage work: the request and the session it
  /// resolved to at admission.
  struct RouteWork {
    RouteRequest req;
    std::shared_ptr<const LayoutSession> session;
    RouteCallback done;
  };
  /// LOAD/GEN work.  A LOAD's content key (hashed at admission) rides in
  /// the job's label until the build consumes it.
  struct LoadWork {
    std::string text;
    /// GEN: synthesizes the layout text on the worker (`text` unused; the
    /// worker hashes the synthesized body itself).
    std::function<std::string()> synth;
    std::shared_ptr<std::atomic<bool>> cancel;
    LoadCallback done;
  };
  /// Pin-lifecycle work.  PIN-derive resolves the base session into
  /// `session`; every other op resolves `pin` and takes a ticket on its
  /// chain — holding the pin keeps its state alive even if it is released
  /// while this job is queued.
  struct PinWork {
    PinRequest req;
    std::shared_ptr<const LayoutSession> session;
    std::shared_ptr<PinnedSession> pin;
    std::uint64_t ticket = 0;
    PinCallback done;
  };
  struct Job {
    using Work = std::variant<RouteWork, LoadWork, PinWork>;
    /// Stamps `submitted`: the origin of every span.
    Job(VerbKind verb_kind, std::string session_label, Work payload)
        : verb(verb_kind),
          submitted(std::chrono::steady_clock::now()),
          label(std::move(session_label)),
          work(std::move(payload)) {}

    /// Admission sequence number (TRACE output id).
    std::uint64_t id = 0;
    /// Which latency shard and TRACE label this job belongs to.
    VerbKind verb;
    std::chrono::steady_clock::time_point submitted;
    /// Span stamps, offsets from `submitted`.
    RequestTrace trace;
    /// The slow-ring session label: session key or pin handle.
    std::string label;
    Work work;
  };
  struct VerbRunner;

  void worker_loop();
  void autosave_loop();
  void admit(Job&& job, std::string shard);
  void refuse(Job& job, RouteStatus status, std::string error = {});
  std::uint64_t complete(Job& job, RouteStatus status);
  RouteStatus stopped(const std::shared_ptr<std::atomic<bool>>& cancel);
  void run(Job& job, RouteWork& work);
  void run(Job& job, LoadWork& work);
  void run(Job& job, PinWork& work);
  void run_pin_mutation(PinWork& work, PinResponse& resp);
  void save_pin(const PinnedSession& pin, const std::string& name,
                PinResponse& resp);
  void restore_pins(const std::string& dir);

  Options opts_;
  SessionCache cache_;
  pipeline::StageCache stage_cache_;
  FairQueue<Job> queue_;
  ServiceMetrics metrics_;
  PinRegistry pins_;
  std::chrono::steady_clock::time_point start_;
  SlowRequestRing slow_ring_;
  std::atomic<std::uint64_t> trace_ids_{0};
  mutable std::mutex extra_stats_mu_;
  std::function<std::string()> extra_stats_;
  /// The autosave sweep's connection identity: submitted system SAVEs need
  /// an owner token (never flipped — the service does not hang up).
  std::shared_ptr<std::atomic<bool>> system_owner_ =
      std::make_shared<std::atomic<bool>>(false);
  std::mutex autosave_mu_;
  std::condition_variable autosave_cv_;
  bool autosave_stop_ = false;
  std::vector<std::thread> workers_;
  std::thread autosaver_;  ///< running iff snapshot_interval_s > 0
};

}  // namespace gcr::serve
