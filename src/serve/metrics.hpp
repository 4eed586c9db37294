#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/trace.hpp"

/// \file metrics.hpp
/// Service observability: request counters, per-verb lock-free latency
/// histograms, rendered as the STATS response body.  Counters and histogram
/// buckets are lock-free atomics (touched on every request); percentile
/// queries — rare, operator driven — walk a bucket snapshot.

namespace gcr::serve {

/// Aggregate counters for one RoutingService instance.
struct ServiceMetrics {
  std::atomic<std::uint64_t> requests_submitted{0};
  std::atomic<std::uint64_t> requests_ok{0};
  std::atomic<std::uint64_t> requests_rejected{0};   ///< queue full
  std::atomic<std::uint64_t> requests_expired{0};    ///< deadline passed
  std::atomic<std::uint64_t> requests_cancelled{0};
  std::atomic<std::uint64_t> requests_not_found{0};  ///< unknown session key
  std::atomic<std::uint64_t> requests_errored{0};    ///< routing threw
  std::atomic<std::uint64_t> nets_routed{0};
  std::atomic<std::uint64_t> nets_failed{0};
  /// Cold LOAD and GEN jobs offloaded to the worker pool (a LOAD of
  /// resident content answers inline and does not count here).
  std::atomic<std::uint64_t> loads_offloaded{0};
  std::atomic<std::uint64_t> loads_ok{0};
  std::atomic<std::uint64_t> loads_failed{0};  ///< parse error / rejected
  /// OPTIMIZE runs completed (kOk) and the total rip-up passes they ran —
  /// passes/run is the convergence-speed dashboard number.
  std::atomic<std::uint64_t> optimizes_ok{0};
  std::atomic<std::uint64_t> optimize_passes{0};
  /// Pipeline stages (DETAIL/CONGEST/VERIFY/SVG) completed, split by how:
  /// served from the stage cache vs. executed on a worker vs. failed.
  std::atomic<std::uint64_t> stages_ok{0};
  std::atomic<std::uint64_t> stages_failed{0};
  /// Server-side GEN workload syntheses (materialized sessions).
  std::atomic<std::uint64_t> gens_ok{0};
  std::atomic<std::uint64_t> gens_failed{0};
  /// Session lifecycle: pins derived/claimed, released (UNPIN + disconnect
  /// auto-release), restored from snapshots at startup, and the mutation
  /// ops (COMMIT/UNCOMMIT/REROUTE/SAVE) split by outcome.
  std::atomic<std::uint64_t> pins_created{0};
  std::atomic<std::uint64_t> pins_released{0};
  std::atomic<std::uint64_t> pins_restored{0};
  std::atomic<std::uint64_t> pin_ops_ok{0};
  std::atomic<std::uint64_t> pin_ops_failed{0};
  std::atomic<std::uint64_t> pin_saves{0};
  /// Snapshots written by the periodic background sweep and the shutdown
  /// final SAVE (--snapshot-interval-s), as opposed to explicit SAVEs.
  std::atomic<std::uint64_t> pin_autosaves{0};
  /// Lock-free log2 histograms — recorded on every request with zero
  /// mutexes (Histogram::record is three relaxed atomic adds).
  Histogram latency;     ///< enqueue -> response, microseconds (all verbs)
  Histogram queue_wait;  ///< enqueue -> dequeue, microseconds
  /// Per-verb latency shards: a microsecond STATS render and a multi-second
  /// OPTIMIZE no longer share one distribution.
  std::array<Histogram, kVerbKinds> verb_latency{};
};

/// One live fair-queue shard in a snapshot: depth and starvation evidence
/// for a key with work currently queued (see FairQueue::shard_stats).
/// Rendered positionally (`queue_shard<i>_*`) — STATS values must be
/// numeric, so the key itself stays out of the text.
struct QueueShardSnapshot {
  std::size_t depth = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t served = 0;
  std::uint64_t head_wait_us = 0;
};

/// Per-verb latency digest in a snapshot (percentiles are log2-bucket upper
/// bounds, see Histogram).
struct VerbLatencySnapshot {
  std::uint64_t count = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;
};

/// One point-in-time view, cheap to format.
struct MetricsSnapshot {
  std::uint64_t requests_submitted = 0;
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_rejected = 0;
  std::uint64_t requests_expired = 0;
  std::uint64_t requests_cancelled = 0;
  std::uint64_t requests_not_found = 0;
  std::uint64_t requests_errored = 0;
  std::uint64_t nets_routed = 0;
  std::uint64_t nets_failed = 0;
  std::uint64_t loads_offloaded = 0;
  std::uint64_t loads_ok = 0;
  std::uint64_t loads_failed = 0;
  std::uint64_t optimizes_ok = 0;
  std::uint64_t optimize_passes = 0;
  std::uint64_t stages_ok = 0;
  std::uint64_t stages_failed = 0;
  std::uint64_t gens_ok = 0;
  std::uint64_t gens_failed = 0;
  std::uint64_t pins_created = 0;
  std::uint64_t pins_released = 0;
  std::uint64_t pins_restored = 0;
  std::uint64_t pin_ops_ok = 0;
  std::uint64_t pin_ops_failed = 0;
  std::uint64_t pin_saves = 0;
  std::uint64_t pin_autosaves = 0;
  std::size_t pins_active = 0;
  std::uint64_t stage_cache_hits = 0;
  std::uint64_t stage_cache_misses = 0;
  std::uint64_t stage_cache_evictions = 0;
  std::size_t stage_cache_size = 0;
  std::uint64_t latency_p50_us = 0;
  std::uint64_t latency_p95_us = 0;
  std::uint64_t latency_p99_us = 0;
  std::uint64_t queue_wait_p50_us = 0;
  /// One digest per VerbKind, indexed by static_cast<size_t>(kind); all
  /// kinds are rendered (count 0 shows as zeros) so dashboards see a stable
  /// key set.
  std::array<VerbLatencySnapshot, kVerbKinds> verbs{};
  std::uint64_t uptime_s = 0;
  std::uint32_t protocol_version = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  /// Fair dispatch: live shard count, round-robin rotations, the age
  /// of the oldest queued item anywhere (the starvation gauge), and one
  /// entry per live shard in service order.
  std::size_t queue_shards = 0;
  std::uint64_t queue_fair_rounds = 0;
  std::uint64_t queue_oldest_wait_us = 0;
  std::vector<QueueShardSnapshot> queue_shard_stats;
  std::size_t workers = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t cache_size = 0;

  /// `key value` lines, one metric per line — the STATS response body.
  [[nodiscard]] std::string to_text() const;
};

}  // namespace gcr::serve
