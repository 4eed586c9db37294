#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

/// \file trace.hpp
/// Request-level observability primitives shared by the service and the
/// front-end:
///
///  - Histogram: lock-free fixed-bucket log2 latency histogram.  record() is
///    three relaxed atomic adds — no mutex, no allocation — so it can sit on
///    the per-request hot path and be sharded per verb kind.  Percentiles
///    come from a point-in-time snapshot and are resolved to the bucket's
///    inclusive upper bound (one log2 bucket of error by construction).
///
///  - VerbKind: the per-verb shard index for histograms and traces.
///
///  - RequestTrace: monotonic span offsets (microseconds from admission)
///    stamped along a request's life: parse, admission/enqueue, dequeue,
///    env build, execute, finish.  Offsets from one clock origin mean the
///    rendered span deltas sum *exactly* to total_us.  Sub-spans (OPTIMIZE
///    passes, pipeline stage run/cache-hit) ride a small label+offset list.
///
///  - SlowRequestRing: bounded keep-the-worst ring of completed request
///    traces, dumped by the TRACE verb.  A lock-free atomic threshold
///    pre-check keeps the common case (fast request, ring already full of
///    slower ones) off the mutex entirely.

namespace gcr::serve {

/// Power-of-two bucketed histogram over unsigned 64-bit samples
/// (microseconds in practice).  Bucket 0 holds the value 0; bucket k >= 1
/// holds [2^(k-1), 2^k - 1].  65 buckets cover the full u64 range.
///
/// record() is wait-free: three relaxed fetch_adds.  Snapshots are not
/// atomic across buckets — a reader racing a writer can see a sample in
/// count_ but not yet in a bucket (or vice versa); percentile() tolerates
/// that by ranking against the sum of the buckets it actually read.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  /// Bucket for \p v: 0 for 0, otherwise bit_width(v) (so 1 -> bucket 1,
  /// [2,3] -> bucket 2, [4,7] -> bucket 3, ...).
  [[nodiscard]] static constexpr std::size_t bucket_index(
      std::uint64_t v) noexcept {
    return v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v));
  }

  /// Inclusive upper bound of bucket \p i — the value percentile queries
  /// resolve to.
  [[nodiscard]] static constexpr std::uint64_t bucket_upper(
      std::size_t i) noexcept {
    return i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
  }

  void record(std::uint64_t v) noexcept {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Point-in-time copy, cheap to query repeatedly (percentile() does not
  /// re-read the atomics).
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    /// Nearest-rank percentile (\p q in [0,100]) resolved to the matched
    /// bucket's inclusive upper bound; 0 when empty.
    [[nodiscard]] std::uint64_t percentile(double q) const;
  };

  [[nodiscard]] Snapshot snapshot() const {
    Snapshot s;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    s.sum = sum_.load(std::memory_order_relaxed);
    s.count = count_.load(std::memory_order_relaxed);
    return s;
  }

  [[nodiscard]] std::uint64_t total_recorded() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Shard index for per-verb histograms and slow-request records.  One entry
/// per protocol verb family that reaches the service (pin mutations share
/// kPin; DETAIL/CONGEST/VERIFY/SVG are distinct so a slow SVG render cannot
/// hide inside DETAIL's percentiles).
enum class VerbKind : std::uint8_t {
  kRoute = 0,
  kReroute,
  kOptimize,
  kDetail,
  kCongest,
  kVerify,
  kSvg,
  kLoad,
  kGen,
  kPin,
  kStats,
  kCount_,
};

inline constexpr std::size_t kVerbKinds =
    static_cast<std::size_t>(VerbKind::kCount_);

[[nodiscard]] std::string_view to_string(VerbKind kind) noexcept;

/// Span offsets for one request, all in microseconds from the admission
/// clock read (`Job::submitted`).  Every stamp is monotonic by construction
/// (offsets from one origin, taken in order), and the rendered deltas
///   span_admit + span_queue + span_env + span_exec + span_finish
/// sum exactly to total_us because total_us is stamped from the same final
/// clock read that produces the response's latency.
///
/// parse_us is the one span *before* the origin: receive-to-admission on
/// the front-end (read + parse + classify).  It is rendered separately and
/// excluded from total_us, which — as ever — measures admission to
/// response.
struct RequestTrace {
  std::uint64_t parse_us = 0;    ///< front-end receive -> admission
  std::uint64_t enqueue_us = 0;  ///< admission checks -> queued
  std::uint64_t dequeue_us = 0;  ///< a worker picked the job up
  std::uint64_t env_us = 0;      ///< environment / implicit route ready
  std::uint64_t exec_us = 0;     ///< engine finished
  std::uint64_t total_us = 0;    ///< response finished (== resp.latency)

  /// Labeled sub-span: offset (same origin) at which `label` completed.
  /// OPTIMIZE records one per pass; stage verbs record run vs cache-hit.
  struct Sub {
    std::string label;
    std::uint64_t at_us = 0;
  };
  std::vector<Sub> subs;

  /// ` span_admit_us=.. span_queue_us=.. span_env_us=.. span_exec_us=..
  /// span_finish_us=.. span_parse_us=.. [sub_<label>_us=..]` — leading
  /// space, ready to append to a response meta.
  [[nodiscard]] std::string render_meta() const;
};

/// One completed slow request, as kept by the ring and printed by TRACE.
struct SlowRecord {
  std::uint64_t id = 0;  ///< admission sequence number of the request
  VerbKind verb = VerbKind::kRoute;
  std::string session;  ///< session key or pin handle ("" when none)
  std::string status;   ///< RouteStatus / pin outcome text
  RequestTrace trace;
};

/// Bounded keep-the-worst collection of completed request traces.
///
/// With a nonzero threshold only requests at least that slow are eligible;
/// with threshold 0 the ring keeps the top-`capacity` by total_us.  Either
/// way the common case — a request faster than the current minimum of a
/// full ring — is rejected by one relaxed atomic load before the mutex.
class SlowRequestRing {
 public:
  explicit SlowRequestRing(std::size_t capacity = 32,
                           std::uint64_t threshold_us = 0)
      : capacity_(capacity == 0 ? 1 : capacity), threshold_us_(threshold_us) {}

  void offer(SlowRecord rec);

  /// Up to \p n records, slowest first.
  [[nodiscard]] std::vector<SlowRecord> top(std::size_t n) const;

  [[nodiscard]] std::uint64_t threshold_us() const { return threshold_us_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  const std::uint64_t threshold_us_;
  /// Admission bar for the lock-free pre-check: a sample below this can
  /// never change the ring.  Starts at threshold_us_ and rises to the
  /// ring's minimum once full.
  std::atomic<std::uint64_t> floor_us_{0};
  mutable std::mutex mu_;
  std::vector<SlowRecord> records_;
};

}  // namespace gcr::serve
