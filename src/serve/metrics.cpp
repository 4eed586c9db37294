#include "serve/metrics.hpp"

#include <sstream>

namespace gcr::serve {

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  os << "requests_submitted " << requests_submitted << '\n'
     << "requests_ok " << requests_ok << '\n'
     << "requests_rejected " << requests_rejected << '\n'
     << "requests_expired " << requests_expired << '\n'
     << "requests_cancelled " << requests_cancelled << '\n'
     << "requests_not_found " << requests_not_found << '\n'
     << "requests_errored " << requests_errored << '\n'
     << "nets_routed " << nets_routed << '\n'
     << "nets_failed " << nets_failed << '\n'
     << "loads_offloaded " << loads_offloaded << '\n'
     << "loads_ok " << loads_ok << '\n'
     << "loads_failed " << loads_failed << '\n'
     << "optimizes_ok " << optimizes_ok << '\n'
     << "optimize_passes " << optimize_passes << '\n'
     << "stages_ok " << stages_ok << '\n'
     << "stages_failed " << stages_failed << '\n'
     << "gens_ok " << gens_ok << '\n'
     << "gens_failed " << gens_failed << '\n'
     << "pins_created " << pins_created << '\n'
     << "pins_released " << pins_released << '\n'
     << "pins_restored " << pins_restored << '\n'
     << "pin_ops_ok " << pin_ops_ok << '\n'
     << "pin_ops_failed " << pin_ops_failed << '\n'
     << "pin_saves " << pin_saves << '\n'
     << "pin_autosaves " << pin_autosaves << '\n'
     << "pins_active " << pins_active << '\n'
     << "stage_cache_hits " << stage_cache_hits << '\n'
     << "stage_cache_misses " << stage_cache_misses << '\n'
     << "stage_cache_evictions " << stage_cache_evictions << '\n'
     << "stage_cache_size " << stage_cache_size << '\n'
     << "latency_p50_us " << latency_p50_us << '\n'
     << "latency_p95_us " << latency_p95_us << '\n'
     << "latency_p99_us " << latency_p99_us << '\n'
     << "queue_wait_p50_us " << queue_wait_p50_us << '\n';
  for (std::size_t i = 0; i < kVerbKinds; ++i) {
    const std::string_view name = to_string(static_cast<VerbKind>(i));
    const VerbLatencySnapshot& v = verbs[i];
    os << "verb_" << name << "_count " << v.count << '\n'
       << "verb_" << name << "_p50_us " << v.p50_us << '\n'
       << "verb_" << name << "_p95_us " << v.p95_us << '\n'
       << "verb_" << name << "_p99_us " << v.p99_us << '\n';
  }
  os << "uptime_s " << uptime_s << '\n'
     << "protocol_version " << protocol_version << '\n'
     << "queue_depth " << queue_depth << '\n'
     << "queue_capacity " << queue_capacity << '\n'
     << "queue_shards " << queue_shards << '\n'
     << "queue_fair_rounds " << queue_fair_rounds << '\n'
     << "queue_oldest_wait_us " << queue_oldest_wait_us << '\n';
  // Live shards only: an idle queue renders no shard lines, so the key set
  // above stays stable for dashboards while skew remains observable the
  // moment it exists.
  for (std::size_t i = 0; i < queue_shard_stats.size(); ++i) {
    const QueueShardSnapshot& q = queue_shard_stats[i];
    os << "queue_shard" << i << "_depth " << q.depth << '\n'
       << "queue_shard" << i << "_enqueued " << q.enqueued << '\n'
       << "queue_shard" << i << "_served " << q.served << '\n'
       << "queue_shard" << i << "_head_wait_us " << q.head_wait_us << '\n';
  }
  os << "workers " << workers << '\n'
     << "cache_hits " << cache_hits << '\n'
     << "cache_misses " << cache_misses << '\n'
     << "cache_evictions " << cache_evictions << '\n'
     << "cache_size " << cache_size << '\n';
  return os.str();
}

}  // namespace gcr::serve
