#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/frame_parser.hpp"
#include "serve/routing_service.hpp"

/// \file protocol.hpp
/// The framed line protocol of the routing service — grammar version 2.
///
/// Requests (one command line, LF- or CRLF-terminated; LOAD carries a byte-
/// counted body immediately after its line):
///
/// ```text
/// HELLO                          ; protocol version + capability list (the
///                                ;   serialized verb table, one line per
///                                ;   verb; '!' marks a required knob)
/// LOAD <nbytes>                  ; followed by exactly <nbytes> bytes of
///                                ;   io::text_format layout
/// ROUTE <session> [key=value]…   ; options: mode=independent|sequential
///                                ;   threads=N  deadline_ms=N  sorted=0|1
///                                ;   segments=0|1 (Steiner connect-to-
///                                ;   segments; 1 is the paper's scheme)
///                                ;   nets=<name>[,<name>]… routes only the
///                                ;   listed nets against the cached session
/// REROUTE <session> nets=<list>  ; rip-up-and-reroute: a full sequential
///                                ;   pass, then the listed nets are ripped
///                                ;   out (incremental halo removal) and
///                                ;   re-routed last against the committed
///                                ;   remainder.  nets= is required; mode=
///                                ;   is rejected (always sequential);
///                                ;   other ROUTE options apply.  The dump
///                                ;   is restricted to the listed nets.
///                                ;   When <session> names a *pin*, the
///                                ;   rip-up runs against the pin's own
///                                ;   committed remainder instead (owner
///                                ;   only; see PIN below).
/// OPTIMIZE <session> [k=v]…      ; iterated rip-up-and-reroute over the
///                                ;   whole netlist: passes=N caps the
///                                ;   optimization passes, budget_ms=N
///                                ;   bounds wall-clock (expiry returns the
///                                ;   best routing so far, not an error);
///                                ;   deadline_ms= and segments= as ROUTE.
///                                ;   mode=/nets=/threads= are rejected.
/// DETAIL <session> [k=v]…        ; detailed routing over the session's
///                                ;   committed routes: window=N pitch=N
///                                ;   deadline_ms=N.
/// CONGEST <session> [k=v]…       ; two-pass congestion analysis:
///                                ;   penalty=N iterations=N wire_pitch=N
///                                ;   max_gap=N deadline_ms=N.
/// VERIFY <session> [k=v]…        ; route verifier: all_routed=0|1
///                                ;   deadline_ms=N.
/// SVG <session> [k=v]…           ; SVG render: scale=F pins=0|1 names=0|1
///                                ;   deadline_ms=N.
/// GEN <kind> seed=<n> [k=v]…     ; server-side workload synthesis; kinds
///                                ;   floorplan|standard|padring, knobs
///                                ;   cells=N extent=N nets=N pads=N.
/// PIN <session|handle>           ; derive an exclusive *mutable* copy of a
///                                ;   cached session (copy-on-pin; the
///                                ;   shared read-only entry is untouched),
///                                ;   or claim an existing unowned handle
///                                ;   (the rolling-restart reattach path).
///                                ;   The pin is owned by this connection
///                                ;   and auto-released on disconnect.
/// UNPIN <handle>                 ; release the pin (owner only)
/// COMMIT <handle> nets=<list>    ; route the listed nets against the pin's
///                                ;   committed remainder and commit them
///                                ;   incrementally (no rebuild); errors if
///                                ;   a listed net is already committed
/// UNCOMMIT <handle> nets=<list>  ; rip the listed committed nets back out
///                                ;   (incremental halo removal)
/// SAVE <handle> <name>           ; serialize the pin (post-compaction
///                                ;   index + escape lines + commit records
///                                ;   + routes) to <name> under the
///                                ;   server's --snapshot-dir; a server
///                                ;   started with --restore-dir rehydrates
///                                ;   every decodable blob as an unowned
///                                ;   pin, zero environment rebuilds
/// STATS                          ; service metrics
/// TRACE [n=<count>]              ; the slowest requests seen so far (the
///                                ;   slow-request ring): one line per
///                                ;   record, slowest first, up to n (1..256,
///                                ;   default 32).  A server started with
///                                ;   --slow-ms only retains requests at or
///                                ;   above that threshold; without it the
///                                ;   ring keeps the top-N by latency.
/// QUIT                           ; close the connection
/// ```
///
/// ROUTE, REROUTE, OPTIMIZE, and the stage verbs additionally accept
/// `trace=0|1`: with trace=1 the response meta carries the request's span
/// breakdown (see "Span glossary" below).  Spans are *always* measured —
/// the knob only controls whether they are echoed.
///
/// Responses are framed the same way — a status line carrying the body byte
/// count, then the body verbatim:
///
/// ```text
/// OK <nbytes> [meta]…            ; <nbytes> bytes of body follow the LF
/// ERR <reason…>                  ; no body
/// ```
///
/// Every OK meta is a single space-separated `key=value` list rendered by
/// one formatter (MetaBuilder in protocol.cpp) — clients parse one shape
/// for every verb.  The exceptions are fixed by contract: `QUIT` answers
/// the bare literal `OK 0 bye`, `STATS` bodies stay `key value` metric
/// lines, and `PASS` progress lines were already key=value.
///
/// `OPTIMIZE` additionally streams *progress lines* before its final frame
/// — one per completed pass, in pass order:
///
/// ```text
/// PASS <i> wirelength=<w> overflow=<o>
/// ```
///
/// Progress lines carry no body and are always followed by exactly one
/// terminating `OK`/`ERR` frame, so a client reads lines until the status
/// line arrives — within one response the wirelength and overflow values
/// are non-increasing (the engine never lets a pass regress).  On a
/// pipelining connection the lines still respect request order:
/// they are sequenced like any response and cannot interleave into an
/// earlier command's reply.
///
/// Reply metas by verb:
///
/// ```text
/// HELLO     OK <n> version=2 verbs=<count> uptime_s=<s>
///                                              ; body = one line per verb
/// LOAD      OK 0 session=<key> cells=<n> nets=<m> cached=<0|1>
/// GEN       LOAD's meta + gen=<kind>
/// ROUTE     OK <n> routed=<r> failed=<f> wirelength=<w> queue_us=<q>
///           total_us=<t>                       ; body = route dump
/// REROUTE   as ROUTE (pin form adds pin=<handle> first)
/// OPTIMIZE  OK <n> passes=<p> routed=<r> failed=<f> wirelength=<w>
///           overflow=<o> queue_us=<q> total_us=<t>
/// DETAIL &c OK <n> stage=<kind> cached=<0|1> <stage meta…> queue_us=<q>
///           total_us=<t>
/// PIN       OK 0 pin=<handle> session=<base-key> nets=<n> committed=<c>
/// UNPIN     OK 0 pin=<handle> released=1
/// COMMIT    OK <n> pin=<handle> committed=<c> routed=<r> failed=<f>
///           wirelength=<w> queue_us=<q> total_us=<t>  ; body = dump of
///           exactly this op's nets
/// UNCOMMIT  OK 0 pin=<handle> removed=<r> committed=<c> queue_us=<q>
///           total_us=<t>
/// SAVE      OK 0 pin=<handle> bytes=<n> queue_us=<q> total_us=<t>
/// TRACE     OK <n> count=<returned> threshold_ms=<t>  ; body = one line
///           per slow-ring record, slowest first:
///           `trace <id> verb=<v> session=<key> status=<s> total_us=<t>
///            queue_us=… env_us=… exec_us=… finish_us=… [sub_<label>_us=…]`
/// ```
///
/// Span glossary (`trace=1` response meta, all microseconds):
///
/// ```text
/// span_parse_us   dispatch -> submit (command parse; outside total_us)
/// span_admit_us   submit -> enqueued (admission checks, net resolution)
/// span_queue_us   enqueued -> dequeued by a worker
/// span_env_us     dequeue -> routing environment ready (grid/session state)
/// span_exec_us    environment ready -> engine finished
/// span_finish_us  engine finished -> response handed to the completion
/// sub_<label>_us  sub-span offsets from submit: OPTIMIZE emits one
///                 sub_pass<i>_us per completed pass; stage verbs emit
///                 sub_stage_run_us or sub_stage_cache_hit_us
/// ```
///
/// span_admit + span_queue + span_env + span_exec + span_finish == the
/// response's total_us exactly — every stamp is an offset from one
/// submission timestamp and the deltas telescope.
///
/// The stage verbs run against the session's *committed* routes — published
/// by the last full ROUTE, REROUTE, or OPTIMIZE; a session that has none
/// yet gets a default full sequential pass first (committed for every later
/// request).  Stage results are cached content-addressed on (session key,
/// committed-route fingerprint, stage options), so a repeated `DETAIL` is a
/// cache hit and a mutating `REROUTE`/`OPTIMIZE` re-keys — never staleness.
///
/// Byte-counted bodies make the protocol safe over any 8-bit pipe: layout
/// text and route dumps pass through unescaped, and a desynchronized peer
/// fails loudly at the next status line instead of silently misparsing.
///
/// Input hardening: command lines are capped at kMaxCommandLine bytes (a
/// peer that never sends `\n` cannot buffer unbounded memory), and every
/// `ERR` reason is clamped to short printable text before echoing — request
/// bytes are untrusted and may carry terminal escapes or binary garbage.
///
/// The whole request grammar is one declarative table (verb_table() below):
/// each verb row names its positional arity and its `key=value` knobs with
/// types, ranges, and required flags; classify_command, every parse_*
/// function, and the HELLO capability list are all views of that single
/// table, and a new verb is one row plus a case in dispatch().
///
/// The front-end — the epoll loop (src/net/), for sockets and pipes alike —
/// frames bytes with the one FrameParser and hands every event to the one
/// dispatch(), which does all per-verb work and answers through the
/// connection's Responder.  The front-end owns only transport: where a
/// frame is written, how a pipelined connection keeps responses in order,
/// and when it closes.

namespace gcr::serve {

/// Upper bound on `deadline_ms`/`budget_ms` (24 hours).  parse_count
/// accepts anything up to ULLONG_MAX, but milliseconds' rep is signed:
/// constructing it from a huge count narrows to a *negative* duration, and
/// `steady_clock::now() + deadline` can overflow the clock rep outright
/// (signed-overflow UB).  Values above the cap answer ERR instead.
inline constexpr unsigned long long kMaxDeadlineMs = 86'400'000;
/// Wire grammar version announced by HELLO.  v2 = table-driven verbs,
/// uniform key=value response metas, session lifecycle (PIN family).
inline constexpr unsigned kProtocolVersion = 2;

/// The command keywords, classified once for the front-end.
enum class CommandKind {
  kBlank,    ///< empty / whitespace-only keep-alive line
  kQuit,
  kStats,
  kHello,    ///< version + capability handshake
  kLoad,
  kRoute,
  kReroute,
  kOptimize,
  kDetail,   ///< pipeline stage: detailed routing
  kCongest,  ///< pipeline stage: two-pass congestion analysis
  kVerify,   ///< pipeline stage: route verification
  kSvg,      ///< pipeline stage: SVG render
  kGen,      ///< server-side workload synthesis
  kPin,      ///< derive/claim a mutable pinned session
  kUnpin,    ///< release a pinned session
  kCommit,   ///< route + incrementally commit nets into a pin
  kUncommit, ///< rip committed nets back out of a pin
  kSave,     ///< serialize a pin to the snapshot directory
  kTrace,    ///< dump the slow-request ring
  kUnknown,
};

/// How a knob's value is parsed and validated.  One enum instead of five
/// hand-rolled parsers: the range/error text is derived uniformly from the
/// KnobSpec (see protocol.cpp) so every verb rejects with identical shapes.
enum class KnobType {
  kCount,     ///< non-negative integer, optional [lo, hi] range
  kDuration,  ///< kCount capped at kMaxDeadlineMs
  kBool,      ///< strictly "0" or "1"
  kMode,      ///< "independent" | "sequential"
  kScale,     ///< positive decimal in [0.0625, 64] (SVG)
  kNets,      ///< comma-separated net-name list, no empty items
};

/// One `key=value` knob a verb accepts.
struct KnobSpec {
  const char* key = "";
  KnobType type = KnobType::kCount;
  /// kCount range.  lo==0 renders "at most <hi>", otherwise
  /// "must be <lo>..<hi>"; hi==ULLONG_MAX disables the check.
  unsigned long long lo = 0;
  unsigned long long hi = ~0ull;
  bool required = false;
  /// Doc string for the required-knob error: "<VERB> needs <key>=<doc>".
  const char* missing_doc = "";
  /// Non-null: the knob's *presence* is an error, answered with exactly
  /// this message (REROUTE mode=).
  const char* reject_msg = nullptr;
};

/// One verb row: everything the shared tokenizer/validator needs.
struct VerbSpec {
  const char* name = "";
  CommandKind kind = CommandKind::kUnknown;
  std::size_t min_args = 0;       ///< leading positional words
  const char* args_doc = "";      ///< "<VERB> needs <args_doc>" when short
  std::vector<KnobSpec> knobs;
};

/// The single declarative grammar shared by classify_command, the parse_*
/// wrappers, and format_hello().  Order is the HELLO listing order.
[[nodiscard]] const std::vector<VerbSpec>& verb_table();

struct ClassifiedCommand {
  CommandKind kind = CommandKind::kBlank;
  std::string keyword;  ///< first token (echoed in unknown-command ERRs)
  std::string args;     ///< everything after the keyword (ROUTE arguments)
};

/// Splits a command line into keyword + argument rest and names the
/// command by verb-table lookup — dispatch()'s keyword-routing point.
[[nodiscard]] ClassifiedCommand classify_command(const std::string& line);

/// Parses the ROUTE argument vector (everything after the keyword) through
/// the verb table into a service request (deadline made absolute, net names
/// handed over for admission-time resolution).  Throws std::runtime_error
/// with token context on unknown or malformed options.
[[nodiscard]] RouteRequest parse_route_command(const std::string& args);

/// Parses a REROUTE argument vector: the ROUTE grammar, except `nets=` is
/// required (an empty rip-up set would silently be a plain route) and
/// `mode=` is rejected — rip-up-and-reroute is sequential by definition.
/// Throws std::runtime_error like parse_route_command.
[[nodiscard]] RouteRequest parse_reroute_command(const std::string& args);

/// Parses an OPTIMIZE argument vector: `passes=<n>` (1..1024),
/// `budget_ms=<n>`, plus ROUTE's `deadline_ms=`/`segments=`.  Everything
/// else — mode=, nets=, threads=, sorted= — is rejected: the engine is
/// sequential whole-netlist by definition.  Throws std::runtime_error like
/// parse_route_command.
[[nodiscard]] RouteRequest parse_optimize_command(const std::string& args);

/// Parses a stage-verb argument vector (everything after DETAIL / CONGEST /
/// VERIFY / SVG): `<session> [key=value]…` with the stage's knobs plus
/// `deadline_ms=`.  \p kind names the verb.  Throws std::runtime_error
/// with token context like parse_route_command.
[[nodiscard]] RouteRequest parse_stage_command(CommandKind kind,
                                               const std::string& args);

/// A parsed GEN command: which generator and its knobs.  Defaults mirror
/// the workload tests' standard shapes.
struct GenCommand {
  enum class Kind { kFloorplan, kStandard, kPadring };
  Kind kind = Kind::kStandard;
  std::uint64_t seed = 0;
  std::size_t cells = 12;
  geom::Coord extent = 512;
  std::size_t nets = 16;        ///< standard/padring net count
  std::size_t pads = 3;         ///< padring pads per side
};

[[nodiscard]] const char* to_string(GenCommand::Kind k) noexcept;

/// Parses `GEN <kind> seed=<n> [cells=][extent=][nets=][pads=]`.  seed= is
/// required (an accidental default would silently alias sessions); the
/// knobs are capped (cells <= 4096, nets <= 65536, extent 64..1048576,
/// pads <= 256) so a hostile GEN cannot make the server synthesize an
/// arbitrarily large layout.  Throws std::runtime_error on violations.
[[nodiscard]] GenCommand parse_gen_command(const std::string& args);

/// Parses a pin-family argument vector (everything after PIN / UNPIN /
/// COMMIT / UNCOMMIT / SAVE) into a service request.  `owner` is left null
/// — the front-end stamps its connection identity before submitting.
/// Throws std::runtime_error with token context like parse_route_command.
[[nodiscard]] PinRequest parse_pin_command(CommandKind kind,
                                           const std::string& args);

/// Runs the selected generator — deterministically (workload/rng.hpp): the
/// same command yields byte-identical text, and therefore the same session
/// key, on every platform and thread count.  Pure; safe on any thread.
[[nodiscard]] std::string generate_workload_text(const GenCommand& cmd);

/// Parses a complete `LOAD <count>` command line and returns the declared
/// body byte count.  Throws std::runtime_error (with token context) when
/// the count is missing, non-numeric, or out of range — the caller must
/// treat that as a lost stream position.  The FrameParser's LOAD framing.
[[nodiscard]] unsigned long long parse_load_count(const std::string& line);

/// Renders one `OK` frame: status line (`OK <body.size()> <meta>`) + body.
[[nodiscard]] std::string format_ok(const std::string& meta,
                                    const std::string& body);

/// Renders one `ERR` frame.  The reason is flattened (no embedded newlines
/// can fabricate protocol lines), clamped to printable ASCII, and truncated
/// — it may echo untrusted request bytes.
[[nodiscard]] std::string format_err(const std::string& reason);

/// Renders the HELLO response: `version=<v> verbs=<n> uptime_s=<s>` meta,
/// body one line per verb-table row (`verb <NAME> args=<n>
/// [knobs=<k1,k2!,…>]`, '!' = required).  Pure apart from \p uptime_s,
/// which the caller reads off the service.
[[nodiscard]] std::string format_hello(std::uint64_t uptime_s);

/// Renders the LOAD OK frame for an already-resolved session (the inline
/// resident-content fast path of dispatch()).
[[nodiscard]] std::string format_load_ok(const LayoutSession& session,
                                         bool cached);

/// Renders a completed offloaded LOAD (the OK frame, or the ERR frame for
/// a parse/validation failure).  Pure — safe on a worker thread.
[[nodiscard]] std::string format_load_response(const LoadResponse& resp);

/// Renders the STATS response frame.  Times its own render and records the
/// cost into the service's `stats` verb shard — the observer observes
/// itself, so a pathological STATS render shows up in STATS.
[[nodiscard]] std::string exec_stats(RoutingService& service);

/// Parses a TRACE argument vector (`[n=<count>]`, 1..256) and returns the
/// requested record count (32 when omitted).  Throws std::runtime_error
/// with token context like parse_route_command.
[[nodiscard]] std::size_t parse_trace_count(const std::string& args);

/// Renders the TRACE response frame: up to \p n slow-ring records, slowest
/// first, one `trace <id> …` line each (see the file comment), with
/// `count=` and `threshold_ms=` meta.
[[nodiscard]] std::string exec_trace(RoutingService& service, std::size_t n);

/// Renders a completed ROUTE response: OK frame with the route-dump body
/// (subset-restricted when the request named nets), or the ERR frame for a
/// failed status.  Pure — safe to call from a worker thread.
[[nodiscard]] std::string format_route_response(const RouteResponse& resp);

/// Renders one OPTIMIZE progress line (`PASS <i> wirelength=<w>
/// overflow=<o>\n`, no body).  Pure — safe on a worker thread.
[[nodiscard]] std::string format_pass_progress(
    const route::OptimizePassStats& stats);

/// Renders a completed OPTIMIZE response: the final OK frame with the
/// full-netlist route-dump body and convergence meta (`passes`, `overflow`
/// on top of ROUTE's meta), or the ERR frame.  Pure — safe on a worker
/// thread.
[[nodiscard]] std::string format_optimize_response(const RouteResponse& resp);

/// Renders a completed stage response: `OK <nbytes> stage=<kind>
/// cached=<0|1> <stage meta> queue_us=<q> total_us=<t>` + the stage body,
/// or the ERR frame.  Pure — safe on a worker thread.
[[nodiscard]] std::string format_stage_response(const RouteResponse& resp);

/// Renders a completed pin-family response (meta per the file comment), or
/// the ERR frame.  \p op selects the meta shape.  Pure — safe on a worker
/// thread.
[[nodiscard]] std::string format_pin_response(const PinResponse& resp,
                                              PinRequest::Op op);

/// Renders the GEN OK frame: LOAD's meta plus a trailing `gen=<kind>`.
[[nodiscard]] std::string format_gen_ok(const LayoutSession& session,
                                        bool cached, GenCommand::Kind kind);

/// Where a command's frames go once it has left the dispatching thread: a
/// worker calls the sink with each OPTIMIZE `PASS` line (final=false), then
/// exactly once with the final frame (final=true).
using ReplySink = std::function<void(std::string text, bool final)>;

/// The front-end's half of dispatch(): how one command's answer reaches its
/// connection.  dispatch() answers every event exactly once — either inline
/// through answer(), or through the sink hand_off() returned.
class Responder {
 public:
  /// The connection's identity: owner of the pins it acquires and cancel
  /// token of every job it submits.
  [[nodiscard]] virtual const std::shared_ptr<std::atomic<bool>>& owner()
      const = 0;
  /// Delivers the final frame on the dispatching thread.
  virtual void answer(std::string frame) = 0;
  /// Called once, just before the command is handed to the worker pool;
  /// returns where its frames go.  \p barrier marks LOAD/GEN: commands
  /// after it must not dispatch until its final frame is in, so a
  /// pipelined `LOAD …\nROUTE` finds the session resident.
  virtual ReplySink hand_off(bool barrier) = 0;
  /// The connection closes once this command's frame is delivered (QUIT,
  /// or a fatal framing error); no later command is served.
  virtual void close_after() = 0;

 protected:
  ~Responder() = default;
};

/// The single per-verb handler the front-end calls: answers one framer
/// event.  Framing errors and malformed command lines answer ERR (the
/// connection continues, except after a fatal framing error); everything
/// else is classified, parsed through the verb table into a service
/// request, and answered inline (STATS, HELLO, TRACE, resident LOAD, parse
/// errors) or on a worker, which also renders the frame.  Moves the LOAD
/// body out of \p ev.
void dispatch(RoutingService& service, FrameParser::Event& ev,
              Responder& responder);

}  // namespace gcr::serve
