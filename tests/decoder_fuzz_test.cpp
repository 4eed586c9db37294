// Mutational fuzz of the decoders on the LOAD path, scaled by
// GCR_FUZZ_ITERS:
//   - the single-pass layout reader against the stream-based reference
//     (tests/reference_layout_reader.hpp): every mutated input either makes
//     both throw ParseError with the same line and message, or makes both
//     return field-for-field equal layouts; nothing but runtime_error
//     escapes either;
//   - the protocol framer: a byte stream fed whole, byte at a time and at
//     random split points yields the same events and the same end of input;
//   - the verb table: mutated command lines through classify_command and
//     every parse_* function throw nothing but std::runtime_error, and every
//     message (and any echoed line) renders as one printable ERR line whose
//     reason is at most 256 bytes;
//   - orthogonal-polygon validity (the LOAD path's `poly` check): the sweep
//     in OrthoPolygon::valid() against the pairwise oracle
//     (tests/reference_polygon.hpp) on random valid and invalid polygons,
//     touching and overlapping collinear edges included, and on polygons
//     of over 20 000 vertices.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <iterator>
#include <random>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "fuzz_env.hpp"
#include "geometry/polygon.hpp"
#include "io/text_format.hpp"
#include "layout/layout.hpp"
#include "reference_layout_reader.hpp"
#include "reference_polygon.hpp"
#include "serve/frame_parser.hpp"
#include "serve/protocol.hpp"
#include "workload/netgen.hpp"
#include "workload/rng.hpp"

namespace {

using namespace gcr;

// ------------------------------------------------------------------ corpus

/// The io_test fixtures plus one directive of each kind.
constexpr const char* kFixtures[] = {
    R"(
# a small two-cell problem
boundary 0 0 100 100
minsep 4
cell alu 10 10 30 30
cell rom 50 50 80 80
term alu a 30 20
term alu clk 10 15 30 15
term rom d 50 70
pad vdd 0 5
net n1 alu.a rom.d
net pwr alu.clk pad.vdd
)",
    R"(
boundary 0 0 100 100
poly ell 10 10 50 10 50 30 30 30 30 50 10 50
)",
    "\n# header\nboundary 0 0 9 9\n\ncell a 1 1 3 3  # inline comment\n",
    // A cell named "pad" (its refs are pads), names holding '#' and '.',
    // signs, CRLF and \v separators, no final LF.
    "boundary -5 -5 +90 90\r\nminsep +2\r\ncell pad 0 0 9 9\r\n"
    "term pad x 9 4 0 4\r\npad x 50 -5\r\nnet n pad.x pad.x\r\n"
    "cell q#r 20 20 30 30\nterm q#r c.d 20 25\nnet m\vq#r.c.d pad.x #tail",
};

std::vector<std::string> seed_corpus() {
  std::vector<std::string> corpus(std::begin(kFixtures), std::end(kFixtures));
  // Short names, densely: more names than the reader's name table is first
  // sized for, so it grows while nets still refer to earlier names.
  std::string dense = "boundary 0 0 999 999\n";
  for (int i = 0; i < 300; ++i) {
    dense += "pad " + std::to_string(i) + " " + std::to_string(i) + " 0\n";
  }
  corpus.push_back(dense + "net n pad.0 pad.299 pad.150\n");
  // The generator shapes of the three perfbench workloads (route, optimize,
  // serve): cells, extent, nets.
  struct Shape {
    std::size_t cells;
    geom::Coord extent;
    std::size_t nets;
  };
  for (const Shape& s : {Shape{20, 640, 32}, Shape{20, 320, 48},
                         Shape{16, 640, 24}}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      corpus.push_back(io::write_layout_string(
          workload::standard_workload(s.cells, s.extent, s.nets, seed)));
    }
  }
  return corpus;
}

// ---------------------------------------------------------------- mutation

constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(workload::bounded_u64(rng_, n));
  }

  /// Applies one to four random edits.
  std::string mutate(std::string s) {
    const std::size_t edits = 1 + below(4);
    for (std::size_t e = 0; e < edits; ++e) edit(s);
    return s;
  }

 private:
  struct Span {
    std::size_t pos, len;
  };

  static std::vector<Span> spans(const std::string& s, bool lines) {
    std::vector<Span> out;
    std::size_t i = 0;
    while (i < s.size()) {
      const auto boundary = [&](char c) {
        return lines ? c == '\n' : is_space(c);
      };
      if (boundary(s[i])) {
        ++i;
        continue;
      }
      const std::size_t start = i;
      while (i < s.size() && !boundary(s[i])) ++i;
      out.push_back(Span{start, i - start});
    }
    return out;
  }

  std::string big_integer() {
    static const char* const kEdges[] = {
        "99999999999999999999", "-99999999999999999999",
        "9223372036854775807",  "9223372036854775808",
        "-9223372036854775808", "-9223372036854775809",
        "2147483647",           "2147483648",
        "-2147483647",          "-2147483648",
        "+0",                   "-0",
        "+-5",                  "0x10",
        "1e3",                  "007"};
    if (below(2) == 0) return kEdges[below(std::size(kEdges))];
    std::string out = below(2) == 0 ? "-" : "";
    for (int i = 0; i < 20; ++i) out += static_cast<char>('0' + below(10));
    return out;
  }

  std::string big_token() {
    std::string out(4096, 'x');
    for (char& c : out) c = static_cast<char>('!' + below(94));
    if (below(2) == 0) out[below(out.size())] = '.';
    return out;
  }

  void edit(std::string& s) {
    const std::size_t at = below(s.size() + 1);
    const std::vector<Span> toks = spans(s, false);
    const auto tok = [&]() -> const Span* {
      return toks.empty() ? nullptr : &toks[below(toks.size())];
    };
    switch (below(16)) {
      case 0:  // bit flip
        if (!s.empty()) s[below(s.size())] ^= static_cast<char>(1 << below(8));
        break;
      case 1:  // random byte
        if (!s.empty()) s[below(s.size())] = static_cast<char>(below(256));
        break;
      case 2:  // token drop
        if (const Span* t = tok()) s.erase(t->pos, t->len);
        break;
      case 3:  // token duplicate
        if (const Span* t = tok()) {
          s.insert(t->pos + t->len, " " + s.substr(t->pos, t->len));
        }
        break;
      case 4: {  // line swap
        const std::vector<Span> lines = spans(s, true);
        if (lines.size() < 2) break;
        Span a = lines[below(lines.size())];
        Span b = lines[below(lines.size())];
        if (a.pos == b.pos) break;
        if (a.pos > b.pos) std::swap(a, b);
        const std::string la = s.substr(a.pos, a.len);
        const std::string lb = s.substr(b.pos, b.len);
        s.replace(b.pos, b.len, la);
        s.replace(a.pos, a.len, lb);
        break;
      }
      case 5:
        s.insert(at, 1, '#');
        break;
      case 6:
        s.insert(at, 1, '\r');
        break;
      case 7:
        s.insert(at, 1, '\0');
        break;
      case 8:  // sign prefixes at a token start
        if (const Span* t = tok()) {
          static const char* const kSigns[] = {"+", "-", "+-", "--", "++"};
          s.insert(t->pos, kSigns[below(std::size(kSigns))]);
        }
        break;
      case 9:  // 20-digit and boundary integers
        if (const Span* t = tok()) s.replace(t->pos, t->len, big_integer());
        break;
      case 10:  // 4 KB token
        if (const Span* t = tok()) {
          s.replace(t->pos, t->len, big_token());
        } else {
          s.insert(at, big_token());
        }
        break;
      case 11: {  // other whitespace and high bytes
        static const char kBytes[] = {'\t', '\v', '\f', ' ', '\n',
                                      static_cast<char>(0x80),
                                      static_cast<char>(0xff)};
        s.insert(at, 1, kBytes[below(sizeof kBytes)]);
        break;
      }
      case 12: {  // line duplicate: duplicate names and directives
        const std::vector<Span> lines = spans(s, true);
        if (lines.empty()) break;
        const Span l = lines[below(lines.size())];
        s.insert(l.pos, s.substr(l.pos, l.len) + "\n");
        break;
      }
      case 13:  // truncation
        s.resize(at);
        break;
      case 14:  // a token replaced by another: dangling and duplicate names
        if (toks.size() >= 2) {
          const Span from = toks[below(toks.size())];
          const Span to = toks[below(toks.size())];
          s.replace(to.pos, to.len, s.substr(from.pos, from.len));
        }
        break;
      default:  // token split at a dot or glued to its neighbour
        if (const Span* t = tok()) {
          if (below(2) == 0) {
            s.insert(t->pos + below(t->len + 1), ".");
          } else if (t->pos + t->len < s.size()) {
            s.erase(t->pos + t->len, 1);
          }
        }
        break;
    }
  }

  std::mt19937_64 rng_;
};

/// Input rendered for a failure message: escaped and clamped.
std::string show(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size() && out.size() < 1500; ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c == '\n') {
      out += "\\n\n";
    } else if (c >= 0x20 && c < 0x7f) {
      out += static_cast<char>(c);
    } else {
      static const char kHex[] = "0123456789abcdef";
      out += "\\x";
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

// -------------------------------------------------------------- comparison

/// The first field in which two layouts differ, empty when equal.
std::string layout_diff(const layout::Layout& a, const layout::Layout& b) {
  const auto pins_diff = [](const layout::Terminal& x,
                            const layout::Terminal& y) -> std::string {
    if (x.name != y.name) return "terminal name";
    if (x.pins.size() != y.pins.size()) return "pin count";
    for (std::size_t i = 0; i < x.pins.size(); ++i) {
      if (x.pins[i].pos != y.pins[i].pos) return "pin position";
      if (x.pins[i].name != y.pins[i].name) return "pin name";
    }
    return "";
  };
  if (a.boundary() != b.boundary()) return "boundary";
  if (a.min_separation() != b.min_separation()) return "minsep";
  if (a.cells().size() != b.cells().size()) return "cell count";
  for (std::size_t i = 0; i < a.cells().size(); ++i) {
    const layout::Cell& x = a.cells()[i];
    const layout::Cell& y = b.cells()[i];
    const std::string at = "cell#" + std::to_string(i) + " ";
    if (x.name() != y.name()) return at + "name";
    if (x.outline() != y.outline()) return at + "outline";
    if (x.polygonal() != y.polygonal()) return at + "kind";
    if (x.polygonal() && x.shape().vertices() != y.shape().vertices()) {
      return at + "polygon vertices";
    }
    if (x.terminals().size() != y.terminals().size()) {
      return at + "terminal count";
    }
    for (std::size_t t = 0; t < x.terminals().size(); ++t) {
      const std::string d = pins_diff(x.terminals()[t], y.terminals()[t]);
      if (!d.empty()) return at + d;
    }
  }
  if (a.pads().size() != b.pads().size()) return "pad count";
  for (std::size_t t = 0; t < a.pads().size(); ++t) {
    const std::string d = pins_diff(a.pads()[t], b.pads()[t]);
    if (!d.empty()) return "pad#" + std::to_string(t) + " " + d;
  }
  if (a.nets().size() != b.nets().size()) return "net count";
  for (std::size_t n = 0; n < a.nets().size(); ++n) {
    const layout::Net& x = a.nets()[n];
    const layout::Net& y = b.nets()[n];
    const std::string at = "net#" + std::to_string(n) + " ";
    if (x.name() != y.name()) return at + "name";
    if (x.terminals().size() != y.terminals().size()) return at + "ref count";
    for (std::size_t r = 0; r < x.terminals().size(); ++r) {
      const layout::TerminalRef& p = x.terminals()[r];
      const layout::TerminalRef& q = y.terminals()[r];
      if (p.cell.valid() != q.cell.valid() ||
          (p.cell.valid() && p.cell.value != q.cell.value) ||
          p.terminal != q.terminal) {
        return at + "ref";
      }
    }
  }
  return "";
}

/// What a reader did with one input.
struct Outcome {
  enum class Kind { kLayout, kParseError, kRuntimeError, kOther };
  Kind kind = Kind::kOther;
  layout::Layout lay;
  std::size_t line = 0;
  std::string what;
};

template <typename Read>
Outcome outcome_of(Read&& read) {
  Outcome o;
  try {
    o.lay = read();
    o.kind = Outcome::Kind::kLayout;
  } catch (const io::ParseError& e) {
    o.kind = Outcome::Kind::kParseError;
    o.line = e.line();
    o.what = e.what();
  } catch (const std::runtime_error& e) {
    o.kind = Outcome::Kind::kRuntimeError;
    o.what = e.what();
  } catch (const std::exception& e) {
    o.what = e.what();
  } catch (...) {
    o.what = "non-std exception";
  }
  return o;
}

void expect_same(const Outcome& got, const Outcome& want,
                 const std::string& input) {
  ASSERT_NE(got.kind, Outcome::Kind::kOther)
      << "reader leaked a non-runtime_error: " << got.what << "\n"
      << show(input);
  ASSERT_NE(want.kind, Outcome::Kind::kOther)
      << "reference leaked a non-runtime_error: " << want.what << "\n"
      << show(input);
  ASSERT_EQ(got.kind, want.kind)
      << "reader: " << got.what << "\nreference: " << want.what << "\n"
      << show(input);
  EXPECT_EQ(got.line, want.line) << show(input);
  EXPECT_EQ(got.what, want.what) << show(input);
  if (got.kind == Outcome::Kind::kLayout) {
    EXPECT_EQ(layout_diff(got.lay, want.lay), "") << show(input);
  }
}

/// Both readers on one input, then what LOAD does next with a layout: the
/// validator (which must not trip a sanitizer on any decoded coordinates)
/// and a write/read round trip.
void check_reader(const std::string& input) {
  const Outcome got = outcome_of([&] { return io::read_layout_string(input); });
  const Outcome want =
      outcome_of([&] { return test::reference_read_layout_string(input); });
  expect_same(got, want, input);
  if (::testing::Test::HasFailure() || got.kind != Outcome::Kind::kLayout) {
    return;
  }
  (void)got.lay.validate();
  const Outcome back = outcome_of(
      [&] { return io::read_layout_string(io::write_layout_string(got.lay)); });
  ASSERT_EQ(back.kind, Outcome::Kind::kLayout) << back.what << "\n"
                                               << show(input);
  EXPECT_EQ(layout_diff(back.lay, got.lay), "") << show(input);
}

TEST(LayoutReaderFuzz, SeedCorpusMatchesReference) {
  for (const std::string& text : seed_corpus()) {
    check_reader(text);
    const Outcome got =
        outcome_of([&] { return io::read_layout_string(text); });
    EXPECT_EQ(got.kind, Outcome::Kind::kLayout) << got.what;
  }
}

TEST(LayoutReaderFuzz, MutatedCorpusMatchesReference) {
  const std::vector<std::string> corpus = seed_corpus();
  Mutator m(0x1a7e0d3c0de5eedull);
  const int iters = test::fuzz_iters(2000);
  for (int i = 0; i < iters && !HasFailure(); ++i) {
    check_reader(m.mutate(corpus[m.below(corpus.size())]));
  }
}

TEST(LayoutReaderFuzz, StreamEntryPointMatchesStringEntryPoint) {
  const std::vector<std::string> corpus = seed_corpus();
  Mutator m(0x57e4a11ull);
  const int iters = test::fuzz_iters(2000) / 10;
  for (int i = 0; i < iters && !HasFailure(); ++i) {
    const std::string input = m.mutate(corpus[m.below(corpus.size())]);
    const Outcome got = outcome_of([&] {
      std::istringstream is(input);
      return io::read_layout(is);
    });
    const Outcome want = outcome_of([&] {
      std::istringstream is(input);
      return test::reference_read_layout(is);
    });
    expect_same(got, want, input);
  }
}

/// A stream buffer that serves its text, then fails like a broken device.
class FailingBuf : public std::streambuf {
 public:
  FailingBuf(std::string text, std::size_t fail_at)
      : text_(std::move(text)), fail_at_(fail_at) {}

 protected:
  int_type underflow() override {
    if (pos_ >= fail_at_) throw std::runtime_error("device error");
    if (pos_ >= text_.size()) return traits_type::eof();
    return traits_type::to_int_type(text_[pos_]);
  }
  int_type uflow() override {
    const int_type c = underflow();
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++pos_;
    return c;
  }

 private:
  std::string text_;
  std::size_t fail_at_;
  std::size_t pos_ = 0;
};

TEST(LayoutReaderFuzz, StreamFailureMatchesReference) {
  const std::string text = seed_corpus().front();
  for (std::size_t fail_at = 0; fail_at <= text.size() + 1; fail_at += 7) {
    const Outcome got = outcome_of([&] {
      FailingBuf buf(text, fail_at);
      std::istream is(&buf);
      return io::read_layout(is);
    });
    const Outcome want = outcome_of([&] {
      FailingBuf buf(text, fail_at);
      std::istream is(&buf);
      return test::reference_read_layout(is);
    });
    expect_same(got, want, text.substr(0, fail_at));
    if (fail_at < text.size()) {
      EXPECT_NE(got.what.find("I/O error"), std::string::npos) << fail_at;
    }
    if (HasFailure()) break;
  }
}

// ------------------------------------------------------------ frame parser

using Event = serve::FrameParser::Event;

bool same_events(const std::vector<Event>& a, const std::vector<Event>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].line != b[i].line ||
        a[i].body != b[i].body || a[i].error != b[i].error) {
      return false;
    }
  }
  return true;
}

/// Everything a framer reports for one stream cut at \p cuts (ascending).
struct Framed {
  std::vector<Event> events;
  bool alive = true;  ///< the last feed's return
  std::vector<Event> eof_events;
  bool eof_clean = true;
};

Framed frame(const std::string& bytes, const std::vector<std::size_t>& cuts,
             const serve::FrameParserOptions& opts) {
  serve::FrameParser p(opts);
  Framed f;
  std::size_t prev = 0;
  for (std::size_t k = 0; k <= cuts.size(); ++k) {
    const std::size_t cut = k < cuts.size() ? cuts[k] : bytes.size();
    f.alive = p.feed(bytes.data() + prev, cut - prev, f.events);
    prev = cut;
  }
  f.eof_clean = p.finish_eof(f.eof_events);
  return f;
}

/// A random protocol stream: commands, blank and CRLF lines, well-framed,
/// oversize and unframeable LOADs, overlong lines, raw bytes.
std::string random_stream(Mutator& m, const serve::FrameParserOptions& opts) {
  std::string s;
  const std::size_t pieces = 1 + m.below(12);
  // Bodies stay small under the default 64 MiB limit.
  const std::size_t cap = std::min<std::size_t>(opts.max_load, 64);
  const auto random_bytes = [&](std::size_t n) {
    std::string out;
    for (std::size_t i = 0; i < n; ++i) {
      out += static_cast<char>(m.below(4) == 0 ? '\n' : m.below(256));
    }
    return out;
  };
  for (std::size_t i = 0; i < pieces; ++i) {
    switch (m.below(11)) {
      case 0:
        s += "ROUTE k" + std::to_string(m.below(100)) + " threads=1\n";
        break;
      case 1:
        s += m.below(2) == 0 ? "STATS\r\n" : "QUIT\n";
        break;
      case 2:
        s += m.below(2) == 0 ? "\n" : " \t\r\n";
        break;
      case 3: {  // well-framed LOAD, body may hold newlines and LOADs
        const std::size_t n = m.below(cap + 1);
        std::string body = random_bytes(n);
        if (n >= 7 && m.below(2) == 0) body.replace(0, 7, "LOAD 9\n");
        s += "LOAD " + std::to_string(n) + (m.below(3) == 0 ? "\r\n" : "\n");
        s += body;
        break;
      }
      case 4: {  // oversize LOAD, its declared body follows
        const std::size_t n = opts.max_load + 1 + m.below(8);
        s += "LOAD " + std::to_string(n) + "\n" +
             random_bytes(std::min<std::size_t>(n, 64 + m.below(8)));
        break;
      }
      case 5: {  // unframeable count: fatal
        static const char* const kBad[] = {"LOAD\n", "LOAD abc\n",
                                           "LOAD 99999999999999999999\n",
                                           "LOAD -1\n", "LOAD 1 2\n"};
        s += kBad[m.below(std::size(kBad))];
        break;
      }
      case 6: {  // overlong line, with or without its LF
        s += std::string(opts.max_line + m.below(opts.max_line), 'L');
        if (m.below(3) != 0) s += '\n';
        break;
      }
      case 7:  // a line exactly at the limit
        s += std::string(opts.max_line, 'E') + "\n";
        break;
      case 8:  // truncated LOAD body
        s += "LOAD " + std::to_string(cap) + "\n" + random_bytes(m.below(cap));
        break;
      case 9:
        s += random_bytes(m.below(24));
        break;
      default:  // command without its LF
        s += "STATS";
        break;
    }
  }
  return s;
}

TEST(FrameParserFuzz, EverySplitYieldsTheSameEvents) {
  Mutator m(0xf4a3e5ull);
  const int iters = test::fuzz_iters(2000);
  for (int i = 0; i < iters && !HasFailure(); ++i) {
    serve::FrameParserOptions opts;
    if (m.below(8) != 0) {  // small limits reach every hardening state
      opts.max_line = 8 + m.below(24);
      opts.max_load = m.below(48);
    }
    const std::string bytes = random_stream(m, opts);
    const Framed whole = frame(bytes, {}, opts);

    std::vector<std::size_t> every(bytes.size());
    for (std::size_t k = 0; k < every.size(); ++k) every[k] = k;
    std::vector<std::size_t> some;
    for (std::size_t k = 0; k < bytes.size(); ++k) {
      if (m.below(4) == 0) some.push_back(k);
    }
    for (const std::vector<std::size_t>* cuts : {&every, &some}) {
      const Framed split = frame(bytes, *cuts, opts);
      ASSERT_TRUE(same_events(split.events, whole.events))
          << "split into " << cuts->size() + 1 << " feeds\n"
          << show(bytes);
      ASSERT_EQ(split.alive, whole.alive) << show(bytes);
      ASSERT_TRUE(same_events(split.eof_events, whole.eof_events))
          << show(bytes);
      ASSERT_EQ(split.eof_clean, whole.eof_clean) << show(bytes);
    }
  }
}

// ------------------------------------------------------------- verb table

/// A well-formed line for every verb-table row: its keyword, its
/// positional words and every knob with an in-range value.
std::vector<std::string> verb_corpus() {
  std::vector<std::string> out;
  for (const serve::VerbSpec& v : serve::verb_table()) {
    std::string line = v.name;
    for (std::size_t a = 0; a < v.min_args; ++a) {
      if (v.kind == serve::CommandKind::kLoad) {
        line += " 12";
      } else if (v.kind == serve::CommandKind::kGen) {
        line += " standard";
      } else {
        line += " k" + std::to_string(a) + "f00d";
      }
    }
    for (const serve::KnobSpec& k : v.knobs) {
      if (k.reject_msg != nullptr) continue;
      std::string value;
      switch (k.type) {
        case serve::KnobType::kCount:
          value = std::to_string(k.lo + 1 <= k.hi ? k.lo + 1 : k.lo);
          break;
        case serve::KnobType::kDuration: value = "250"; break;
        case serve::KnobType::kBool: value = "1"; break;
        case serve::KnobType::kMode: value = "sequential"; break;
        case serve::KnobType::kScale: value = "1.5"; break;
        case serve::KnobType::kNets: value = "n1,n2"; break;
      }
      line += " " + std::string(k.key) + "=" + value;
    }
    out.push_back(line);
  }
  // Shapes the row-derived lines miss: knob edge values and separators.
  for (const char* extra :
       {"ROUTE k mode=independent threads=0 deadline_ms=86400000",
        "ROUTE\tk\tnets=a", "  STATS  ", "TRACE n=256", "SVG k scale=64",
        "SVG k scale=0.0625", "GEN padring seed=18446744073709551615 pads=256",
        "OPTIMIZE k passes=1024 budget_ms=0", "LOAD 0", "HELLO", "QUIT"}) {
    out.push_back(extra);
  }
  return out;
}

/// Asserts \p reason renders as one printable ERR line with the reason
/// clamped to 256 bytes (plus "..." when cut).
void expect_clean_err_frame(const std::string& reason,
                            const std::string& line) {
  constexpr std::size_t kMaxReason = 256;
  const std::string frame = serve::format_err(reason);
  ASSERT_EQ(frame.rfind("ERR ", 0), 0u) << show(line);
  ASSERT_EQ(frame.find('\n'), frame.size() - 1) << show(line);
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    const auto c = static_cast<unsigned char>(frame[i]);
    ASSERT_TRUE(c >= 0x20 && c < 0x7f) << "byte " << i << "\n" << show(line);
  }
  const bool cut = reason.size() > kMaxReason;
  EXPECT_EQ(frame.size(), 4 + std::min(reason.size(), kMaxReason) +
                              (cut ? 3 : 0) + 1)
      << show(line);
}

/// Runs \p parse on one input: it may return or throw std::runtime_error,
/// whose message must make a clean ERR frame; anything else fails.
template <typename Parse>
void expect_parse_contained(Parse&& parse, const std::string& line) {
  try {
    (void)parse();
  } catch (const std::runtime_error& e) {
    expect_clean_err_frame(e.what(), line);
  } catch (const std::exception& e) {
    FAIL() << "leaked a non-runtime_error: " << e.what() << "\n" << show(line);
  } catch (...) {
    FAIL() << "leaked a non-std exception\n" << show(line);
  }
}

/// One command line through classify_command and every parse_* function
/// (each one, not just the one its keyword names: a mis-routed argument
/// vector must fail as cleanly as a malformed one).
void check_command(const std::string& line) {
  serve::ClassifiedCommand cmd;
  expect_parse_contained([&] { return cmd = serve::classify_command(line); },
                         line);
  const std::string& args = cmd.args;
  expect_parse_contained([&] { return serve::parse_route_command(args); },
                         line);
  expect_parse_contained([&] { return serve::parse_reroute_command(args); },
                         line);
  expect_parse_contained([&] { return serve::parse_optimize_command(args); },
                         line);
  for (const serve::CommandKind kind :
       {serve::CommandKind::kDetail, serve::CommandKind::kCongest,
        serve::CommandKind::kVerify, serve::CommandKind::kSvg}) {
    expect_parse_contained(
        [&] { return serve::parse_stage_command(kind, args); }, line);
  }
  expect_parse_contained([&] { return serve::parse_gen_command(args); }, line);
  for (const serve::CommandKind kind :
       {serve::CommandKind::kPin, serve::CommandKind::kUnpin,
        serve::CommandKind::kCommit, serve::CommandKind::kUncommit,
        serve::CommandKind::kSave}) {
    expect_parse_contained(
        [&] { return serve::parse_pin_command(kind, args); }, line);
  }
  expect_parse_contained([&] { return serve::parse_trace_count(args); },
                         line);
  expect_parse_contained([&] { return serve::parse_load_count(line); }, line);
  // The keyword echo of an unknown-command ERR, and a reason carrying the
  // raw line, must be as clean as a parser's message.
  expect_clean_err_frame("unknown command '" + cmd.keyword + "'", line);
  expect_clean_err_frame(line, line);
}

TEST(VerbTableFuzz, CorpusParsesUnderItsOwnVerb) {
  for (const std::string& line : verb_corpus()) {
    const serve::ClassifiedCommand cmd = serve::classify_command(line);
    ASSERT_NE(cmd.kind, serve::CommandKind::kUnknown) << line;
    try {
      switch (cmd.kind) {
        case serve::CommandKind::kRoute:
          (void)serve::parse_route_command(cmd.args);
          break;
        case serve::CommandKind::kReroute:
          (void)serve::parse_reroute_command(cmd.args);
          break;
        case serve::CommandKind::kOptimize:
          (void)serve::parse_optimize_command(cmd.args);
          break;
        case serve::CommandKind::kDetail:
        case serve::CommandKind::kCongest:
        case serve::CommandKind::kVerify:
        case serve::CommandKind::kSvg:
          (void)serve::parse_stage_command(cmd.kind, cmd.args);
          break;
        case serve::CommandKind::kGen:
          (void)serve::parse_gen_command(cmd.args);
          break;
        case serve::CommandKind::kPin:
        case serve::CommandKind::kUnpin:
        case serve::CommandKind::kCommit:
        case serve::CommandKind::kUncommit:
        case serve::CommandKind::kSave:
          (void)serve::parse_pin_command(cmd.kind, cmd.args);
          break;
        case serve::CommandKind::kTrace:
          (void)serve::parse_trace_count(cmd.args);
          break;
        case serve::CommandKind::kLoad:
          (void)serve::parse_load_count(line);
          break;
        default:
          break;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << line << ": " << e.what();
    }
  }
}

TEST(VerbTableFuzz, MutatedCommandsFailCleanly) {
  const std::vector<std::string> corpus = verb_corpus();
  Mutator m(0x7e5b7ab1eull);
  const int iters = test::fuzz_iters(2000);
  for (int i = 0; i < iters && !HasFailure(); ++i) {
    check_command(m.mutate(corpus[m.below(corpus.size())]));
  }
}

// ------------------------------------------------------------ polygon check

using geom::Coord;
using geom::Point;

/// A skyline: columns of distinct heights standing on y = 0, one per
/// x-interval [xs[i], xs[i+1]].  Always a valid orthogonal polygon with
/// 2 * columns + 2 vertices.
std::vector<Point> skyline(const std::vector<Coord>& xs,
                           const std::vector<Coord>& heights) {
  std::vector<Point> v{{xs.front(), 0}, {xs.front(), heights.front()}};
  for (std::size_t i = 1; i < heights.size(); ++i) {
    v.push_back({xs[i], heights[i - 1]});
    v.push_back({xs[i], heights[i]});
  }
  v.push_back({xs.back(), heights.back()});
  v.push_back({xs.back(), 0});
  return v;
}

/// One random polygon.  Kinds: an alternating walk over a small coordinate
/// range (mostly invalid: crossings, touches, repeated vertices, zero-length
/// edges); a skyline (valid); a skyline with one edge shifted across its
/// neighbours (touching and overlapping collinear edges).
std::vector<Point> random_polygon(std::mt19937_64& rng) {
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(workload::bounded_u64(rng, n));
  };
  const std::size_t kind = below(3);
  if (kind == 0) {
    const std::size_t k = 2 + below(6);
    std::vector<Coord> xs(k), ys(k);
    for (Coord& x : xs) x = static_cast<Coord>(below(6));
    for (Coord& y : ys) y = static_cast<Coord>(below(6));
    std::vector<Point> v;
    for (std::size_t i = 0; i < k; ++i) {
      v.push_back({xs[i], ys[i]});
      v.push_back({xs[(i + 1) % k], ys[i]});
    }
    return v;
  }
  const std::size_t columns = 1 + below(8);
  std::vector<Coord> xs{static_cast<Coord>(below(3))};
  for (std::size_t i = 0; i < columns; ++i) {
    xs.push_back(xs.back() + 1 + static_cast<Coord>(below(3)));
  }
  std::vector<Coord> heights;
  for (std::size_t i = 0; i < columns; ++i) {
    Coord h = 1 + static_cast<Coord>(below(6));
    if (!heights.empty() && h == heights.back()) h += 1;
    heights.push_back(h);
  }
  std::vector<Point> v = skyline(xs, heights);
  if (kind == 2) {
    // Shift edge (i, i+1) along its normal; both endpoints move together,
    // so the edges still alternate.
    const std::size_t i = below(v.size());
    const std::size_t j = (i + 1) % v.size();
    const Coord by = static_cast<Coord>(below(7)) - 3;
    if (v[i].x == v[j].x) {
      v[i].x += by;
      v[j].x += by;
    } else {
      v[i].y += by;
      v[j].y += by;
    }
  }
  return v;
}

TEST(PolygonValidityFuzz, SweepMatchesPairwiseOracle) {
  std::mt19937_64 rng(0x9017e5ull);
  const int iters = test::fuzz_iters(2000) * 4;
  int valid = 0, invalid = 0;
  for (int i = 0; i < iters; ++i) {
    const geom::OrthoPolygon poly(random_polygon(rng));
    const bool want = test::reference_valid(poly);
    ASSERT_EQ(poly.valid(), want) << poly;
    (want ? valid : invalid) += 1;
  }
  // Both verdicts are well represented.
  EXPECT_GT(valid, iters / 10);
  EXPECT_GT(invalid, iters / 10);
}

TEST(PolygonValidityFuzz, HugePolygonsGetTheOraclesVerdict) {
  // 10 000 columns: 20 002 vertices, a sawtooth of alternating heights.
  constexpr std::size_t kColumns = 10'000;
  std::vector<Coord> xs, heights;
  for (std::size_t i = 0; i <= kColumns; ++i) {
    xs.push_back(static_cast<Coord>(2 * i));
  }
  for (std::size_t i = 0; i < kColumns; ++i) {
    heights.push_back(i % 2 == 0 ? 10 : 20);
  }
  std::vector<Point> v = skyline(xs, heights);
  ASSERT_GE(v.size(), 20'000u);
  const geom::OrthoPolygon good(v);
  EXPECT_TRUE(good.valid());
  EXPECT_EQ(good.valid(), test::reference_valid(good));

  // Drop a low column's top edge, halfway along, onto y = 0: it overlaps the
  // closing bottom edge, its sides touch it, and the LOAD reader rejects it.
  constexpr std::size_t kDrop = kColumns / 2;
  v[2 * kDrop + 1].y = 0;
  v[2 * kDrop + 2].y = 0;
  const geom::OrthoPolygon bad(v);
  EXPECT_FALSE(bad.valid());
  EXPECT_EQ(bad.valid(), test::reference_valid(bad));
  std::string text = "boundary 0 0 30000 30\npoly huge";
  for (const Point& p : v) {
    text += " " + std::to_string(p.x) + " " + std::to_string(p.y);
  }
  text += "\n";
  EXPECT_THROW((void)io::read_layout_string(text), io::ParseError);
}

}  // namespace
