#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "layout/layout.hpp"

/// \file text_format.hpp
/// A small line-oriented interchange format for routing problems, so that
/// examples and tests can ship human-readable fixtures.
///
/// ```text
/// # comment
/// boundary 0 0 1024 1024
/// minsep 8
/// cell alu 100 100 300 260
/// poly rom 400 100 500 100 500 200 450 200 450 150 400 150
/// term alu a 100 120            # one pin
/// term alu clk 100 200 300 200  # multi-pin terminal (two pins)
/// pad vdd 0 512
/// net n1 alu.a rom.t0 pad.vdd
/// ```
/// Cell terminals are referenced `cell.term`, pads `pad.name`.
///
/// Token grammar, exactly:
///   - Lines end at LF; a CR before it is whitespace like any other.
///   - Tokens are separated by runs of the C locale's whitespace: space,
///     `\t`, `\n`, `\v`, `\f`, `\r`.  Every other byte, NUL and bytes
///     >= 0x80 included, is token text.
///   - A token that *starts* with `#` opens a comment to the end of the
///     line; a `#` inside a token is ordinary text.
///   - An integer is an optional `+` or `-` followed by one or more decimal
///     digits, nothing else, and must fit in 64 bits (`0x10`, `1e3`, `+-5`
///     and `5,` are errors).
///   - Names are any tokens; a net ref splits at its first `.`, and an
///     owner of exactly `pad` names a pad.
///   - Extra tokens after a fixed-arity directive (`boundary`, `minsep`,
///     `cell`) are ignored; `poly`, `term` and `pad` take coordinate pairs.
///   - Cell, pad and per-cell terminal names must be unique.
///
/// Coordinate bound: the reader accepts any 64-bit integer, but
/// `layout::Layout::validate()` rejects (`coordinate-out-of-range`) a layout
/// with any coordinate or the minimum separation beyond
/// `layout::kMaxCoordinate` (2^31 - 1) in magnitude, so the router's cost
/// arithmetic (lengths times `route::kCostScale`, summed along a path)
/// cannot overflow.  The serving layer's LOAD runs validate(), so such a
/// layout is answered with ERR.

namespace gcr::io {

class ParseError : public std::runtime_error {
 public:
  ParseError(std::size_t line, const std::string& what)
      : std::runtime_error("line " + std::to_string(line) + ": " + what),
        line_(line) {}
  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_;
};

/// Parses a layout from the text format in one pass over the buffer.
/// Throws ParseError on malformed input (unknown directive, bad arity,
/// dangling reference, duplicate name); the layout is not validated.
[[nodiscard]] layout::Layout read_layout_string(std::string_view text);
/// Reads the whole stream, then parses it like read_layout_string; a stream
/// that goes bad() mid-read is a ParseError.
[[nodiscard]] layout::Layout read_layout(std::istream& in);

/// Serializes a layout; read_layout(write_layout(x)) reproduces x.
void write_layout(std::ostream& out, const layout::Layout& lay);
[[nodiscard]] std::string write_layout_string(const layout::Layout& lay);

}  // namespace gcr::io
