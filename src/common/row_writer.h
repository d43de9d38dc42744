// Delimited text rows formatted into a caller's char buffer.
//
// The dataset and spill writers format every row field by field with
// std::to_chars into a stack buffer: no std::string temporaries, no
// locale, no printf format parsing. Every append checks that the buffer
// has room, so a buffer sized too small fails a contract check instead of
// overrunning.

#ifndef CELLREL_COMMON_ROW_WRITER_H
#define CELLREL_COMMON_ROW_WRITER_H

#include <algorithm>
#include <charconv>
#include <span>
#include <string_view>
#include <system_error>

#include "common/check.h"

namespace cellrel {

class RowWriter {
 public:
  explicit RowWriter(std::span<char> buffer)
      : begin_(buffer.data()), pos_(buffer.data()), end_(buffer.data() + buffer.size()) {}

  RowWriter& put(char c) {
    CELLREL_CHECK(pos_ != end_) << "row buffer full";
    *pos_++ = c;
    return *this;
  }

  RowWriter& text(std::string_view s) {
    CELLREL_CHECK(s.size() <= static_cast<std::size_t>(end_ - pos_)) << "row buffer full";
    pos_ = std::copy(s.begin(), s.end(), pos_);
    return *this;
  }

  /// A decimal integer (the text of "%d" / "%u" / "%llu").
  template <typename T>
  RowWriter& integer(T value) {
    return advance(std::to_chars(pos_, end_, value));
  }

  /// A decimal integer zero-padded on the left to at least `width` digits
  /// (the text of "%0<width>u").
  RowWriter& padded(unsigned value, int width) {
    char digits[16];
    const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), value);
    for (auto n = end - digits; n < width; ++n) put('0');
    return text({digits, static_cast<std::size_t>(end - digits)});
  }

  /// `value` with exactly three decimals: the text of "%.3f".
  RowWriter& fixed3(double value) {
    return advance(std::to_chars(pos_, end_, value, std::chars_format::fixed, 3));
  }

  std::size_t size() const { return static_cast<std::size_t>(pos_ - begin_); }
  std::string_view view() const { return {begin_, size()}; }

 private:
  RowWriter& advance(std::to_chars_result r) {
    CELLREL_CHECK(r.ec == std::errc{}) << "row buffer full";
    pos_ = r.ptr;
    return *this;
  }

  char* begin_;
  char* pos_;
  char* end_;
};

}  // namespace cellrel

#endif  // CELLREL_COMMON_ROW_WRITER_H
