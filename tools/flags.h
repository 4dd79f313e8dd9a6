// Command-line flags for the p2prange tools: `--name=value` matching
// and strict numbers.
//
// A number is accepted only when the whole value parses as the flag's
// type: an empty value, non-numeric text, trailing characters, a sign
// on an unsigned flag, a value out of the type's range, and a
// non-finite double are all rejected. A typo must stop the tool, never
// turn silently into 0 or wrap around to a huge count.
#ifndef P2PRANGE_TOOLS_FLAGS_H_
#define P2PRANGE_TOOLS_FLAGS_H_

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace p2prange {
namespace tools {

/// \brief True when `arg` is `--name=...`; the text after '=' goes to
/// `*out`.
inline bool ParseFlag(std::string_view arg, std::string_view name,
                      std::string* out) {
  const std::string prefix = "--" + std::string(name) + "=";
  if (arg.substr(0, prefix.size()) != prefix) return false;
  out->assign(arg.substr(prefix.size()));
  return true;
}

/// \brief Parses all of `text` as a T; `*out` is left untouched when it
/// does not parse (see the file comment).
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  static_assert(std::is_arithmetic_v<T>, "numbers only");
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

/// \brief A numeric `--name=value`: false when `arg` is another flag;
/// otherwise parses the value into `*out`, or sets `*malformed` when it
/// does not parse.
template <typename T>
bool ParseNumberFlag(std::string_view arg, std::string_view name, T* out,
                     bool* malformed) {
  std::string value;
  if (!ParseFlag(arg, name, &value)) return false;
  if (!ParseNumber(value, out)) *malformed = true;
  return true;
}

}  // namespace tools
}  // namespace p2prange

#endif  // P2PRANGE_TOOLS_FLAGS_H_
