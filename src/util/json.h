// The one JSON string codec of the line formats (the run journal and the
// metrics JSONL): escaping for ", \, and control characters, so every
// record stays one line. Only single-byte \u escapes are produced or
// accepted.

#ifndef IPDA_UTIL_JSON_H_
#define IPDA_UTIL_JSON_H_

#include <string>
#include <string_view>

#include "util/result.h"

namespace ipda::util {

// The contents of a JSON string literal for `s`, without the quotes.
std::string JsonEscape(std::string_view s);

// Inverse of JsonEscape; InvalidArgument on a dangling, unknown or
// malformed escape.
Result<std::string> JsonUnescape(std::string_view s);

}  // namespace ipda::util

#endif  // IPDA_UTIL_JSON_H_
