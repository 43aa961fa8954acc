#include "util/json.h"

#include <charconv>
#include <cstdio>

namespace ipda::util {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          out += c;
        } else {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        }
    }
  }
  return out;
}

Result<std::string> JsonUnescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (++i == s.size()) {
      return InvalidArgumentError("dangling escape in JSON string");
    }
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        // Exactly four hex digits naming one byte.
        const char* hex = s.data() + i + 1;
        unsigned value = 0;
        if (s.size() - i <= 4 ||
            std::from_chars(hex, hex + 4, value, 16).ptr != hex + 4 ||
            value > 0xFF) {
          return InvalidArgumentError("bad \\u escape in JSON string");
        }
        out += static_cast<char>(value);
        i += 4;
        break;
      }
      default:
        return InvalidArgumentError("unknown escape in JSON string");
    }
  }
  return out;
}

}  // namespace ipda::util
