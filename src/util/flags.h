// Minimal --key=value command-line parsing for the tools and examples.
//
// Supported forms: --key=value, --key value, --flag (bool true),
// --no-flag (bool false). Unknown keys are an error so typos don't
// silently fall back to defaults, and a flag repeated on one command
// line is an error so last-one-wins never hides half the invocation.

#ifndef IPDA_UTIL_FLAGS_H_
#define IPDA_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace ipda::util {

// Parses a decimal count in [0, max]. Digits only: a sign, blanks,
// trailing junk, an empty string or overflow are InvalidArgument. `what`
// names the source in the message (a flag or an environment variable).
Result<uint64_t> ParseCount(const std::string& what, const std::string& text,
                            uint64_t max = UINT64_MAX);

class FlagSet {
 public:
  FlagSet() = default;

  // Declares a flag with its default and help text. Call before Parse.
  void DefineString(const std::string& name, const std::string& def,
                    const std::string& help);
  void DefineInt(const std::string& name, int64_t def,
                 const std::string& help);
  void DefineDouble(const std::string& name, double def,
                    const std::string& help);
  void DefineBool(const std::string& name, bool def,
                  const std::string& help);

  // Parses argv (excluding argv[0]). Returns an error for unknown flags,
  // malformed values, or missing values.
  Status Parse(int argc, const char* const* argv);

  // Typed access; aborts on undeclared names (programming error).
  std::string GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  // An int flag read as an unsigned count: InvalidArgument (naming the
  // flag) when the value is negative or above `max`, instead of a cast
  // that wraps -1 to a huge count.
  Result<uint64_t> GetCount(const std::string& name,
                            uint64_t max = UINT64_MAX) const;
  double GetDouble(const std::string& name) const;
  // A double flag read as a finite quantity >= 0 (> 0 when `positive`):
  // InvalidArgument (naming the flag) for NaN, an infinity or a value
  // out of range, so a bad value fails at parse time instead of tripping
  // a CHECK inside a run or switching a guard off.
  Result<double> GetFinite(const std::string& name,
                           bool positive = false) const;
  bool GetBool(const std::string& name) const;

  // True if the flag was explicitly set on the command line.
  bool WasSet(const std::string& name) const;

  // Canonical "name=value,..." string of every flag (current values, in
  // declaration order), minus the names in `exclude`. Sweep tools hash
  // this into their run journal header so a --resume against a journal
  // written under different settings is rejected instead of silently
  // mixing configurations.
  std::string Canonical(const std::vector<std::string>& exclude = {}) const;

  // Usage text listing every declared flag with default and help.
  std::string Usage(const std::string& program) const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct Flag {
    Type type;
    std::string help;
    std::string value;          // Current value, canonical string form.
    std::string default_value;  // As declared; shown in Usage().
    bool set = false;
  };

  Status SetValue(const std::string& name, const std::string& value);
  const Flag& Require(const std::string& name, Type type) const;

  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace ipda::util

#endif  // IPDA_UTIL_FLAGS_H_
