#include "util/flags.h"

#include <cmath>
#include <cstdlib>

#include "util/check.h"

namespace ipda::util {
namespace {

std::string TypeName(int type) {
  switch (type) {
    case 0:
      return "string";
    case 1:
      return "int";
    case 2:
      return "double";
    case 3:
      return "bool";
  }
  return "?";
}

}  // namespace

Result<uint64_t> ParseCount(const std::string& what, const std::string& text,
                            uint64_t max) {
  uint64_t value = 0;
  bool overflow = false;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return InvalidArgumentError(what + " expects a non-negative integer, "
                                  "got '" + text + "'");
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    overflow = overflow || value > (UINT64_MAX - digit) / 10;
    value = value * 10 + digit;
  }
  if (text.empty()) {
    return InvalidArgumentError(what + " expects a non-negative integer, "
                                "got ''");
  }
  if (overflow || value > max) {
    return InvalidArgumentError(what + " must be at most " +
                                std::to_string(max) + ", got '" + text + "'");
  }
  return value;
}

void FlagSet::DefineString(const std::string& name, const std::string& def,
                           const std::string& help) {
  IPDA_CHECK(flags_.emplace(name, Flag{Type::kString, help, def, def}).second);
  order_.push_back(name);
}

void FlagSet::DefineInt(const std::string& name, int64_t def,
                        const std::string& help) {
  IPDA_CHECK(flags_
                 .emplace(name, Flag{Type::kInt, help,
                                     std::to_string(def),
                                     std::to_string(def)})
                 .second);
  order_.push_back(name);
}

void FlagSet::DefineDouble(const std::string& name, double def,
                           const std::string& help) {
  IPDA_CHECK(flags_
                 .emplace(name, Flag{Type::kDouble, help,
                                     std::to_string(def),
                                     std::to_string(def)})
                 .second);
  order_.push_back(name);
}

void FlagSet::DefineBool(const std::string& name, bool def,
                         const std::string& help) {
  IPDA_CHECK(flags_
                 .emplace(name, Flag{Type::kBool, help,
                                     def ? "true" : "false",
                                     def ? "true" : "false"})
                 .second);
  order_.push_back(name);
}

Status FlagSet::SetValue(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return InvalidArgumentError("unknown flag --" + name);
  }
  Flag& flag = it->second;
  if (flag.set) {
    // A repeated flag is almost always a copy-paste slip; last-one-wins
    // would silently discard half the command line.
    return InvalidArgumentError("duplicate flag --" + name +
                                " (already set to '" + flag.value + "')");
  }
  char* end = nullptr;
  switch (flag.type) {
    case Type::kString:
      break;
    case Type::kInt: {
      (void)std::strtoll(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        return InvalidArgumentError("flag --" + name +
                                    " expects an integer, got '" + value +
                                    "'");
      }
      break;
    }
    case Type::kDouble: {
      (void)std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') {
        return InvalidArgumentError("flag --" + name +
                                    " expects a number, got '" + value +
                                    "'");
      }
      break;
    }
    case Type::kBool: {
      if (value != "true" && value != "false" && value != "1" &&
          value != "0") {
        return InvalidArgumentError("flag --" + name +
                                    " expects true/false, got '" + value +
                                    "'");
      }
      break;
    }
  }
  flag.value = value;
  flag.set = true;
  return OkStatus();
}

Status FlagSet::Parse(int argc, const char* const* argv) {
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return InvalidArgumentError("unexpected positional argument '" + arg +
                                  "'");
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      IPDA_RETURN_IF_ERROR(SetValue(arg.substr(0, eq), arg.substr(eq + 1)));
      continue;
    }
    // --flag / --no-flag for bools; --key value otherwise.
    auto it = flags_.find(arg);
    if (it != flags_.end() && it->second.type == Type::kBool) {
      IPDA_RETURN_IF_ERROR(SetValue(arg, "true"));
      continue;
    }
    if (arg.rfind("no-", 0) == 0) {
      auto neg = flags_.find(arg.substr(3));
      if (neg != flags_.end() && neg->second.type == Type::kBool) {
        IPDA_RETURN_IF_ERROR(SetValue(arg.substr(3), "false"));
        continue;
      }
    }
    if (it == flags_.end()) {
      return InvalidArgumentError("unknown flag --" + arg);
    }
    if (i + 1 >= argc) {
      return InvalidArgumentError("flag --" + arg + " is missing a value");
    }
    IPDA_RETURN_IF_ERROR(SetValue(arg, argv[++i]));
  }
  return OkStatus();
}

const FlagSet::Flag& FlagSet::Require(const std::string& name,
                                      Type type) const {
  auto it = flags_.find(name);
  IPDA_CHECK(it != flags_.end());
  IPDA_CHECK(it->second.type == type);
  return it->second;
}

std::string FlagSet::GetString(const std::string& name) const {
  return Require(name, Type::kString).value;
}

int64_t FlagSet::GetInt(const std::string& name) const {
  return std::strtoll(Require(name, Type::kInt).value.c_str(), nullptr, 10);
}

Result<uint64_t> FlagSet::GetCount(const std::string& name,
                                   uint64_t max) const {
  return ParseCount("--" + name, Require(name, Type::kInt).value, max);
}

double FlagSet::GetDouble(const std::string& name) const {
  return std::strtod(Require(name, Type::kDouble).value.c_str(), nullptr);
}

Result<double> FlagSet::GetFinite(const std::string& name,
                                  bool positive) const {
  const std::string& text = Require(name, Type::kDouble).value;
  const double value = std::strtod(text.c_str(), nullptr);
  if (!std::isfinite(value) || value < 0.0 || (positive && value == 0.0)) {
    return InvalidArgumentError("--" + name + " expects a finite number " +
                                (positive ? "> 0" : ">= 0") + ", got '" +
                                text + "'");
  }
  return value;
}

bool FlagSet::GetBool(const std::string& name) const {
  const std::string& v = Require(name, Type::kBool).value;
  return v == "true" || v == "1";
}

bool FlagSet::WasSet(const std::string& name) const {
  auto it = flags_.find(name);
  IPDA_CHECK(it != flags_.end());
  return it->second.set;
}

std::string FlagSet::Canonical(
    const std::vector<std::string>& exclude) const {
  std::string out;
  for (const std::string& name : order_) {
    bool skip = false;
    for (const std::string& excluded : exclude) {
      if (name == excluded) {
        skip = true;
        break;
      }
    }
    if (skip) continue;
    if (!out.empty()) out += ',';
    out += name + "=" + flags_.at(name).value;
  }
  return out;
}

std::string FlagSet::Usage(const std::string& program) const {
  std::string out = "usage: " + program + " [flags]\n";
  for (const std::string& name : order_) {
    const Flag& flag = flags_.at(name);
    out += "  --" + name + " (" + TypeName(static_cast<int>(flag.type)) +
           ", default " + flag.default_value + "): " + flag.help + "\n";
  }
  return out;
}

}  // namespace ipda::util
