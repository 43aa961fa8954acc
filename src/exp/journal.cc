#include "exp/journal.h"

#include <cctype>
#include <cstdio>
#include <mutex>
#include <utility>

#include "util/check.h"
#include "util/json.h"

namespace ipda::exp {
namespace {

// FNV-1a, same construction as util::HashLabel but over arbitrary bytes.
uint64_t Fnv1a(std::string_view bytes, uint64_t hash = 0xCBF29CE484222325ull) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

// --- Line scanning -----------------------------------------------------
//
// The journal grammar is a closed set of single-line JSON objects that
// this file both writes and reads, so parsing is substring scanning, not
// a general JSON parser. Two properties make that sound: numeric keys
// like "index": can never appear inside a string value because JsonEscape
// turns every '"' into '\"', and the one free-form string field of each
// record type (payload / reason / experiment) is written LAST, so its
// value is simply "everything up to the closing quote-brace".

std::string KeyNeedle(std::string_view key, bool string_value) {
  std::string needle;
  needle.reserve(key.size() + 4);
  needle += '"';
  needle += key;
  needle += string_value ? "\":\"" : "\":";
  return needle;
}

bool FindUintField(std::string_view line, std::string_view key,
                   uint64_t* out) {
  const std::string needle = KeyNeedle(key, /*string_value=*/false);
  const size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return false;
  size_t i = pos + needle.size();
  if (i >= line.size() || !std::isdigit(static_cast<unsigned char>(line[i]))) {
    return false;
  }
  uint64_t value = 0;
  while (i < line.size() && std::isdigit(static_cast<unsigned char>(line[i]))) {
    value = value * 10 + static_cast<uint64_t>(line[i] - '0');
    ++i;
  }
  *out = value;
  return true;
}

bool FindBoolField(std::string_view line, std::string_view key, bool* out) {
  const std::string needle = KeyNeedle(key, /*string_value=*/false);
  const size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return false;
  const std::string_view rest = line.substr(pos + needle.size());
  if (rest.rfind("true", 0) == 0) {
    *out = true;
    return true;
  }
  if (rest.rfind("false", 0) == 0) {
    *out = false;
    return true;
  }
  return false;
}

// Fixed-width hex string field, e.g. "crc":"0123456789abcdef".
bool FindHexField(std::string_view line, std::string_view key, uint64_t* out) {
  const std::string needle = KeyNeedle(key, /*string_value=*/true);
  const size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return false;
  const size_t start = pos + needle.size();
  if (start + 16 > line.size()) return false;
  uint64_t value = 0;
  for (size_t i = 0; i < 16; ++i) {
    const char c = line[start + i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}

// The trailing string field: everything between `"key":"` and the `"}`
// that terminates the line. Requires the field to be written last.
bool FindTailStringField(std::string_view line, std::string_view key,
                         std::string_view* out) {
  const std::string needle = KeyNeedle(key, /*string_value=*/true);
  const size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return false;
  const size_t start = pos + needle.size();
  if (line.size() < start + 2 || line.substr(line.size() - 2) != "\"}") {
    return false;
  }
  *out = line.substr(start, line.size() - 2 - start);
  return true;
}

std::string ChecksumInput(const JournalRecord& r) {
  std::string s = "run|";
  s += std::to_string(r.index);
  s += '|';
  s += std::to_string(r.seed);
  s += '|';
  s += std::to_string(r.attempts);
  s += '|';
  s += r.ok ? '1' : '0';
  s += '|';
  s += r.payload;
  return s;
}

std::string FormatHeaderLine(const JournalHeader& h) {
  std::string line = "{\"type\":\"header\",\"version\":";
  line += std::to_string(h.version);
  line += ",\"config_hash\":\"" + Hex16(h.config_hash) + "\"";
  line += ",\"sweep_seed\":" + std::to_string(h.sweep_seed);
  line += ",\"total_runs\":" + std::to_string(h.total_runs);
  line += ",\"experiment\":\"" + util::JsonEscape(h.experiment) + "\"}";
  return line;
}

std::string FormatRunLine(const JournalRecord& r) {
  std::string line = "{\"type\":\"run\",\"index\":";
  line += std::to_string(r.index);
  line += ",\"seed\":" + std::to_string(r.seed);
  line += ",\"attempts\":" + std::to_string(r.attempts);
  line += std::string(",\"ok\":") + (r.ok ? "true" : "false");
  line += ",\"crc\":\"" + Hex16(JournalChecksum(r)) + "\"";
  line += ",\"payload\":\"" + util::JsonEscape(r.payload) + "\"}";
  return line;
}

std::string FormatFailureLine(const JournalFailure& f) {
  std::string line = "{\"type\":\"failure\",\"index\":";
  line += std::to_string(f.index);
  line += ",\"attempt\":" + std::to_string(f.attempt);
  line += ",\"seed\":" + std::to_string(f.seed);
  line += ",\"reason\":\"" + util::JsonEscape(f.reason) + "\"}";
  return line;
}

}  // namespace

uint64_t JournalChecksum(const JournalRecord& record) {
  return Fnv1a(ChecksumInput(record));
}

struct JournalWriter::State {
  util::AppendFile file;
  std::mutex mutex;
};

// Out of line so unique_ptr<State> can destroy/move a complete type.
JournalWriter::JournalWriter() = default;
JournalWriter::~JournalWriter() = default;
JournalWriter::JournalWriter(JournalWriter&&) noexcept = default;
JournalWriter& JournalWriter::operator=(JournalWriter&&) noexcept = default;

util::Result<JournalWriter> JournalWriter::Create(const std::string& path,
                                                  const JournalHeader& header) {
  // Truncate any stale journal first: Create means "fresh sweep", and an
  // old tail after a new header would corrupt a later resume.
  IPDA_ASSIGN_OR_RETURN(util::AppendFile file,
                        util::AppendFile::Open(path, /*truncate=*/true));
  JournalWriter writer;
  writer.state_ = std::make_unique<State>();
  writer.state_->file = std::move(file);
  IPDA_RETURN_IF_ERROR(writer.state_->file.AppendLine(FormatHeaderLine(header)));
  return writer;
}

util::Result<JournalWriter> JournalWriter::Append(const std::string& path) {
  IPDA_ASSIGN_OR_RETURN(util::AppendFile file, util::AppendFile::Open(path));
  JournalWriter writer;
  writer.state_ = std::make_unique<State>();
  writer.state_->file = std::move(file);
  return writer;
}

const std::string& JournalWriter::path() const {
  IPDA_CHECK(state_ != nullptr);
  return state_->file.path();
}

util::Status JournalWriter::WriteRun(const JournalRecord& record) {
  IPDA_CHECK(state_ != nullptr);
  const std::string line = FormatRunLine(record);
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->file.AppendLine(line);
}

util::Status JournalWriter::WriteFailure(const JournalFailure& failure) {
  IPDA_CHECK(state_ != nullptr);
  const std::string line = FormatFailureLine(failure);
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->file.AppendLine(line);
}

util::Result<Journal> JournalReader::Load(const std::string& path) {
  IPDA_ASSIGN_OR_RETURN(std::string contents, util::ReadFileToString(path));
  Journal journal;
  size_t line_no = 0;
  size_t start = 0;
  bool saw_header = false;
  while (start < contents.size()) {
    const size_t end = contents.find('\n', start);
    if (end == std::string::npos) {
      // Torn tail: the process died mid-write(2). Everything before it
      // was fsynced whole, so just count and stop.
      ++journal.corrupt_lines;
      break;
    }
    const std::string_view line(contents.data() + start, end - start);
    start = end + 1;
    ++line_no;

    if (line_no == 1) {
      // A COMPLETE first line (its newline landed) must be a parsable
      // header; without it the journal cannot be bound to a sweep
      // configuration, so this is fatal. A torn first line is handled
      // after the loop (torn_header).
      if (line.find("\"type\":\"header\"") == std::string_view::npos) {
        return util::InvalidArgumentError(
            "journal '" + path + "' does not start with a header line");
      }
      uint64_t version = 0;
      uint64_t sweep_seed = 0;
      uint64_t total_runs = 0;
      uint64_t config_hash = 0;
      std::string_view experiment;
      if (!FindUintField(line, "version", &version) ||
          !FindHexField(line, "config_hash", &config_hash) ||
          !FindUintField(line, "sweep_seed", &sweep_seed) ||
          !FindUintField(line, "total_runs", &total_runs) ||
          !FindTailStringField(line, "experiment", &experiment)) {
        return util::InvalidArgumentError("journal '" + path +
                                          "' has a malformed header");
      }
      if (version != kJournalVersion) {
        return util::InvalidArgumentError(
            "journal '" + path + "' has version " + std::to_string(version) +
            ", expected " + std::to_string(kJournalVersion));
      }
      IPDA_ASSIGN_OR_RETURN(journal.header.experiment,
                            util::JsonUnescape(experiment));
      journal.header.version = static_cast<uint32_t>(version);
      journal.header.config_hash = config_hash;
      journal.header.sweep_seed = sweep_seed;
      journal.header.total_runs = total_runs;
      saw_header = true;
      continue;
    }

    if (line.find("\"type\":\"run\"") != std::string_view::npos) {
      JournalRecord record;
      uint64_t attempts = 0;
      uint64_t crc = 0;
      std::string_view payload;
      if (!FindUintField(line, "index", &record.index) ||
          !FindUintField(line, "seed", &record.seed) ||
          !FindUintField(line, "attempts", &attempts) ||
          !FindBoolField(line, "ok", &record.ok) ||
          !FindHexField(line, "crc", &crc) ||
          !FindTailStringField(line, "payload", &payload)) {
        ++journal.corrupt_lines;
        continue;
      }
      record.attempts = static_cast<uint32_t>(attempts);
      util::Result<std::string> decoded = util::JsonUnescape(payload);
      if (!decoded.ok()) {
        ++journal.corrupt_lines;
        continue;
      }
      record.payload = *std::move(decoded);
      if (JournalChecksum(record) != crc) {
        ++journal.corrupt_lines;
        continue;
      }
      // Keep-last: a record re-written after resume supersedes the
      // original (they are identical by construction, but be explicit).
      journal.runs[record.index] = std::move(record);
      continue;
    }

    if (line.find("\"type\":\"failure\"") != std::string_view::npos) {
      JournalFailure failure;
      uint64_t attempt = 0;
      std::string_view reason;
      if (!FindUintField(line, "index", &failure.index) ||
          !FindUintField(line, "attempt", &attempt) ||
          !FindUintField(line, "seed", &failure.seed) ||
          !FindTailStringField(line, "reason", &reason)) {
        ++journal.corrupt_lines;
        continue;
      }
      failure.attempt = static_cast<uint32_t>(attempt);
      util::Result<std::string> decoded = util::JsonUnescape(reason);
      if (!decoded.ok()) {
        ++journal.corrupt_lines;
        continue;
      }
      failure.reason = *std::move(decoded);
      journal.failures.push_back(std::move(failure));
      continue;
    }

    ++journal.corrupt_lines;
  }
  if (!saw_header) {
    // Zero bytes, or a header torn at some byte k with no newline: the
    // writer was killed before its first fsync'd line completed, so the
    // journal provably holds no records. Report it as empty-and-torn
    // rather than erroring — a resume from it is simply a fresh start.
    journal.torn_header = true;
  }
  return journal;
}

}  // namespace ipda::exp
