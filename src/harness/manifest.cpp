#include "harness/manifest.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace memsched::harness {

namespace {

// v2: records carry their point index (persisted sorted by it — parallel
// sweeps checkpoint out of order yet write deterministic bytes) and wall_ms
// moved to the .timing.json sidecar. A v1 manifest fails the format check
// below; delete it and start the sweep over.
constexpr const char* kFormat = "memsched-sweep-manifest-v2";

PointRecord record_from(const util::Json& j) {
  PointRecord r;
  r.name = j.at("name").as_string();
  r.index = static_cast<std::uint32_t>(j.at("index").as_uint());
  r.status = j.at("status").as_string();
  r.category = j.at("category").as_string();
  r.exit_code = static_cast<int>(j.at("exit_code").as_number());
  r.term_signal = static_cast<int>(j.at("term_signal").as_number());
  r.attempts = static_cast<std::uint32_t>(j.at("attempts").as_uint());
  r.payload = j.at("payload").as_string();
  r.error = j.at("error").as_string();
  return r;
}

}  // namespace

void Manifest::open(const std::string& path, const std::string& fingerprint) {
  path_ = path;
  fingerprint_ = fingerprint;
  records_.clear();

  std::string text;
  if (const int err = util::read_file(path, text); err == ENOENT) {
    return;  // fresh sweep
  } else if (err != 0) {
    throw std::runtime_error("manifest: read error on " + path + ": " + std::strerror(err));
  }

  util::Json doc;
  try {
    doc = util::Json::parse(text);
  } catch (const std::exception& e) {
    throw std::runtime_error("manifest: " + path + " is not valid JSON (" + e.what() +
                             "); delete it to start the sweep over");
  }
  if (const util::Json* fmt = doc.find("format");
      fmt == nullptr || !fmt->is_string() || fmt->as_string() != kFormat) {
    throw std::runtime_error("manifest: " + path + " has an unrecognized format tag");
  }
  const std::string found = doc.at("fingerprint").as_string();
  if (found != fingerprint) {
    throw std::runtime_error(
        "manifest: " + path + " belongs to a different sweep (fingerprint '" + found +
        "', expected '" + fingerprint + "'); delete it or change manifest=");
  }
  for (const util::Json& p : doc.at("points").elements())
    records_.push_back(record_from(p));
}

const PointRecord* Manifest::find(const std::string& name) const {
  for (const PointRecord& r : records_) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

void Manifest::record(const PointRecord& rec) {
  bool replaced = false;
  for (PointRecord& r : records_) {
    if (r.name == rec.name) {
      r = rec;
      replaced = true;
      break;
    }
  }
  if (!replaced) {
    // Keep records_ sorted by point index: the pool records completions out
    // of index order at every width (longest-expected-first dispatch), but
    // every checkpoint (and the report built from records()) must be
    // byte-identical to an index-order run over the same recorded set.
    const auto pos = std::upper_bound(
        records_.begin(), records_.end(), rec.index,
        [](std::uint32_t idx, const PointRecord& r) { return idx < r.index; });
    records_.insert(pos, rec);
  }
  if (bound()) save();
}

void Manifest::save() const {
  util::Json doc = util::Json::object();
  doc["format"] = kFormat;
  doc["fingerprint"] = fingerprint_;
  // records_ is kept index-sorted by record(), so these bytes are already
  // independent of the order points completed in.
  util::Json points = util::Json::array();
  for (const PointRecord& r : records_) {
    util::Json p = util::Json::object();
    p["name"] = r.name;
    p["index"] = r.index;
    p["status"] = r.status;
    p["category"] = r.category;
    p["exit_code"] = r.exit_code;
    p["term_signal"] = r.term_signal;
    p["attempts"] = r.attempts;
    p["payload"] = r.payload;
    p["error"] = r.error;
    points.push_back(std::move(p));
  }
  doc["points"] = std::move(points);

  // Atomic, durable checkpoint: a crash (or power cut) mid-write must never
  // corrupt the manifest — the tmp + fsync + rename in atomic_write_file
  // guarantees the previous checkpoint survives until the new one is fully
  // on stable storage.
  util::atomic_write_file(path_, doc.dump(-1) + "\n");
}

}  // namespace memsched::harness
