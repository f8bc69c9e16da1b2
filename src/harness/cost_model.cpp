#include "harness/cost_model.hpp"

#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace memsched::harness {

namespace {

constexpr const char* kFormat = "memsched-sweep-timing-v1";

}  // namespace

void CostModel::load(const std::string& path) {
  wall_ms_.clear();
  std::string text;
  // A missing or unreadable history is an empty one: it only orders dispatch.
  if (util::read_file(path, text) != 0 || text.empty()) return;
  try {
    const util::Json doc = util::Json::parse(text);
    const util::Json* fmt = doc.find("format");
    if (fmt == nullptr || !fmt->is_string() || fmt->as_string() != kFormat) return;
    const util::Json* points = doc.find("points");
    if (points == nullptr || !points->is_object()) return;
    for (const auto& [name, value] : points->members()) {
      if (value.is_number() && value.as_number() > 0.0) {
        wall_ms_[name] = value.as_number();
      }
    }
  } catch (const std::exception&) {
    // Corrupt timing history is not an error — it only orders dispatch.
    wall_ms_.clear();
  }
}

void CostModel::save(const std::string& path) const {
  util::Json doc = util::Json::object();
  doc["format"] = kFormat;
  util::Json points = util::Json::object();
  for (const auto& [name, ms] : wall_ms_) points[name] = ms;
  doc["points"] = std::move(points);
  util::atomic_write_file(path, doc.dump(-1) + "\n");
}

void CostModel::observe(const std::string& name, double wall_ms) {
  if (wall_ms > 0.0) wall_ms_[name] = wall_ms;
}

double CostModel::estimate(const std::string& name, double hint) const {
  if (const auto it = wall_ms_.find(name); it != wall_ms_.end()) return it->second;
  return hint > 0.0 ? hint : 1.0;
}

bool CostModel::has(const std::string& name) const {
  return wall_ms_.find(name) != wall_ms_.end();
}

}  // namespace memsched::harness
