#include "digest.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cache/result_cache.hpp"

namespace perfbench {

using memsched::util::Json;

std::string digest_of(const std::string& bytes) {
  return memsched::cache::hex64(memsched::cache::fnv1a64(bytes));
}

std::string expectation_key(const std::string& workload, const std::string& case_name,
                            std::uint32_t slot) {
  return workload + "/" + case_name + "#" + std::to_string(slot);
}

ExpectationFile ExpectationFile::load(const std::string& path) {
  ExpectationFile f;
  std::ifstream in(path);
  if (!in) return f;
  std::stringstream ss;
  ss << in.rdbuf();
  const Json doc = Json::parse(ss.str());
  if (const Json* p = doc.find("provenance")) f.provenance_ = *p;
  for (const auto& [key, value] : doc.at("entries").members()) f.entries_[key] = value;
  return f;
}

const Json* ExpectationFile::find(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void ExpectationFile::set(const std::string& key, Json value) {
  entries_[key] = std::move(value);
}

void ExpectationFile::save(const std::string& path) const {
  Json doc = Json::object();
  doc["provenance"] = provenance_;
  Json entries = Json::object();
  for (const auto& [key, value] : entries_) entries[key] = value;
  doc["entries"] = std::move(entries);
  doc.write_file(path);
}

Digests::Digests(std::string path, bool regen)
    : path_(std::move(path)), regen_(regen), file_(ExpectationFile::load(path_)) {}

bool Digests::check(const std::string& key, const std::string& bytes) {
  const std::string d = digest_of(bytes);
  const Json* have = file_.find(key);
  const bool same = have != nullptr && have->as_string() == d;
  if (regen_ && !same) {
    changed_.push_back(key);
    file_.set(key, d);
  }
  return same || regen_;
}

void Digests::save() {
  Json prov = Json::object();
  prov["what"] = "FNV-1a-64 of each exact case's serialized result, per seed slot";
  prov["regenerate"] = "python3 perfbench/run.py --regen";
  file_.set_provenance(std::move(prov));
  file_.save(path_);
  for (const std::string& k : changed_) std::printf("changed: %s\n", k.c_str());
  std::printf("%zu digests changed\n", changed_.size());
}

}  // namespace perfbench
