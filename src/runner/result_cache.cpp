#include "runner/result_cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/check.h"

namespace qos {

namespace fs = std::filesystem;

ResultCache::ResultCache(Config config) : config_(std::move(config)) {
  QOS_EXPECTS(config_.memory_entries > 0);
}

std::optional<std::string> ResultCache::get(const Digest& key) {
  std::lock_guard lock(mutex_);
  if (auto it = index_.find(key); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
    ++stats_.hits;
    ++stats_.memory_hits;
    return it->second->second;
  }
  if (auto disk = disk_get(key)) {
    insert_memory(key, *disk);  // promote
    ++stats_.hits;
    ++stats_.disk_hits;
    return disk;
  }
  ++stats_.misses;
  return std::nullopt;
}

void ResultCache::put(const Digest& key, const std::string& value) {
  std::lock_guard lock(mutex_);
  ++stats_.stores;
  insert_memory(key, value);
  if (!config_.disk_dir.empty()) disk_put(key, value);
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void ResultCache::clear_memory() {
  std::lock_guard lock(mutex_);
  lru_.clear();
  index_.clear();
}

void ResultCache::insert_memory(const Digest& key, const std::string& value) {
  if (auto it = index_.find(key); it != index_.end()) {
    it->second->second = value;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, value);
  index_[key] = lru_.begin();
  while (lru_.size() > config_.memory_entries) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::string ResultCache::disk_path(const Digest& key) const {
  return config_.disk_dir + "/" + key.to_hex() + ".qosc";
}

namespace {

// Disk entries are framed "qosc1 <size> <fnv64(value)>\n<value>" so a torn
// or bit-flipped file fails validation and reads as a miss — the values are
// opaque to the cache, so this is the only integrity check it can do.
std::uint64_t payload_checksum(const std::string& value) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : value) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::optional<std::string> ResultCache::disk_get(const Digest& key) {
  if (config_.disk_dir.empty()) return std::nullopt;
  std::ifstream in(disk_path(key), std::ios::binary);
  if (!in) return std::nullopt;
  std::string magic;
  std::size_t size = 0;
  std::uint64_t checksum = 0;
  if (!(in >> magic >> size >> checksum) || magic != "qosc1")
    return std::nullopt;
  if (in.get() != '\n') return std::nullopt;
  // A corrupt header may claim any size: bound it by the bytes left in the
  // file before allocating, so it reads as a miss like any torn entry.
  const std::streampos body = in.tellg();
  if (body < 0 || !in.seekg(0, std::ios::end)) return std::nullopt;
  const std::streamoff left = in.tellg() - body;
  if (left < 0 || size > static_cast<std::uint64_t>(left) || !in.seekg(body))
    return std::nullopt;
  std::string value(size, '\0');
  in.read(value.data(), static_cast<std::streamsize>(size));
  if (in.gcount() != static_cast<std::streamsize>(size)) return std::nullopt;
  if (payload_checksum(value) != checksum) return std::nullopt;
  return value;
}

void ResultCache::disk_put(const Digest& key, const std::string& value) {
  std::error_code ec;
  fs::create_directories(config_.disk_dir, ec);
  if (ec) return;  // disk tier is best-effort; memory tier already has it
  const std::string final_path = disk_path(key);
  const std::string tmp_path =
      final_path + ".tmp." +
      std::to_string(reinterpret_cast<std::uintptr_t>(&value));
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out << "qosc1 " << value.size() << ' ' << payload_checksum(value) << '\n';
    out.write(value.data(), static_cast<std::streamsize>(value.size()));
    if (!out.good()) {
      out.close();
      fs::remove(tmp_path, ec);
      return;
    }
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) fs::remove(tmp_path, ec);
}

}  // namespace qos
