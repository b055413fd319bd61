#include "storage/storage_backend.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/assert.hpp"

namespace gryphon::storage {

// --- MemoryBackend -------------------------------------------------------

void MemoryBackend::create_segment(std::uint64_t seq) {
  const auto [it, inserted] = segs_.try_emplace(seq);
  GRYPHON_CHECK_MSG(inserted, "segment " << seq << " already exists");
  (void)it;
}

void MemoryBackend::append(std::uint64_t seq, std::span<const std::byte> bytes) {
  auto it = segs_.find(seq);
  GRYPHON_CHECK_MSG(it != segs_.end(), "append to unknown segment " << seq);
  it->second.insert(it->second.end(), bytes.begin(), bytes.end());
}

void MemoryBackend::truncate(std::uint64_t seq, std::size_t new_size) {
  auto it = segs_.find(seq);
  GRYPHON_CHECK_MSG(it != segs_.end(), "truncate of unknown segment " << seq);
  GRYPHON_CHECK(new_size <= it->second.size());
  it->second.resize(new_size);
}

void MemoryBackend::drop_segment(std::uint64_t seq) {
  GRYPHON_CHECK_MSG(segs_.erase(seq) == 1, "drop of unknown segment " << seq);
}

std::vector<std::uint64_t> MemoryBackend::segments() const {
  std::vector<std::uint64_t> out;
  out.reserve(segs_.size());
  for (const auto& [seq, bytes] : segs_) out.push_back(seq);
  return out;
}

std::vector<std::byte> MemoryBackend::load(std::uint64_t seq) const {
  auto it = segs_.find(seq);
  GRYPHON_CHECK_MSG(it != segs_.end(), "load of unknown segment " << seq);
  return it->second;
}

std::size_t MemoryBackend::size(std::uint64_t seq) const {
  auto it = segs_.find(seq);
  GRYPHON_CHECK_MSG(it != segs_.end(), "size of unknown segment " << seq);
  return it->second.size();
}

// --- FileBackend ---------------------------------------------------------

FileBackend::FileBackend(std::string dir, std::string prefix)
    : dir_(std::move(dir)), prefix_(std::move(prefix)) {
  std::filesystem::create_directories(dir_);
}

FileBackend::~FileBackend() { close_fd(); }

std::string FileBackend::path(std::uint64_t seq) const {
  return dir_ + "/" + prefix_ + "-" + std::to_string(seq) + ".wal";
}

void FileBackend::open_fd(std::uint64_t seq, int extra_flags) {
  close_fd();
  fd_ = ::open(path(seq).c_str(), O_WRONLY | O_APPEND | O_CLOEXEC | extra_flags, 0644);
  GRYPHON_CHECK_MSG(fd_ >= 0, "cannot open " << path(seq) << ": " << std::strerror(errno));
  fd_seq_ = seq;
}

void FileBackend::close_fd() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
}

void FileBackend::create_segment(std::uint64_t seq) {
  // The new segment is the one appends go to next: its fd replaces the
  // previous segment's (a roll).
  open_fd(seq, O_CREAT | O_TRUNC);
}

void FileBackend::append(std::uint64_t seq, std::span<const std::byte> bytes) {
  if (bytes.empty()) return;
  if (fd_ < 0 || fd_seq_ != seq) open_fd(seq, 0);
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd_, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    GRYPHON_CHECK_MSG(n > 0, "write to " << path(seq) << ": " << std::strerror(errno));
    bytes = bytes.subspan(static_cast<std::size_t>(n));
  }
}

void FileBackend::truncate(std::uint64_t seq, std::size_t new_size) {
  // An open O_APPEND fd keeps working: its next write lands at the new end.
  std::filesystem::resize_file(path(seq), new_size);
}

void FileBackend::drop_segment(std::uint64_t seq) {
  if (fd_seq_ == seq) close_fd();
  GRYPHON_CHECK_MSG(std::filesystem::remove(path(seq)),
                    "drop of unknown segment file " << path(seq));
}

std::vector<std::uint64_t> FileBackend::segments() const {
  std::vector<std::uint64_t> out;
  const std::string head = prefix_ + "-";
  const std::string tail = ".wal";
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= head.size() + tail.size()) continue;
    if (name.compare(0, head.size(), head) != 0) continue;
    if (name.compare(name.size() - tail.size(), tail.size(), tail) != 0) continue;
    const std::string digits =
        name.substr(head.size(), name.size() - head.size() - tail.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::byte> FileBackend::load(std::uint64_t seq) const {
  std::FILE* f = std::fopen(path(seq).c_str(), "rb");
  GRYPHON_CHECK_MSG(f != nullptr, "cannot load " << path(seq));
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  const std::size_t n =
      bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  GRYPHON_CHECK_MSG(n == bytes.size(), "short read from " << path(seq));
  return bytes;
}

std::size_t FileBackend::size(std::uint64_t seq) const {
  return static_cast<std::size_t>(std::filesystem::file_size(path(seq)));
}

std::unique_ptr<StorageBackend> make_backend(const StorageOptions& options,
                                             const std::string& prefix) {
  if (options.file_dir.empty()) return std::make_unique<MemoryBackend>();
  return std::make_unique<FileBackend>(options.file_dir, prefix);
}

std::uint32_t stable_node_id(std::string_view name) {
  std::uint32_t h = 2166136261u;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

}  // namespace gryphon::storage
