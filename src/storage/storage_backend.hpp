// StorageBackend — where WAL segment bytes actually live.
//
// The SimDisk stays the *timing* model (barrier latency, bandwidth, torn
// syncs); a StorageBackend is the *contents* model: an ordered set of
// append-only segments the recovery scanner reads back after a crash.
//
//  * MemoryBackend (default): segments are std::vector<std::byte> — tier-1
//    tests stay hermetic and deterministic, no filesystem involved.
//  * FileBackend (behind StorageOptions::file_dir): segments are real
//    "<prefix>-<seq>.wal" files, so a recovery scan genuinely round-trips
//    through the OS. Used by bench_recovery_fuzz --wal-dir and the broker
//    runtime. Appends go through one O_APPEND fd kept open on the segment
//    being written (one write(2) per record, no open/close); it is closed on
//    roll, drop and destruction. Nothing is fdatasync'd.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gryphon::storage {

struct StorageOptions {
  /// Roll the active segment once it reaches this many bytes.
  std::size_t segment_bytes = 256 * 1024;
  /// Snapshot-compact the Database WAL once its live bytes exceed this.
  std::size_t db_compact_bytes = 1u << 20;
  /// When non-empty, WAL segments are real files under this directory
  /// (created if missing) instead of in-memory vectors.
  std::string file_dir;
};

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  virtual void create_segment(std::uint64_t seq) = 0;
  virtual void append(std::uint64_t seq, std::span<const std::byte> bytes) = 0;
  /// Discards everything past `new_size` (torn-tail truncation).
  virtual void truncate(std::uint64_t seq, std::size_t new_size) = 0;
  virtual void drop_segment(std::uint64_t seq) = 0;

  /// Segment sequence numbers in ascending order (the recovery scan order).
  [[nodiscard]] virtual std::vector<std::uint64_t> segments() const = 0;
  [[nodiscard]] virtual std::vector<std::byte> load(std::uint64_t seq) const = 0;
  [[nodiscard]] virtual std::size_t size(std::uint64_t seq) const = 0;
};

class MemoryBackend final : public StorageBackend {
 public:
  void create_segment(std::uint64_t seq) override;
  void append(std::uint64_t seq, std::span<const std::byte> bytes) override;
  void truncate(std::uint64_t seq, std::size_t new_size) override;
  void drop_segment(std::uint64_t seq) override;
  [[nodiscard]] std::vector<std::uint64_t> segments() const override;
  [[nodiscard]] std::vector<std::byte> load(std::uint64_t seq) const override;
  [[nodiscard]] std::size_t size(std::uint64_t seq) const override;

 private:
  std::map<std::uint64_t, std::vector<std::byte>> segs_;
};

class FileBackend final : public StorageBackend {
 public:
  /// Segments live at `<dir>/<prefix>-<seq>.wal`; `dir` is created if
  /// missing. Pre-existing files for `prefix` are adopted (recovery).
  FileBackend(std::string dir, std::string prefix);
  ~FileBackend() override;
  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  void create_segment(std::uint64_t seq) override;
  void append(std::uint64_t seq, std::span<const std::byte> bytes) override;
  void truncate(std::uint64_t seq, std::size_t new_size) override;
  void drop_segment(std::uint64_t seq) override;
  [[nodiscard]] std::vector<std::uint64_t> segments() const override;
  [[nodiscard]] std::vector<std::byte> load(std::uint64_t seq) const override;
  [[nodiscard]] std::size_t size(std::uint64_t seq) const override;

 private:
  [[nodiscard]] std::string path(std::uint64_t seq) const;
  /// Makes `seq` the segment with the open append fd.
  void open_fd(std::uint64_t seq, int extra_flags);
  void close_fd();

  std::string dir_;
  std::string prefix_;
  int fd_ = -1;  // O_APPEND fd of segment fd_seq_, or -1
  std::uint64_t fd_seq_ = 0;
};

/// Builds the backend `options` asks for; `prefix` namespaces one WAL's
/// files within a shared directory (e.g. "phb-log", "shb0-db").
std::unique_ptr<StorageBackend> make_backend(const StorageOptions& options,
                                             const std::string& prefix);

/// Deterministic 32-bit FNV-1a of a node name — the node id stamped into
/// segment headers (self-describing files, stable across runs/platforms).
[[nodiscard]] std::uint32_t stable_node_id(std::string_view name);

}  // namespace gryphon::storage
