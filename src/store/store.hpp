// Content-addressed on-disk artifact store.
//
// One blob per file, named `<kind>-<hex16 key>.scsb` directly under the
// store root. The key is a cache key derived (src/store/stage_cache) from
// everything that determines the blob's content -- benchmark, config slice,
// seed, format version, and the upstream stage's key -- so "lookup by key"
// is "lookup by content"; there is no separate index to fall out of sync.
//
// Writes are atomic (temp file + rename), so a crashed run can leave at
// worst an orphaned *.tmp file, never a half-written blob under its final
// name. Reads verify the frame checksum; a corrupt blob surfaces as
// StoreError for the caller to degrade to recompute (see StageCache).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "store/serialize.hpp"

namespace scs {

struct BlobInfo {
  std::string path;        // full path to the blob file
  std::string file;        // file name only
  std::uint64_t file_bytes = 0;
  BlobHeader header;       // parsed header (kind/key/benchmark/payload size)
  bool readable = false;   // header parsed successfully
  bool checksum_ok = false;  // full checksum verified (verify() only)
};

class ArtifactStore {
 public:
  /// The directory is created on the first put(); a missing directory just
  /// means every get() misses.
  explicit ArtifactStore(std::string root);

  const std::string& root() const { return root_; }

  std::string blob_path(const std::string& kind, std::uint64_t key) const;
  bool contains(const std::string& kind, std::uint64_t key) const;

  /// Atomically persist a framed blob. I/O failures are reported as
  /// StoreError (callers treat the store as best-effort).
  void put(const std::string& kind, std::uint64_t key,
           const std::string& benchmark,
           const std::vector<unsigned char>& payload);

  /// Load and verify a blob. nullopt = absent; StoreError = present but
  /// unreadable/corrupt (checksum mismatch, truncation, bad header).
  /// When the `store_corrupt` fault-injection site is armed, a loaded
  /// payload byte is flipped before verification to exercise exactly that
  /// error path.
  std::optional<std::vector<unsigned char>> get(const std::string& kind,
                                                std::uint64_t key,
                                                BlobHeader* header = nullptr);

  /// Headers of every *.scsb file under the root (unreadable blobs are
  /// included with readable = false).
  std::vector<BlobInfo> list() const;

  /// list() plus a full checksum verification per blob.
  std::vector<BlobInfo> verify() const;

  /// Outcome of a gc() pass. When live readers from *other* processes are
  /// registered under the root (see ReaderLockGuard) and force was false,
  /// nothing is removed: skipped = true and busy_pids lists who blocked it.
  struct GcReport {
    std::vector<std::string> removed;  // file names deleted this pass
    bool skipped = false;
    std::vector<int> busy_pids;
  };

  /// Garbage-collect: removes unreadable/corrupt blobs and orphaned *.tmp
  /// files; when max_bytes > 0, additionally evicts oldest-first (by mtime)
  /// until the store fits. A gc racing a live pipeline could evict the blob
  /// a warm stage is about to load -- or the *.tmp a writer is about to
  /// rename -- so every destructive phase is skipped while another process
  /// holds a reader lock on this root, unless `force` is set. Locks held by
  /// the calling process itself do not block (in-process tests and tools
  /// may hold a cache handle while gc'ing deliberately).
  GcReport gc(std::uint64_t max_bytes = 0, bool force = false);

 private:
  std::string root_;
};

/// RAII liveness marker for a store root: creates
/// `<root>/reader-<pid>-<n>.lock` on construction and removes it on
/// destruction. Every enabled StageCache holds one, so a store that a
/// running synthesis (or a batch holding one shared handle) reads from is
/// visibly "in use" to gc from other processes. Crash-safe: a lock whose pid no longer exists is reaped by
/// the next live_reader_pids() scan. Creation is best-effort -- on I/O
/// failure the guard is inert (path() empty) and gc protection is simply
/// absent, matching the store's degrade-don't-crash policy.
class ReaderLockGuard {
 public:
  explicit ReaderLockGuard(const std::string& root);
  ~ReaderLockGuard();
  ReaderLockGuard(const ReaderLockGuard&) = delete;
  ReaderLockGuard& operator=(const ReaderLockGuard&) = delete;

  /// Full path of the lock file ("" when creation failed).
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Distinct pids of *other* processes holding reader locks under `root`.
/// Stale locks (dead pid) are removed as a side effect; the calling
/// process's own locks are ignored.
std::vector<int> live_reader_pids(const std::string& root);

}  // namespace scs
