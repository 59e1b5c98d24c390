#include "store/store.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <signal.h>
#include <unistd.h>

#include "util/fault_injector.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace fs = std::filesystem;

namespace scs {

namespace {

std::vector<unsigned char> read_file_bytes(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good())
    throw StoreError("store: cannot open " + path.string());
  std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(is)),
                                   std::istreambuf_iterator<char>());
  if (is.bad()) throw StoreError("store: read failed for " + path.string());
  return bytes;
}

BlobInfo info_for(const fs::path& path) {
  BlobInfo info;
  info.path = path.string();
  info.file = path.filename().string();
  std::error_code ec;
  info.file_bytes = static_cast<std::uint64_t>(fs::file_size(path, ec));
  if (ec) info.file_bytes = 0;
  try {
    info.header = decode_blob_header(read_file_bytes(path));
    info.readable = true;
  } catch (const StoreError&) {
    info.readable = false;
  }
  return info;
}

}  // namespace

ArtifactStore::ArtifactStore(std::string root) : root_(std::move(root)) {}

std::string ArtifactStore::blob_path(const std::string& kind,
                                     std::uint64_t key) const {
  return (fs::path(root_) / (kind + "-" + hash_to_hex(key) + ".scsb"))
      .string();
}

bool ArtifactStore::contains(const std::string& kind,
                             std::uint64_t key) const {
  std::error_code ec;
  return fs::exists(blob_path(kind, key), ec);
}

void ArtifactStore::put(const std::string& kind, std::uint64_t key,
                        const std::string& benchmark,
                        const std::vector<unsigned char>& payload) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec)
    throw StoreError("store: cannot create directory " + root_ + ": " +
                     ec.message());

  const std::vector<unsigned char> blob =
      encode_blob(kind, key, benchmark, payload);
  const fs::path final_path = blob_path(kind, key);
  // Unique temp name per writer (pid + process-wide counter): writers of
  // the same key -- two processes on one cache dir, or a batch listing a
  // benchmark twice -- never truncate each other's temp file, and since
  // they write identical content, whichever rename lands last is correct.
  // The name keeps the .tmp extension so gc still sweeps orphans.
  static std::atomic<std::uint64_t> seq{0};
  const fs::path tmp_path = final_path.string() + "." +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(seq.fetch_add(1)) + ".tmp";
  {
    std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
    if (!os.good())
      throw StoreError("store: cannot open " + tmp_path.string());
    os.write(reinterpret_cast<const char*>(blob.data()),
             static_cast<std::streamsize>(blob.size()));
    if (!os.good())
      throw StoreError("store: write failed for " + tmp_path.string());
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    throw StoreError("store: rename failed for " + final_path.string());
  }
}

std::optional<std::vector<unsigned char>> ArtifactStore::get(
    const std::string& kind, std::uint64_t key, BlobHeader* header) {
  const fs::path path = blob_path(kind, key);
  std::error_code ec;
  if (!fs::exists(path, ec)) return std::nullopt;

  std::vector<unsigned char> blob = read_file_bytes(path);
  // Deterministic stand-in for on-disk bit rot: flip one mid-payload byte
  // so the checksum verification below must catch it.
  if (fault_injection_enabled() &&
      FaultInjector::instance().should_fire(FaultSite::kStoreCorrupt) &&
      !blob.empty()) {
    blob[blob.size() / 2] ^= 0xff;
    log_info("fault-injector: flipped a byte in ", path.string());
  }

  BlobHeader h;
  std::vector<unsigned char> payload = decode_blob(blob, &h);
  if (h.kind != kind || h.key != key)
    throw StoreError("store: blob " + path.string() +
                     " does not match its file name (kind/key mismatch)");
  if (header != nullptr) *header = h;
  return payload;
}

std::vector<BlobInfo> ArtifactStore::list() const {
  std::vector<BlobInfo> infos;
  std::error_code ec;
  if (!fs::is_directory(root_, ec)) return infos;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".scsb") continue;
    infos.push_back(info_for(entry.path()));
  }
  std::sort(infos.begin(), infos.end(),
            [](const BlobInfo& a, const BlobInfo& b) { return a.file < b.file; });
  return infos;
}

std::vector<BlobInfo> ArtifactStore::verify() const {
  std::vector<BlobInfo> infos = list();
  for (BlobInfo& info : infos) {
    if (!info.readable) continue;
    try {
      decode_blob(read_file_bytes(info.path));
      info.checksum_ok = true;
    } catch (const StoreError&) {
      info.checksum_ok = false;
    }
  }
  return infos;
}

ArtifactStore::GcReport ArtifactStore::gc(std::uint64_t max_bytes,
                                          bool force) {
  GcReport report;
  std::vector<std::string>& removed = report.removed;
  std::error_code ec;
  if (!fs::is_directory(root_, ec)) return report;

  // Safety interlock: evicting a blob a live pipeline is about to load --
  // or the *.tmp a writer is about to rename -- silently degrades or
  // breaks that run. Other processes announce themselves with reader
  // locks; defer to them unless forced.
  report.busy_pids = live_reader_pids(root_);
  if (!report.busy_pids.empty() && !force) {
    report.skipped = true;
    log_info("store: gc skipped, root in use by ", report.busy_pids.size(),
             " other process(es)");
    return report;
  }

  // Orphaned temp files from crashed writers.
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() == ".tmp") {
      fs::remove(entry.path(), ec);
      removed.push_back(entry.path().filename().string());
    }
  }

  std::vector<BlobInfo> infos = verify();
  std::uint64_t live_bytes = 0;
  std::vector<BlobInfo> live;
  for (const BlobInfo& info : infos) {
    if (!info.readable || !info.checksum_ok) {
      fs::remove(info.path, ec);
      removed.push_back(info.file);
    } else {
      live_bytes += info.file_bytes;
      live.push_back(info);
    }
  }

  if (max_bytes > 0 && live_bytes > max_bytes) {
    std::sort(live.begin(), live.end(),
              [](const BlobInfo& a, const BlobInfo& b) {
                std::error_code e;
                const auto ta = fs::last_write_time(a.path, e);
                const auto tb = fs::last_write_time(b.path, e);
                return ta != tb ? ta < tb : a.file < b.file;
              });
    for (const BlobInfo& info : live) {
      if (live_bytes <= max_bytes) break;
      fs::remove(info.path, ec);
      live_bytes -= info.file_bytes;
      removed.push_back(info.file);
    }
  }
  return report;
}

ReaderLockGuard::ReaderLockGuard(const std::string& root) {
  // One counter per process so several caches on the same root coexist.
  static std::atomic<unsigned> seq{0};
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) return;
  const fs::path path =
      fs::path(root) / ("reader-" + std::to_string(::getpid()) + "-" +
                        std::to_string(seq.fetch_add(1)) + ".lock");
  std::ofstream os(path);
  if (!os.good()) return;
  os << ::getpid() << "\n";
  os.close();
  if (os.good()) path_ = path.string();
}

ReaderLockGuard::~ReaderLockGuard() {
  if (path_.empty()) return;
  std::error_code ec;
  fs::remove(path_, ec);
}

std::vector<int> live_reader_pids(const std::string& root) {
  std::vector<int> pids;
  std::error_code ec;
  if (!fs::is_directory(root, ec)) return pids;
  const int own = static_cast<int>(::getpid());
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("reader-", 0) != 0 ||
        entry.path().extension() != ".lock")
      continue;
    const int pid = std::atoi(name.c_str() + 7);
    if (pid <= 0 || pid == own) continue;
    // kill(pid, 0) probes existence without signaling; EPERM still means
    // the process is alive (just not ours to signal).
    if (::kill(pid, 0) == 0 || errno == EPERM) {
      if (std::find(pids.begin(), pids.end(), pid) == pids.end())
        pids.push_back(pid);
    } else {
      // The owner died without cleanup: reap the stale lock so it cannot
      // block gc forever.
      fs::remove(entry.path(), ec);
      log_info("store: reaped stale reader lock ", name);
    }
  }
  return pids;
}

}  // namespace scs
