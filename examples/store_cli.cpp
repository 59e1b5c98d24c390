// Inspect and maintain a content-addressed artifact store (src/store).
//
//   ./store_cli [--dir <dir>] ls                 # one line per blob
//   ./store_cli [--dir <dir>] info <hex-key>     # header of one blob
//   ./store_cli [--dir <dir>] verify             # full checksum pass
//   ./store_cli [--dir <dir>] gc [max-bytes] [--force]
//                                                # drop corrupt/oldest blobs
//
// gc defers (exit 3) while another live process -- e.g. a running
// synthesize_cli -- holds a reader lock on the store, because evicting
// a blob mid-pipeline silently degrades that run. --force overrides.
// The store directory defaults to $SCS_CACHE_DIR.
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "store/stage_cache.hpp"
#include "store/store.hpp"
#include "util/hash.hpp"

namespace {

using namespace scs;

std::string human_bytes(std::uint64_t bytes) {
  std::ostringstream os;
  if (bytes >= 1024 * 1024)
    os << std::fixed << std::setprecision(1)
       << static_cast<double>(bytes) / (1024.0 * 1024.0) << " MiB";
  else if (bytes >= 1024)
    os << std::fixed << std::setprecision(1)
       << static_cast<double>(bytes) / 1024.0 << " KiB";
  else
    os << bytes << " B";
  return os.str();
}

void print_row(const BlobInfo& info, bool with_checksum) {
  std::cout << std::left << std::setw(12)
            << (info.readable ? info.header.kind : std::string("?"))
            << std::setw(18)
            << (info.readable ? hash_to_hex(info.header.key)
                              : std::string("?"))
            << std::setw(10)
            << (info.readable ? info.header.benchmark : std::string("?"))
            << std::setw(11) << human_bytes(info.file_bytes);
  if (with_checksum)
    std::cout << std::setw(9) << (info.checksum_ok ? "ok" : "CORRUPT");
  else if (!info.readable)
    std::cout << std::setw(9) << "CORRUPT";
  std::cout << info.file << "\n";
}

int cmd_ls(ArtifactStore& store) {
  const auto blobs = store.list();
  for (const auto& b : blobs) print_row(b, /*with_checksum=*/false);
  std::cout << blobs.size() << " blob(s) in " << store.root() << "\n";
  return 0;
}

int cmd_info(ArtifactStore& store, const std::string& key_hex) {
  std::uint64_t key = 0;
  if (!hash_from_hex(key_hex, key)) {
    std::cerr << "'" << key_hex << "' is not a hex key (expected up to 16 "
              << "hex digits, as printed by ls)\n";
    return 2;
  }
  for (const auto& b : store.list()) {
    if (!b.readable || b.header.key != key) continue;
    std::cout << "file:           " << b.path << "\n"
              << "kind:           " << b.header.kind << "\n"
              << "key:            " << hash_to_hex(b.header.key) << "\n"
              << "benchmark:      " << b.header.benchmark << "\n"
              << "format version: " << b.header.format_version << "\n"
              << "payload:        " << human_bytes(b.header.payload_size)
              << " (" << b.header.payload_size << " bytes)\n"
              << "file size:      " << human_bytes(b.file_bytes) << "\n";
    return 0;
  }
  std::cerr << "no blob with key " << hash_to_hex(key) << " in "
            << store.root() << "\n";
  return 1;
}

int cmd_verify(ArtifactStore& store) {
  const auto blobs = store.verify();
  int corrupt = 0;
  for (const auto& b : blobs) {
    print_row(b, /*with_checksum=*/true);
    if (!b.checksum_ok) ++corrupt;
  }
  std::cout << blobs.size() << " blob(s), " << corrupt << " corrupt\n";
  return corrupt == 0 ? 0 : 1;
}

int cmd_gc(ArtifactStore& store, std::uint64_t max_bytes, bool force) {
  const ArtifactStore::GcReport report = store.gc(max_bytes, force);
  if (report.skipped) {
    std::cerr << "gc skipped: store in use by live process(es)";
    for (int pid : report.busy_pids) std::cerr << " " << pid;
    std::cerr << " (re-run with --force to override)\n";
    return 3;
  }
  for (const auto& f : report.removed) std::cout << "removed " << f << "\n";
  std::cout << report.removed.size() << " file(s) removed from "
            << store.root() << "\n";
  return 0;
}

void print_usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--dir <store-dir>] <ls | info <hex-key> | verify | gc "
            << "[max-bytes] [--force]>\n"
            << "store directory defaults to $SCS_CACHE_DIR\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  if (const char* env = std::getenv("SCS_CACHE_DIR")) dir = env;
  bool force = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dir") {
      if (i + 1 >= argc) {
        std::cerr << "--dir needs a directory argument\n";
        return 2;
      }
      dir = argv[++i];
    } else if (arg == "--force") {
      force = true;
    } else {
      positional.push_back(arg);
    }
  }
  if (dir.empty()) {
    std::cerr << "no store directory: pass --dir or set SCS_CACHE_DIR\n";
    return 2;
  }
  if (positional.empty()) {
    print_usage(argv[0]);
    return 2;
  }

  ArtifactStore store(dir);
  const std::string& cmd = positional[0];
  if (cmd == "ls") return cmd_ls(store);
  if (cmd == "verify") return cmd_verify(store);
  if (cmd == "info") {
    if (positional.size() < 2) {
      std::cerr << "info needs a key (see ls output)\n";
      return 2;
    }
    return cmd_info(store, positional[1]);
  }
  if (cmd == "gc") {
    std::uint64_t max_bytes = 0;  // no budget: drop corrupt blobs only
    if (positional.size() > 1 &&
        !parse_uint(positional[1].c_str(), 1, UINT64_MAX, max_bytes)) {
      std::cerr << "gc max-bytes needs a positive integer\n";
      print_usage(argv[0]);
      return 2;
    }
    return cmd_gc(store, max_bytes, force);
  }
  std::cerr << "unknown command '" << cmd << "'\n";
  print_usage(argv[0]);
  return 2;
}
