#include "omn/util/atomic_file.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "omn/util/hash.hpp"

namespace omn::util {

namespace fs = std::filesystem;

std::string unique_temp_suffix() {
  static std::atomic<std::uint64_t> counter{0};
  Hasher h;
  h.u64(static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count()));
  // The pid is the load-bearing cross-PROCESS discriminator: two runs of
  // the same binary writing one shared directory can agree on the
  // thread-id hash and the counter value, leaving only the clock tick
  // otherwise.
#if defined(__unix__) || defined(__APPLE__)
  h.u64(static_cast<std::uint64_t>(::getpid()));
#endif
  h.u64(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  h.u64(counter.fetch_add(1, std::memory_order_relaxed));
  return h.digest().hex().substr(0, 16);
}

bool write_file_atomic(const std::string& path, std::string_view bytes) {
  try {
    const fs::path final_path(path);
    const fs::path temp_path = path + ".tmp-" + unique_temp_suffix();
    {
      std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      // close() flushes and sets failbit on failure (e.g. ENOSPC at
      // flush) — checking good() before the flush would let a truncated
      // temp file slip through to the rename below.
      out.close();
      if (out.fail()) {
        std::error_code ignored;
        fs::remove(temp_path, ignored);
        return false;
      }
    }
    std::error_code ec;
    fs::rename(temp_path, final_path, ec);
    if (ec) {
      // E.g. a platform where rename cannot replace an existing file: a
      // concurrent writer beat us to an identical entry; drop ours.
      std::error_code ignored;
      fs::remove(temp_path, ignored);
      return false;
    }
    return true;
  } catch (const fs::filesystem_error&) {
    return false;
  }
}

}  // namespace omn::util
