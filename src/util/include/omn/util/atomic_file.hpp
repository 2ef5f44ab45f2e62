#pragma once
// Atomic whole-file writes for shared directories.
//
// Every on-disk store that two processes may share (the LP cache's .lpsol
// entries) or that must never be seen half-written (serve journal
// snapshots) uses the same protocol: serialize fully in memory, write to
// a uniquely named temp file beside the destination, then rename into
// place — so a reader never observes a partial entry and concurrent
// writers of the same path simply race to an identical result.  This
// header is that protocol's single home.

#include <string>
#include <string_view>

namespace omn::util {

/// A file-name suffix unique across threads and processes (clock, thread
/// id, and a process-local counter hashed to 16 hex chars).  Collisions
/// would corrupt a concurrent writer's temp file, so uniqueness is the
/// whole contract.
std::string unique_temp_suffix();

/// Writes `bytes` to `path` via `<path>.tmp-<suffix>` + atomic rename.
/// Returns false (leaving no temp file behind) on any failure — callers
/// that treat the store as advisory just ignore the result.  The parent
/// directory must already exist.
bool write_file_atomic(const std::string& path, std::string_view bytes);

}  // namespace omn::util
