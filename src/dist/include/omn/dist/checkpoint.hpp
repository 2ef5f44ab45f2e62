#pragma once
// Resumable per-shard result checkpoints for distributed sweeps.
//
// After a shard's result frame is validated, the parent writes the
// shard's partial SweepReport to `<dir>/<grid digest>.shard-<k>.ckpt`
// via the same unique-temp-file + atomic-rename protocol as the LP
// cache's .lpsol entries, so an interrupted distributed sweep never
// leaves a partial checkpoint behind.  On the next run over the SAME
// grid (wire.hpp's grid_digest: instances, configs, labels,
// result-shaping options, shard count), valid checkpoints are merged
// directly and only the missing shards are recomputed.
//
// Checkpoint format v2 (all fields little-endian; see
// docs/ARCHITECTURE.md).  v2 only bumps the version number: the payload
// embeds the wire report encoding, which frame v2 extended, so v1
// checkpoints must be rejected (and recomputed) rather than misread.
//
//   u32 magic 0x4B434D4F ("OMCK")   u32 version (2)
//   u64 digest.hi   u64 digest.lo   (grid_digest of the producing run)
//   u64 shard index   u64 begin   u64 end
//   u64 payload size   payload (wire.hpp report encoding)
//   u64 checksum (util::Hasher digest.lo of all preceding bytes)
//
// Corrupt, truncated, version-mismatched, or foreign-grid files are
// rejected — the shard is simply recomputed; a checkpoint can make a run
// faster, never wrong.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "omn/core/design_sweep.hpp"
#include "omn/dist/shard_plan.hpp"
#include "omn/util/hash.hpp"

namespace omn::dist {

/// On-disk checkpoint format version; bumped on any layout change —
/// including changes to the embedded wire report encoding — so stale
/// files are rejected instead of misread.
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// The checkpoint path for shard `range` of the grid named by `digest`.
std::string checkpoint_path(const std::string& directory,
                            const util::Digest128& digest,
                            const ShardRange& range);

/// Writes the shard's report atomically (unique temp file + rename).
/// Creates `directory` if missing.  Failures are swallowed — a checkpoint
/// is advisory, and a failed store must never fail the sweep.
void write_checkpoint(const std::string& directory,
                      const util::Digest128& digest, const ShardRange& range,
                      const core::SweepReport& report);

/// Loads and fully validates the shard's checkpoint: magic, version,
/// grid digest, shard identity (index AND cell range), checksum, and the
/// payload decode.  Returns nullopt — indistinguishable from "never
/// written" — on any mismatch.
std::optional<core::SweepReport> load_checkpoint(
    const std::string& directory, const util::Digest128& digest,
    const ShardRange& range);

// ---- entry (de)serialization, exposed for the format tests --------------

/// Writes one checkpoint entry (format kCheckpointVersion) to `os`.
void write_checkpoint_entry(std::ostream& os, const util::Digest128& digest,
                            const ShardRange& range,
                            const core::SweepReport& report);

/// Parses one entry, validating everything (see load_checkpoint).
std::optional<core::SweepReport> read_checkpoint_entry(
    std::istream& is, const util::Digest128& digest, const ShardRange& range);

}  // namespace omn::dist
