// Text serialization for trained FeMux models and block tables.
//
// Training is the expensive phase (§4.3.6), so the bench harness trains
// once per RUM and caches the result on disk; later bench binaries reload
// it. The format is a simple line-oriented text format: stable, diffable,
// and good enough for models of a few kilobytes.
//
// Only the K-means classifier is serialized (FeMux's default); supervised
// classifiers are cheap to re-fit from the block table.
#ifndef SRC_CORE_SERIALIZE_H_
#define SRC_CORE_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/core/trainer.h"

namespace femux {

void SaveModel(const FemuxModel& model, std::ostream& out);
// Returns false (and leaves `model` unspecified) on parse failure, and on a
// model that cannot be served: an empty forecaster list, a name the registry
// does not know, or a default forecaster (or, with margins, a default
// margin) out of range.
bool LoadModel(std::istream& in, FemuxModel* model);

void SaveBlockTable(const BlockTable& table, std::ostream& out);
bool LoadBlockTable(std::istream& in, BlockTable* table);

// File wrappers; return false on IO or parse failure.
bool SaveModelFile(const FemuxModel& model, const std::string& path);
bool LoadModelFile(const std::string& path, FemuxModel* model);
bool SaveBlockTableFile(const BlockTable& table, const std::string& path);
bool LoadBlockTableFile(const std::string& path, BlockTable* table);

// ---- Scaler-daemon checkpoints (DESIGN.md §13) ----
//
// The online scaler daemon (src/serve) periodically snapshots its per-app
// serving state so a killed process resumes warm. The format is built for
// torn writes: one line per app record, each line carrying its own
// field-count framing and a fixed-width FNV-1a-64 checksum, terminated by a
// newline. A checkpoint truncated at ANY byte therefore loads as a valid
// prefix — complete records up to the cut, nothing partial — and the loader
// reports whether the full snapshot was recovered. Writers use the atomic
// tmp-file + rename protocol in SaveDaemonCheckpointFile so readers never
// observe a half-written file at the published path.

// Per-app serving state sufficient to warm-resume: the retained series ring
// and observed count of the app's ForecastStream plus the resilience
// bookkeeping. Forecaster-internal sliding state is NOT persisted; restore
// re-seeds it from the ring (ForecastStream::Restore), which the
// incremental protocol guarantees agrees with the uninterrupted state
// within the documented parity bound. The loader rejects, as a malformed
// record, any ring sample a push would reject (non-finite or negative) and
// an `observed` count smaller than the ring. Learned forecasters
// additionally carry their trained parameters as an opaque blob
// (Forecaster::SaveOpaqueState, DESIGN.md §15) — those are NOT
// reconstructible from the ring, so the record persists them; restore
// loads the blob before re-seeding.
struct DaemonAppCheckpoint {
  std::string id;
  std::string forecaster;
  // Opaque trained state (empty for forecasters without one). Stored as
  // one trailing escaped token per record; old checkpoints without the
  // field load with it empty.
  std::string forecaster_state;
  std::uint64_t observed = 0;    // Samples ever observed.
  std::uint64_t last_epoch = 0;  // Newest applied metric epoch.
  bool has_epoch = false;
  bool has_last_good = false;
  double last_good = 0.0;  // Last successfully forecast target.
  std::uint64_t quarantined_until = 0;  // Daemon tick; 0 = not quarantined.
  std::uint32_t consecutive_faults = 0;
  std::vector<double> ring;  // Retained series tail, oldest first.
};

struct DaemonCheckpoint {
  std::uint64_t tick = 0;  // Daemon tick count at snapshot time.
  std::vector<DaemonAppCheckpoint> apps;
};

void SaveDaemonCheckpoint(const DaemonCheckpoint& checkpoint, std::ostream& out);

// Loads every record that validates (framing + checksum + trailing
// newline), in order, stopping at the first damaged one. Returns true iff
// the header and ALL declared records loaded — i.e. false means `out`
// holds a clean prefix (possibly empty), never partial or corrupt state.
bool LoadDaemonCheckpoint(std::istream& in, DaemonCheckpoint* out);

// Atomic file protocol: writes `path + ".tmp"`, flushes, then renames over
// `path`. On success stores the byte size via `bytes_written` (when
// non-null). `truncate_to` trims the tmp file to that many bytes *before*
// the rename when >= 0 — the fault-injection hook modelling a torn write
// that still got published (see src/serve/fault.h).
bool SaveDaemonCheckpointFile(const DaemonCheckpoint& checkpoint,
                              const std::string& path,
                              std::size_t* bytes_written = nullptr,
                              long long truncate_to = -1);
// Returns false when the file is missing/unreadable or the checkpoint was
// incomplete; a readable prefix is still returned via `out` (see
// LoadDaemonCheckpoint).
bool LoadDaemonCheckpointFile(const std::string& path, DaemonCheckpoint* out);

}  // namespace femux

#endif  // SRC_CORE_SERIALIZE_H_
