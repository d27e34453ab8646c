#pragma once
// Checkpoint/resume for optimization campaigns: serializes the complete
// TopologyEvaluator history — every evaluated topology with its sized
// result (best values, best point, per-simulation history) — so an
// interrupted campaign can restore a finished run from disk instead of
// re-simulating it.
//
// A checkpoint is a framed log (store/frame_log.hpp, docs/PERSISTENCE.md)
// with magic "intooa-evalckpnt": one frame holding the caller's token and
// the record count, then one store record frame (store/record_io.hpp) per
// history record, in history order. Doubles are raw IEEE-754 bits, so a
// restored evaluator reproduces FoM curves, best-design selection and
// every downstream aggregate byte-for-byte; the simulation counters are
// re-derived on restore. Files are published with util::atomic_write_file
// (temp file + fsync + rename + directory fsync): a crash at any point —
// including right after the rename — leaves either the previous complete
// checkpoint or the new complete one, never a torn or content-less file.

#include <string>

#include "core/evaluator.hpp"

namespace intooa::store {

/// Writes `evaluator`'s full history plus the caller's `token` (an
/// identity stamp: spec, method, protocol params, seed) to `path`.
/// Parent directories are created. Throws std::runtime_error on I/O
/// failure.
void save_evaluator_checkpoint(const std::string& path,
                               const std::string& token,
                               const core::TopologyEvaluator& evaluator);

/// Restores a checkpoint written by save_evaluator_checkpoint into
/// `evaluator`, which must be freshly constructed for the same spec and
/// sizing config. All or nothing: returns false — leaving `evaluator`
/// untouched — when the file is missing, is not a checkpoint of this
/// format version, is stamped with a different `token` (a stale checkpoint
/// from other protocol parameters is never silently reused), fails a
/// checksum or length, holds another record count or trailing bytes, or
/// holds a record evaluated under another evaluation key.
bool load_evaluator_checkpoint(const std::string& path,
                               const std::string& token,
                               core::TopologyEvaluator& evaluator);

}  // namespace intooa::store
