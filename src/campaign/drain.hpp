#pragma once
// SIGINT/SIGTERM drain for the campaign benches — the same discipline as
// intooa-served: on the first signal, runs already admitted to the pool
// finish and publish their run checkpoints (campaign::save_run_checkpoint
// goes through util::atomic_write_file, so a run checkpoint is either
// complete or absent), queued runs are skipped, and the bench exits
// 128+signal WITHOUT writing the campaign CSV cache — a partial campaign
// must never be mistaken for a finished one. Re-running the same command
// resumes from the published run checkpoints. A second signal force-exits
// immediately.
//
// The handler is installed lazily by run_or_load(), so every campaign
// bench gets it without per-bench wiring; benches with hand-rolled run
// loops call install_drain_handler() + exit_if_draining() themselves.
//
// Before the exit, exit_if_draining() flushes the process's active
// obs::BenchTelemetry session (trace + metrics sidecars): std::exit skips
// stack destructors, so without the explicit flush an interrupted campaign
// would publish its run checkpoints but lose its telemetry.

namespace intooa::campaign {

/// Installs the SIGINT/SIGTERM handler (idempotent, thread-safe).
void install_drain_handler();

/// The drain signal observed so far (0 = none). Async-signal-safe to set,
/// cheap to poll from run boundaries.
int drain_signal();

/// True once a drain signal arrived.
inline bool draining() { return drain_signal() != 0; }

/// Exits 128+signal when a drain signal arrived; returns otherwise. Call
/// at campaign boundaries, after in-flight runs have published their run
/// checkpoints. Flushes the active telemetry session
/// (obs::finalize_active_telemetry) before exiting so --trace/--metrics
/// sidecars survive the interrupt.
void exit_if_draining();

}  // namespace intooa::campaign
