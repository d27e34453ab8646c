#include "store/checkpoint.hpp"

#include <filesystem>
#include <stdexcept>
#include <vector>

#include "obs/span.hpp"
#include "store/frame_log.hpp"
#include "store/record_io.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"
#include "util/wire.hpp"

namespace intooa::store {

namespace {

/// Version 1 was a text format; its files fail the magic check.
constexpr LogFormat kFormat{"intooa-evalckpnt", 2, 1u << 26,
                            "evaluator checkpoint"};

}  // namespace

void save_evaluator_checkpoint(const std::string& path,
                               const std::string& token,
                               const core::TopologyEvaluator& evaluator) {
  INTOOA_SPAN("checkpoint.save");
  std::string out = header_bytes(kFormat);
  std::string head;
  util::WireWriter writer(head);
  writer.str(token);
  writer.u64(evaluator.history().size());
  encode_frame(out, head, kFormat);
  const core::EvalKeyContext& keys = evaluator.key_context();
  for (const auto& record : evaluator.history()) {
    encode_frame(out, encode_record(keys.key_for(record.topology), record),
                 kFormat);
  }
  // Durable atomic publish (temp file + fsync + rename + directory fsync):
  // a crash at any point leaves the previous checkpoint or the complete new
  // one — and once save returns, the record contents survive power loss.
  try {
    util::atomic_write_file(path, out);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("checkpoint: ") + e.what());
  }
}

bool load_evaluator_checkpoint(const std::string& path,
                               const std::string& token,
                               core::TopologyEvaluator& evaluator) {
  INTOOA_SPAN("checkpoint.load");
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return false;
  // Parse everything before touching the evaluator: a defect anywhere
  // rejects the whole file.
  const core::EvalKeyContext& keys = evaluator.key_context();
  std::uint64_t count = 0;
  bool have_head = false;
  std::vector<core::EvalRecord> records;
  std::string defect;
  try {
    FrameLog log(path, kFormat, /*writable=*/false);
    log.check_header();
    const std::uint64_t tail = log.scan([&](const Frame& frame) {
      if (!have_head) {
        util::WireReader reader(frame.payload);
        std::string stamp;
        have_head = reader.str(stamp) && reader.u64(count) && reader.done() &&
                    stamp == token;
        return have_head;
      }
      auto decoded = decode_record(frame.payload);
      if (!decoded || records.size() == count ||
          decoded->key.fingerprint !=
              keys.key_for(decoded->record.topology).fingerprint) {
        return false;
      }
      records.push_back(std::move(decoded->record));
      return true;
    });
    if (tail != 0 || !have_head || records.size() != count) {
      defect = "evaluator checkpoint " + path +
               ": token, record count or frames do not match";
    }
  } catch (const std::exception& e) {
    defect = e.what();
  }
  if (!defect.empty()) {
    util::log_warn("ignoring unusable " + defect);
    return false;
  }
  for (auto& record : records) evaluator.restore(std::move(record));
  return true;
}

}  // namespace intooa::store
