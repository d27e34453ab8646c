// Unit tests for intooa::store — the record codec, the append-only log's
// crash recovery (torn tails, flipped bytes, empty files), the versioned
// header and its golden bytes, cross-handle and cross-process sharing
// (concurrent creators of one fresh file), the evaluator's read-through /
// write-behind integration (warm runs replay stored results without
// touching the sizer), and the atomic whole-file publish.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/library.hpp"
#include "core/evaluator.hpp"
#include "store/record_io.hpp"
#include "store/store.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace {

using namespace intooa;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Fresh (deleted-up-front) temp store path for one test.
std::string fresh_store(const std::string& name) {
  const std::string path = temp_path(name);
  std::filesystem::remove(path);
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// FNV-1a 64 of a file's bytes: pins an on-disk format across commits.
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

core::EvalKey test_key(std::uint64_t i) {
  return {0x9E3779B97F4A7C15ULL + i, "test-fingerprint " + std::to_string(i)};
}

/// Synthetic record shaped like a real evaluation (2-point history).
core::EvalRecord test_record(std::uint64_t i) {
  core::EvalRecord record;
  record.topology = circuit::named_topology(i % 2 == 0 ? "NMC" : "C1");
  record.sized.topology = record.topology;
  record.sized.simulations = 2;
  record.sized.best_values = {1e-4, 2.5e-4, 1e-3, 2e-12};
  record.sized.best.perf.valid = true;
  record.sized.best.perf.gain_db = 83.25 + static_cast<double>(i);
  record.sized.best.perf.gbw_hz = 1.25e6;
  record.sized.best.perf.pm_deg = 61.5;
  record.sized.best.perf.power_w = 9.5e-5;
  record.sized.best.perf.failure = "";
  record.sized.best.fom = 417.0;
  record.sized.best.margins = {-0.1, -0.2, -0.3, -0.4};
  record.sized.best.feasible = true;
  sizing::EvalPoint failed;
  failed.perf.valid = false;
  failed.perf.failure = "unstable: RHP pole";
  record.sized.history = {failed, record.sized.best};
  return record;
}

void expect_points_equal(const sizing::EvalPoint& a,
                         const sizing::EvalPoint& b) {
  EXPECT_EQ(a.perf, b.perf);
  EXPECT_EQ(a.fom, b.fom);
  EXPECT_EQ(a.margins, b.margins);
  EXPECT_EQ(a.feasible, b.feasible);
}

void expect_records_equal(const core::EvalRecord& a,
                          const core::EvalRecord& b) {
  EXPECT_EQ(a.topology, b.topology);
  EXPECT_EQ(a.sized.topology, b.sized.topology);
  EXPECT_EQ(a.sized.simulations, b.sized.simulations);
  EXPECT_EQ(a.sized.best_values, b.sized.best_values);  // exact doubles
  expect_points_equal(a.sized.best, b.sized.best);
  ASSERT_EQ(a.sized.history.size(), b.sized.history.size());
  for (std::size_t i = 0; i < a.sized.history.size(); ++i) {
    expect_points_equal(a.sized.history[i], b.sized.history[i]);
  }
}

TEST(RecordIo, RoundTripIsExact) {
  const auto key = test_key(7);
  const auto record = test_record(7);
  const std::string payload = store::encode_record(key, record);

  const auto peeked = store::peek_digest(payload);
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(*peeked, key.digest);

  const auto decoded = store::decode_record(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->key.digest, key.digest);
  EXPECT_EQ(decoded->key.fingerprint, key.fingerprint);
  expect_records_equal(decoded->record, record);
}

TEST(RecordIo, RejectsTruncationAndTrailingBytes) {
  const std::string payload =
      store::encode_record(test_key(1), test_record(1));
  for (std::size_t len : {std::size_t{0}, std::size_t{4}, std::size_t{17},
                          payload.size() - 1}) {
    EXPECT_FALSE(store::decode_record(payload.substr(0, len)).has_value())
        << "decoded a truncated payload of " << len << " bytes";
  }
  EXPECT_FALSE(store::decode_record(payload + "x").has_value());
}

TEST(EvalKey, DigestIsCanonicalAndContextSensitive) {
  sizing::EvalContext ctx(circuit::spec_by_name("S-1"));
  sizing::SizingConfig config;
  const core::EvalKeyContext keys(ctx, config);
  const auto nmc = circuit::named_topology("NMC");
  EXPECT_EQ(keys.key_for(nmc).digest, keys.key_for(nmc).digest);
  EXPECT_EQ(keys.key_for(nmc).fingerprint, keys.key_for(nmc).fingerprint);
  EXPECT_NE(keys.key_for(nmc).digest,
            keys.key_for(circuit::named_topology("C1")).digest);

  // A different spec or sizing protocol is a different evaluation identity.
  const core::EvalKeyContext other_spec(
      sizing::EvalContext(circuit::spec_by_name("S-2")), config);
  EXPECT_NE(keys.key_for(nmc).digest, other_spec.key_for(nmc).digest);
  sizing::SizingConfig longer = config;
  longer.iterations += 1;
  const core::EvalKeyContext other_protocol(ctx, longer);
  EXPECT_NE(keys.key_for(nmc).digest, other_protocol.key_for(nmc).digest);
}

TEST(EvalStore, AppendLookupAndReopen) {
  const std::string path = fresh_store("intooa_store_basic.bin");
  {
    auto store = store::EvalStore::open(path);
    EXPECT_EQ(store->size(), 0u);
    EXPECT_FALSE(store->lookup(test_key(0)).has_value());
    EXPECT_TRUE(store->append(test_key(0), test_record(0)));
    EXPECT_TRUE(store->append(test_key(1), test_record(1)));
    EXPECT_FALSE(store->append(test_key(0), test_record(0)))
        << "append must be idempotent per key";
    EXPECT_EQ(store->size(), 2u);

    const auto hit = store->lookup(test_key(1));
    ASSERT_TRUE(hit.has_value());
    expect_records_equal(*hit, test_record(1));
    EXPECT_GE(store->stats().hits, 1u);
  }
  // Records survive close + reopen (index rebuilt by scanning the log).
  auto store = store::EvalStore::open(path);
  EXPECT_EQ(store->size(), 2u);
  const auto hit = store->lookup(test_key(0));
  ASSERT_TRUE(hit.has_value());
  expect_records_equal(*hit, test_record(0));
  EXPECT_EQ(store->stats().recovered_tail_bytes, 0u);
  std::filesystem::remove(path);
}

TEST(EvalStore, DigestCollisionDegradesToMiss) {
  const std::string path = fresh_store("intooa_store_collision.bin");
  auto store = store::EvalStore::open(path);
  ASSERT_TRUE(store->append(test_key(0), test_record(0)));
  core::EvalKey colliding = test_key(0);
  colliding.fingerprint = "different evaluation context";
  EXPECT_FALSE(store->lookup(colliding).has_value());
  std::filesystem::remove(path);
}

TEST(EvalStore, RecoversFromTruncatedTail) {
  const std::string path = fresh_store("intooa_store_trunc.bin");
  {
    auto store = store::EvalStore::open(path);
    ASSERT_TRUE(store->append(test_key(0), test_record(0)));
    ASSERT_TRUE(store->append(test_key(1), test_record(1)));
  }
  // Cut into the middle of the second record (a torn append).
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 11);

  auto store = store::EvalStore::open(path);
  EXPECT_EQ(store->size(), 1u);
  EXPECT_TRUE(store->lookup(test_key(0)).has_value());
  EXPECT_FALSE(store->lookup(test_key(1)).has_value());
  EXPECT_GT(store->stats().recovered_tail_bytes, 0u);
  EXPECT_EQ(std::filesystem::file_size(path), full - 11 -
            store->stats().recovered_tail_bytes)
      << "the corrupt tail must be truncated away";

  // The store stays fully usable: the dropped record can be re-appended.
  EXPECT_TRUE(store->append(test_key(1), test_record(1)));
  EXPECT_EQ(store->size(), 2u);
  std::filesystem::remove(path);
}

TEST(EvalStore, FlippedByteFailsCrcAndEndsValidPrefix) {
  const std::string path = fresh_store("intooa_store_bitrot.bin");
  std::uintmax_t first_two = 0;
  {
    auto store = store::EvalStore::open(path);
    ASSERT_TRUE(store->append(test_key(0), test_record(0)));
    ASSERT_TRUE(store->append(test_key(1), test_record(1)));
    first_two = std::filesystem::file_size(path);
    ASSERT_TRUE(store->append(test_key(2), test_record(2)));
  }
  // Flip one byte inside the third record's payload.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(first_two) + 16);
    char byte = 0;
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(first_two) + 16);
    file.put(static_cast<char>(byte ^ 0x40));
  }

  auto store = store::EvalStore::open(path);
  EXPECT_EQ(store->size(), 2u) << "valid prefix before the flip survives";
  EXPECT_TRUE(store->lookup(test_key(0)).has_value());
  EXPECT_TRUE(store->lookup(test_key(1)).has_value());
  EXPECT_FALSE(store->lookup(test_key(2)).has_value());
  EXPECT_GT(store->stats().recovered_tail_bytes, 0u);
  EXPECT_EQ(std::filesystem::file_size(path), first_two);
  std::filesystem::remove(path);
}

TEST(EvalStore, SingleByteCorruptionRecoversPrefixOrFailsCleanly) {
  const std::string path = fresh_store("intooa_store_fuzz.bin");
  constexpr std::uint64_t kRecords = 4;
  {
    auto store = store::EvalStore::open(path);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(store->append(test_key(i), test_record(i)));
    }
  }
  const std::string pristine = slurp(path);
  ASSERT_FALSE(pristine.empty());

  // Flip one byte anywhere in the file (header included). open() must
  // either refuse cleanly or recover a verified prefix — and any record it
  // does return must survive fingerprint verification and decode exactly.
  util::Rng rng(0xF00DF00DULL);
  for (int round = 0; round < 300; ++round) {
    std::string bytes = pristine;
    const std::size_t offset = rng.next_u64() % bytes.size();
    const char flip = static_cast<char>(1 + rng.next_u64() % 255);
    bytes[offset] = static_cast<char>(bytes[offset] ^ flip);
    spew(path, bytes);
    try {
      auto store = store::EvalStore::open(path);
      EXPECT_LE(store->size(), kRecords);
      for (std::uint64_t i = 0; i < kRecords; ++i) {
        const auto hit = store->lookup(test_key(i));
        if (hit.has_value()) expect_records_equal(*hit, test_record(i));
      }
    } catch (const std::runtime_error&) {
      // Header corruption: a clean refusal is a correct outcome.
    }
  }
  std::filesystem::remove(path);
}

TEST(EvalStore, GoldenFileBytes) {
  // The on-disk format is pinned across commits: these bytes were recorded
  // with the version-1 writer, and no change may alter them.
  const std::string path = fresh_store("intooa_store_golden.bin");
  {
    auto store = store::EvalStore::open(path);
    for (std::uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(store->append(test_key(i), test_record(i)));
    }
  }
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes.size(), 1408u);
  EXPECT_EQ(fnv1a64(bytes), 0xb5c4d3848ca1a01dULL);
  std::filesystem::remove(path);
}

TEST(EvalStore, EmptyFileIsRecoveredToFreshStore) {
  const std::string path = fresh_store("intooa_store_empty.bin");
  { std::ofstream out(path, std::ios::binary); }  // zero-length file
  ASSERT_EQ(std::filesystem::file_size(path), 0u);

  auto store = store::EvalStore::open(path);
  EXPECT_EQ(store->size(), 0u);
  EXPECT_TRUE(store->append(test_key(0), test_record(0)));
  EXPECT_TRUE(store->lookup(test_key(0)).has_value());
  std::filesystem::remove(path);
}

TEST(EvalStore, RejectsForeignFile) {
  const std::string path = fresh_store("intooa_store_foreign.bin");
  {
    std::ofstream out(path);
    out << "this is some other file format, certainly not a store log\n";
  }
  EXPECT_THROW(store::EvalStore::open(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(EvalStore, RejectsIncompatibleVersionWithClearError) {
  const std::string path = fresh_store("intooa_store_version.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "intooa-evalstore";  // correct magic...
    const std::uint32_t version = store::kStoreVersion + 41;
    const std::uint32_t reserved = 0;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&reserved), sizeof(reserved));
  }
  try {
    store::EvalStore::open(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("incompatible"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(store::kStoreVersion + 41)),
              std::string::npos)
        << "error must name the file's version: " << what;
  }
  std::filesystem::remove(path);
}

TEST(EvalStore, TwoHandlesOnOneFileSeeEachOthersAppends) {
  // Two in-process handles stand in for two campaign processes: the second
  // handle must pick up the first's appends (refresh scan) both for
  // duplicate suppression and for lookups.
  const std::string path = fresh_store("intooa_store_shared.bin");
  auto a = store::EvalStore::open(path);
  auto b = store::EvalStore::open(path);
  EXPECT_TRUE(a->append(test_key(0), test_record(0)));
  EXPECT_FALSE(b->append(test_key(0), test_record(0)))
      << "duplicate of a foreign append must be suppressed";
  EXPECT_TRUE(b->append(test_key(1), test_record(1)));
  const auto hit = a->lookup(test_key(1));
  ASSERT_TRUE(hit.has_value());
  expect_records_equal(*hit, test_record(1));
  EXPECT_EQ(a->size(), 2u);
  EXPECT_EQ(b->size(), 2u);
  std::filesystem::remove(path);
}

TEST(EvalStore, ConcurrentCreatorsOfOneFreshFileLoseNoRecords) {
  // Processes released together on a path that does not exist yet must all
  // append into the one file that survives: creation never replaces a file
  // another process already opened. The children only open, append and
  // _exit.
  constexpr std::uint64_t kChildren = 4;
  for (int trial = 0; trial < 20; ++trial) {
    const std::string path = fresh_store("intooa_store_create_race.bin");
    int gate[2];
    ASSERT_EQ(::pipe(gate), 0);
    std::vector<pid_t> children;
    for (std::uint64_t c = 0; c < kChildren; ++c) {
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        ::close(gate[1]);
        char byte = 0;
        // Blocks until the parent closes its end of the pipe.
        [[maybe_unused]] const ssize_t eof = ::read(gate[0], &byte, 1);
        bool ok = false;
        try {
          ok = store::EvalStore::open(path)->append(test_key(c),
                                                    test_record(c));
        } catch (...) {
        }
        ::_exit(ok ? 0 : 1);
      }
      children.push_back(pid);
    }
    ::close(gate[0]);
    ::close(gate[1]);  // releases every child at once
    for (const pid_t pid : children) {
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }
    auto store = store::EvalStore::open(path);
    EXPECT_EQ(store->size(), kChildren) << "trial " << trial;
    for (std::uint64_t c = 0; c < kChildren; ++c) {
      EXPECT_TRUE(store->lookup(test_key(c)).has_value())
          << "trial " << trial << " lost child " << c;
    }
    std::filesystem::remove(path);
  }
}

sizing::SizingConfig fast_sizing() {
  sizing::SizingConfig config;
  config.init_points = 4;
  config.iterations = 4;
  config.candidates = 64;
  return config;
}

core::TopologyEvaluator s1_evaluator() {
  return core::TopologyEvaluator(
      sizing::EvalContext(circuit::spec_by_name("S-1")), fast_sizing());
}

TEST(StoreTier, WarmEvaluatorReplaysColdRunWithoutSizing) {
  const std::string path = fresh_store("intooa_store_warm.bin");
  const auto nmc = circuit::named_topology("NMC");
  const auto c1 = circuit::named_topology("C1");

  auto cold = s1_evaluator();
  store::attach(cold, store::EvalStore::open(path));
  cold.evaluate(nmc);
  cold.evaluate(c1);
  EXPECT_EQ(cold.store_hits(), 0u);

  auto warm = s1_evaluator();
  auto store = store::EvalStore::open(path);
  store::attach(warm, store);
  warm.evaluate(nmc);
  warm.evaluate(c1);
  EXPECT_EQ(warm.store_hits(), 2u) << "both results must come from the store";
  EXPECT_EQ(store->stats().hits, 2u);

  // Byte-identical accounting and results: the warm history replays the
  // cold one exactly (store hits carry their recorded simulation cost).
  EXPECT_EQ(warm.total_simulations(), cold.total_simulations());
  ASSERT_EQ(warm.history().size(), cold.history().size());
  for (std::size_t i = 0; i < cold.history().size(); ++i) {
    expect_records_equal(warm.history()[i], cold.history()[i]);
    EXPECT_EQ(warm.history()[i].sims_before, cold.history()[i].sims_before);
  }
  EXPECT_EQ(warm.fom_curve(), cold.fom_curve());
  std::filesystem::remove(path);
}

TEST(StoreTier, DeterministicSizingMakesStoreUnnecessaryForEquality) {
  // The foundation of warm-start byte-identity: sizing is a pure function
  // of the evaluation key, so two independent evaluators agree exactly even
  // without a store.
  auto a = s1_evaluator();
  auto b = s1_evaluator();
  const auto& ra = a.evaluate(circuit::named_topology("NMC"));
  const auto& rb = b.evaluate(circuit::named_topology("NMC"));
  EXPECT_EQ(ra.best_values, rb.best_values);
  expect_points_equal(ra.best, rb.best);
}

TEST(AtomicWriteFile, WritesContentsAndCreatesParents) {
  const std::string dir = temp_path("intooa_awf_dir");
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/nested/out.txt";
  util::atomic_write_file(path, "first contents\n");
  {
    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents, "first contents\n");
  }
  // Overwrite is atomic-replace, not append.
  util::atomic_write_file(path, "second");
  {
    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents, "second");
  }
  // No temp files left behind.
  std::size_t entries = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/nested")) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
