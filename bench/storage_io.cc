// Durable storage benchmark: what the disk-backed page store costs and
// what the snapshot buys.
//
// Two questions, one JSON line each (plus per-backend read-latency lines):
//
//  1. Cold start — how long until a process can serve its first query?
//     The historical path re-ingests the database and rebuilds the whole
//     index ("build"); the snapshot path opens the store file and reads
//     the saved database + tree pages back ("snapshot_open"). The
//     "speedup" field is build_seconds / open_seconds — the figure the
//     subsystem exists for.
//
//  2. Page read latency — what a buffer-pool miss costs on each backend:
//     mem (a CRC verify of the stored frame) vs disk (one preadv into the
//     caller's frame + the one CRC pass that verifies and seals it), over
//     the same page population, cold pool, uniform random access.
//
// Open times and read latencies are medians over kRepeats runs, with
// the min and max beside them; every line also records the build type,
// the dispatched kernel and CRC32C paths, and the core count. Example:
//
//   {"bench":"storage_io","phase":"cold_start","matrices":120,
//    "build_s":1.2919,"snapshot_save_s":0.0143,"snapshot_open_s":0.0080,
//    "snapshot_open_min_s":0.0078,"snapshot_open_max_s":0.0127,"opens":5,
//    "speedup":162.4,"store_bytes":5205760,"query_parity":1,
//    "build_type":"Release","kernel_backend":"avx2","crc32c":"sse4.2",
//    "nproc":4}
//   {"bench":"storage_io","phase":"read_latency","backend":"disk",
//    "pages":512,"reads":4096,"repeats":5,"ns_per_read":2404.4,
//    "ns_per_read_min":2342.6,"ns_per_read_max":2789.6,"check":533323,
//    ...same provenance fields...}
//
// "query_parity" is asserted, not just reported: the snapshot-reopened
// engine must answer the bench workload identically to the rebuilt one.
// --json_out=FILE appends every line to FILE (e.g. BENCH_storage_io.json)
// so the cold-start trajectory is recorded across PRs.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/crc32c.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "matrix/simd_ops.h"
#include "storage/storage_manager.h"

namespace imgrn {
namespace bench {
namespace {

struct JsonSink {
  std::FILE* file = nullptr;

  void Emit(const std::string& line) {
    std::printf("%s\n", line.c_str());
    if (file != nullptr) {
      std::fprintf(file, "%s\n", line.c_str());
      std::fflush(file);
    }
  }
};

// Snapshot opens and read passes behind each median.
constexpr size_t kRepeats = 5;

// Where a line's numbers come from, as trailing JSON fields.
std::string Provenance() {
  char fields[256];
  std::snprintf(fields, sizeof(fields),
                "\"build_type\":\"%s\",\"kernel_backend\":\"%s\","
                "\"crc32c\":\"%s\",\"nproc\":%u",
                IMGRN_BENCH_BUILD_TYPE,
                KernelBackendName(ActiveKernelBackend()),
                Crc32cBackendName(), std::thread::hardware_concurrency());
  return fields;
}

std::string TempStorePath() {
  return "/tmp/imgrn_bench_storage_" + std::to_string(::getpid()) + ".pages";
}

EngineOptions DiskEngineOptions(const std::string& path, size_t pivots) {
  EngineOptions options;
  options.index.num_pivots = pivots;
  options.storage.backend = StorageBackend::kDisk;
  options.storage.path = path;
  return options;
}

long FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

bool SameMatches(const std::vector<QueryMatch>& a,
                 const std::vector<QueryMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].source != b[i].source || a[i].probability != b[i].probability) {
      return false;
    }
  }
  return true;
}

void BenchColdStart(const BenchDefaults& defaults, size_t pivots,
                    JsonSink* sink) {
  const std::string path = TempStorePath();
  std::remove(path.c_str());

  GeneDatabase database = BuildSyntheticDatabase("uni", defaults);
  const std::vector<ProbGraph> queries = MakeQueryWorkload(database, defaults);
  QueryParams params;
  params.gamma = defaults.gamma;
  params.alpha = defaults.alpha;

  // The historical cold start: ingest + full index build, timed on the
  // disk-backed engine so both paths pay the same storage layer.
  Stopwatch build_timer;
  ImGrnEngine builder(DiskEngineOptions(path, pivots));
  builder.LoadDatabase(std::move(database));
  IMGRN_CHECK_OK(builder.BuildIndex());
  const double build_s = build_timer.ElapsedSeconds();

  std::vector<std::vector<QueryMatch>> built_answers;
  for (const ProbGraph& query : queries) {
    Result<std::vector<QueryMatch>> matches =
        builder.QueryWithGraph(query, params);
    IMGRN_CHECK_OK(matches.status());
    built_answers.push_back(std::move(*matches));
  }

  Stopwatch save_timer;
  IMGRN_CHECK_OK(builder.SaveSnapshot());
  const double save_s = save_timer.ElapsedSeconds();

  // The snapshot cold start: a brand-new engine on the same file. No
  // database ingest, no build — open, verify, serve.
  std::vector<double> open_s;
  bool parity = true;
  for (size_t r = 0; r < kRepeats; ++r) {
    Stopwatch open_timer;
    ImGrnEngine reopened(DiskEngineOptions(path, pivots));
    IMGRN_CHECK_OK(reopened.LoadSnapshot());
    open_s.push_back(open_timer.ElapsedSeconds());

    for (size_t i = 0; i < queries.size(); ++i) {
      Result<std::vector<QueryMatch>> matches =
          reopened.QueryWithGraph(queries[i], params);
      IMGRN_CHECK_OK(matches.status());
      parity = parity && SameMatches(built_answers[i], *matches);
    }
  }
  const Spread open = Summarize(open_s);
  IMGRN_CHECK(parity) << "snapshot-reopened engine diverged from the "
                         "rebuilt engine on the bench workload";

  char line[768];
  std::snprintf(line, sizeof(line),
                "{\"bench\":\"storage_io\",\"phase\":\"cold_start\","
                "\"matrices\":%zu,\"build_s\":%.4f,\"snapshot_save_s\":%.4f,"
                "\"snapshot_open_s\":%.4f,\"snapshot_open_min_s\":%.4f,"
                "\"snapshot_open_max_s\":%.4f,\"opens\":%zu,"
                "\"speedup\":%.1f,\"store_bytes\":%ld,\"query_parity\":%d,"
                "%s}",
                defaults.num_matrices, build_s, save_s, open.median, open.min,
                open.max, kRepeats,
                open.median > 0 ? build_s / open.median : 0.0,
                FileBytes(path), parity ? 1 : 0, Provenance().c_str());
  sink->Emit(line);
  std::remove(path.c_str());
}

void BenchReadLatency(StorageBackend backend, const char* name, size_t pages,
                      size_t reads, JsonSink* sink) {
  StorageOptions options;
  options.backend = backend;
  options.page_size = kDefaultPageSize;
  const std::string path = TempStorePath();
  if (backend == StorageBackend::kDisk) {
    std::remove(path.c_str());
    options.path = path;
    options.unlink_on_close = true;
  }
  Result<std::unique_ptr<StorageManager>> store = OpenStorage(options);
  IMGRN_CHECK_OK(store.status());

  Page frame(kDefaultPageSize);
  for (PageId id = 0; id < pages; ++id) {
    (*store)->Allocate();
    for (size_t i = 0; i < frame.size(); ++i) {
      frame.mutable_data()[i] = static_cast<uint8_t>(id * 131 + i);
    }
    IMGRN_CHECK_OK((*store)->Commit(id, frame));
  }
  IMGRN_CHECK_OK((*store)->Sync());

  // Uniform random reads through the accounted (CRC-verified) path. A
  // fixed LCG keeps the access sequence identical across backends and
  // repetitions.
  Page scratch(kDefaultPageSize);
  std::vector<double> ns_per_read;
  uint64_t checksum = 0;
  for (size_t r = 0; r < kRepeats; ++r) {
    uint64_t state = 0x2017;
    checksum = 0;
    Stopwatch timer;
    for (size_t i = 0; i < reads; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const PageId id = static_cast<PageId>((state >> 33) % pages);
      Result<Page*> page = (*store)->Read(id, &scratch);
      IMGRN_CHECK_OK(page.status());
      checksum += (*page)->data()[0];
    }
    ns_per_read.push_back(timer.ElapsedSeconds() / reads * 1e9);
  }
  const Spread ns = Summarize(ns_per_read);

  char line[512];
  std::snprintf(line, sizeof(line),
                "{\"bench\":\"storage_io\",\"phase\":\"read_latency\","
                "\"backend\":\"%s\",\"pages\":%zu,\"reads\":%zu,"
                "\"repeats\":%zu,\"ns_per_read\":%.1f,"
                "\"ns_per_read_min\":%.1f,\"ns_per_read_max\":%.1f,"
                "\"check\":%llu,%s}",
                name, pages, reads, kRepeats, ns.median, ns.min, ns.max,
                static_cast<unsigned long long>(checksum),
                Provenance().c_str());
  sink->Emit(line);
}

int Main(int argc, char** argv) {
  Flags flags(
      argc, argv,
      {{"matrices", "120 | synthetic database size for the cold-start phase"},
       {"pivots", "2 | pivots per source"},
       {"pages", "512 | page population for the read-latency phase"},
       {"reads", "4096 | random page reads per backend"},
       {"json_out", " | append every JSON line to this file as well"}});

  BenchDefaults defaults;
  defaults.num_matrices = static_cast<size_t>(flags.GetInt("matrices"));
  defaults.num_queries = 10;

  JsonSink sink;
  const std::string json_out = flags.GetString("json_out");
  if (!json_out.empty()) {
    sink.file = std::fopen(json_out.c_str(), "a");
    if (sink.file == nullptr) {
      std::fprintf(stderr, "cannot open --json_out=%s\n", json_out.c_str());
      return 1;
    }
  }

  PrintHeader("storage_io",
              "durable storage: snapshot cold start vs rebuild, and "
              "per-backend page read latency",
              "matrices=" + std::to_string(defaults.num_matrices) +
                  " pages=" + std::to_string(flags.GetInt("pages")) +
                  " reads=" + std::to_string(flags.GetInt("reads")));

  BenchColdStart(defaults, static_cast<size_t>(flags.GetInt("pivots")),
                 &sink);
  const size_t pages = static_cast<size_t>(flags.GetInt("pages"));
  const size_t reads = static_cast<size_t>(flags.GetInt("reads"));
  BenchReadLatency(StorageBackend::kMemory, "mem", pages, reads, &sink);
  BenchReadLatency(StorageBackend::kDisk, "disk", pages, reads, &sink);

  if (sink.file != nullptr) std::fclose(sink.file);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace imgrn

int main(int argc, char** argv) { return imgrn::bench::Main(argc, argv); }
