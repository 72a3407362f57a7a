// End-to-end benchmark of the Hive simulator's three drivers: a default-mix
// fault campaign, a reboot-storm sweep and 8-cell hive_serve soak windows.
//
//   hive_perfbench --workload campaign|storm|soak --seed N --seconds S --trace 0|1
//   hive_perfbench --self-test
//
// One process, one thread. A run repeats whole rounds of operations, as many
// as fill --seconds at the workload's typical speed, then checks the outputs
// and prints one JSON line: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// base::SimProfile is active around every operation, layer probes run, and
// the metrics are per layer.
// README.md in this directory explains the workloads and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/sim_profile.h"
#include "src/campaign/runner.h"
#include "src/campaign/scenario.h"
#include "src/core/hive_system.h"
#include "src/flash/event_queue.h"
#include "src/flash/machine.h"
#include "src/serve/serve.h"
#include "src/workloads/workload.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// SplitMix64: the benchmark's own input stream, independent of any generator
// inside the program under test.
uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(values.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// ---------------------------------------------------------------------------
// Independent output checks. Each returns an empty string when the check
// holds and a description of the mismatch otherwise; --self-test feeds every
// one of them a bad input to show it can fail.

// Cells a fault plan can kill: one per distinct victim of a fail-stop,
// address-map, wild-write or rogue fault, plus one per reboot-storm cycle,
// capped at the cell count. False accusations and message faults kill no one.
int MaxKillable(const campaign::ScenarioSpec& spec) {
  std::vector<hive::CellId> victims;
  int storm_kills = 0;
  for (const campaign::FaultSpec& fault : spec.faults) {
    switch (fault.kind) {
      case campaign::FaultKind::kNodeFailure:
      case campaign::FaultKind::kAddrMapCorruption:
      case campaign::FaultKind::kWildWrite:
      case campaign::FaultKind::kRogueCell:
        if (std::find(victims.begin(), victims.end(), fault.victim) == victims.end()) {
          victims.push_back(fault.victim);
        }
        break;
      case campaign::FaultKind::kRebootStorm:
        storm_kills += static_cast<int>(fault.storm_cycles);
        break;
      case campaign::FaultKind::kFalseAccusation:
      case campaign::FaultKind::kMessageFaults:
        break;
    }
  }
  return std::min(spec.num_cells, static_cast<int>(victims.size()) + storm_kills);
}

std::string CheckExcisions(const campaign::ScenarioSpec& spec, int excisions) {
  const int bound = MaxKillable(spec);
  if (excisions <= bound) {
    return "";
  }
  return "scenario " + std::to_string(spec.index) + " excised " + std::to_string(excisions) +
         " cells; its fault plan can kill " + std::to_string(bound);
}

std::string CheckServeTotals(const serve::ServeResult& result) {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  for (const serve::ServeCellSummary& cell : result.cells) {
    submitted += cell.submitted;
    completed += cell.completed;
  }
  if (submitted == result.submitted && completed == result.completed) {
    return "";
  }
  return "per-cell totals " + std::to_string(submitted) + "/" + std::to_string(completed) +
         " != request totals " + std::to_string(result.submitted) + "/" +
         std::to_string(result.completed) + " (submitted/completed)";
}

// Outcome of one operation that a re-run must reproduce exactly.
struct Outcome {
  uint64_t fingerprint = 0;
  uint64_t events = 0;
  bool threw = false;
};

std::string CheckRepeat(const Outcome& first, const Outcome& again) {
  if (first.fingerprint == again.fingerprint && first.events == again.events &&
      first.threw == again.threw) {
    return "";
  }
  return "re-run differs: fingerprint " + std::to_string(first.fingerprint) + " vs " +
         std::to_string(again.fingerprint) + ", events " + std::to_string(first.events) +
         " vs " + std::to_string(again.events);
}

std::string CheckPatternPrefix(const std::vector<uint8_t>& ref, const std::vector<uint8_t>& data) {
  if (ref.size() >= data.size() && std::equal(data.begin(), data.end(), ref.begin())) {
    return "";
  }
  return "PatternRef prefix differs from PatternData (" + std::to_string(data.size()) + " bytes)";
}

std::string CheckPatternChecksum(uint64_t pattern_checksum, uint64_t checksum) {
  if (pattern_checksum == checksum) {
    return "";
  }
  return "PatternChecksum " + std::to_string(pattern_checksum) + " != Checksum(PatternData) " +
         std::to_string(checksum);
}

// One dispatched microbench event: its timestamp and its schedule order.
struct Fired {
  flash::Time when = 0;
  uint64_t order = 0;
};

std::string CheckEventOrder(const std::vector<Fired>& fired, size_t scheduled) {
  if (fired.size() != scheduled) {
    return "event queue ran " + std::to_string(fired.size()) + " of " +
           std::to_string(scheduled) + " events";
  }
  for (size_t i = 1; i < fired.size(); ++i) {
    const Fired& a = fired[i - 1];
    const Fired& b = fired[i];
    if (a.when > b.when || (a.when == b.when && a.order > b.order)) {
      return "event queue left (time, FIFO) order at event " + std::to_string(i);
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Workloads. A round is a fixed list of operations, the same in every round of
// a run, so the failed share of attempted is the same in every run and each
// operation's host time can be compared across rounds.

// Totals of one operation (or one round of them).
struct Tally {
  uint64_t attempted = 0;  // Operations: scenarios, or soak requests.
  uint64_t failed = 0;
  uint64_t completed = 0;  // Scenarios or soak windows that ran to their end.
  double sim_s = 0;        // Simulated seconds advanced.
  double host_s = 0;

  void Add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    completed += other.completed;
    sim_s += other.sim_s;
    host_s += other.host_s;
  }
};

// Totals the traced run reports as per-layer metrics.
struct LayerTotals {
  uint64_t events = 0;
  double sim_s = 0;
  uint64_t pages_salvaged = 0;
  std::vector<double> op_ms;  // Host ms per untraced operation.
  double untraced_s = 0;
  double traced_s = 0;
  // Soak outcomes.
  uint64_t requests_completed = 0;
  uint64_t requests_lost = 0;
  uint64_t shed = 0;
  base::Histogram latency;
  double availability_min = 1.0;
  double recovery_ms_max = 0;
  uint64_t slo_violations = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual size_t OpCount() const = 0;
  // Runs operation `op` of the round and stores what a re-run must repeat in
  // `outcome`. In a traced run (`profile` set) the operation runs twice,
  // untraced and under the profile, in the order `flip` picks; the two runs
  // must agree exactly.
  virtual Tally RunOp(size_t op, bool flip, base::SimProfile* profile, LayerTotals* layers,
                      Outcome* outcome) = 0;
  // Typical host seconds of one untraced round; sets the number of rounds.
  virtual double NominalRoundSeconds() const = 0;

  void Expect(const std::string& error) {
    if (!error.empty() && errors.size() < 8) {
      errors.push_back(error);
    }
  }

  std::vector<std::string> errors;
};

// Runs `op` once, or in a traced run twice: untraced and under a fresh
// SimProfile merged into `profile`, traced first when `flip` is set. Returns
// the untraced host seconds.
template <typename Op>
double TimedOp(Op&& op, bool flip, base::SimProfile* profile, LayerTotals* layers) {
  if (profile == nullptr) {
    const Clock::time_point start = Clock::now();
    op(false);
    return SecondsSince(start);
  }
  double plain_s = 0;
  double traced_s = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const bool traced = (pass == 0) == flip;
    base::SimProfile one;
    if (traced) {
      base::SimProfile::SetActive(&one);
      one.Begin();
    }
    const Clock::time_point start = Clock::now();
    op(traced);
    const double elapsed = SecondsSince(start);
    if (traced) {
      one.End();
      base::SimProfile::SetActive(nullptr);
      profile->Merge(one);
      traced_s = elapsed;
    } else {
      plain_s = elapsed;
    }
  }
  layers->untraced_s += plain_s;
  layers->traced_s += traced_s;
  layers->op_ms.push_back(plain_s * 1e3);
  return plain_s;
}

// `campaign` and `storm`: scenarios drawn from a fixed pool of generated
// scenarios; --seed picks which ones and their order.
class SweepWorkload : public Workload {
 public:
  // The pool: scenarios [0, kPoolSize) of master seed 1, on the default fault
  // mix or as reboot storms. Scenario 693 of the default-mix sweep aborts with
  // a flash::BusError from KernelHeap::ReadTypeTag during
  // RecoveryManager::PhaseKillDependents teardown. It is left out of the
  // drawn scenarios and run instead as the last operation of every campaign
  // round, so the abort counts as one failed operation per round until the
  // simulator turns it into a cell panic.
  static constexpr uint64_t kPoolMaster = 1;
  static constexpr uint64_t kPoolSize = 2500;
  static constexpr uint64_t kKnownAbortIndex = 693;

  SweepWorkload(uint64_t seed, bool storm) : storm_(storm) {
    campaign::GeneratorOptions options;
    options.reboot_storm_only = storm;
    for (uint64_t index = 0; index < kPoolSize; ++index) {
      if (!storm && index == kKnownAbortIndex) {
        continue;
      }
      pool_.push_back(campaign::GenerateScenario(kPoolMaster, index, options));
    }
    // Partial Fisher-Yates: order[i] is the pool entry drawn i-th.
    std::vector<size_t> order(pool_.size());
    std::iota(order.begin(), order.end(), 0);
    uint64_t state = seed;
    for (size_t i = 0; i < (storm ? kStormDraw : kCampaignDraw); ++i) {
      std::swap(order[i], order[i + SplitMix(&state) % (order.size() - i)]);
      round_.push_back(&pool_[order[i]]);
    }
    if (!storm) {
      known_abort_ = campaign::GenerateScenario(kPoolMaster, kKnownAbortIndex);
      round_.push_back(&known_abort_);
    }
  }

  // Runs a few pool scenarios untimed. Set-up stays short (tens of ms), so
  // work a change moves into set-up shows in setup_s.
  void WarmUp() {
    for (size_t i = 0; i < 8; ++i) {
      campaign::RunScenario(pool_[i]);
    }
  }

  size_t OpCount() const override { return round_.size(); }

  Tally RunOp(size_t op, bool flip, base::SimProfile* profile, LayerTotals* layers,
              Outcome* outcome) override {
    const campaign::ScenarioSpec& spec = *round_[op];
    Outcome traced;
    campaign::ScenarioResult result;
    Tally out;
    out.host_s = TimedOp(
        [&](bool is_traced) {
          Outcome& into = is_traced ? traced : *outcome;
          try {
            result = campaign::RunScenario(spec);
            into.fingerprint = result.fingerprint;
            into.events = result.events_run;
          } catch (...) {
            into.threw = true;
          }
        },
        flip, profile, layers);
    if (profile != nullptr) {
      Expect(CheckRepeat(*outcome, traced));
    }
    out.attempted = 1;
    bool failed = outcome->threw;
    if (!outcome->threw) {
      const std::string excision_error = CheckExcisions(spec, result.excisions);
      Expect(excision_error);
      failed = result.violated() || !excision_error.empty();
      out.sim_s = static_cast<double>(result.end_time) / 1e9;
      if (layers != nullptr) {
        layers->events += result.events_run;
        layers->sim_s += out.sim_s;
        layers->pages_salvaged += static_cast<uint64_t>(result.pages_salvaged);
      }
    }
    out.failed = failed ? 1 : 0;
    out.completed = failed ? 0 : 1;
    return out;
  }

  double NominalRoundSeconds() const override { return storm_ ? 3.4 : 3.0; }

 private:
  // Scenarios drawn per round: about 3 host seconds, so a 30 s run has eight
  // to ten rounds to take each scenario's best time from.
  static constexpr size_t kCampaignDraw = 640;
  static constexpr size_t kStormDraw = 480;

  bool storm_;
  std::vector<campaign::ScenarioSpec> pool_;
  std::vector<const campaign::ScenarioSpec*> round_;
  campaign::ScenarioSpec known_abort_;
};

// `soak`: one 8-cell serve::RunSoak window per operation, the same three
// windows in every run; --seed sets their order. Windows of different soak
// seeds differ in host cost and peak resident set by up to about 18%, so
// letting the seed choose them would make the figures follow the draw.
class SoakWorkload : public Workload {
 public:
  static constexpr int kCells = 8;
  static constexpr hive::Time kWindow = 180 * hive::kSecond;
  // Soak seed 1 is left out: its 240 s window at 8 cells reads a freed
  // Process in HiveSystem::NotifyExit under AddressSanitizer, and such a
  // window may crash the process. These three run clean under
  // AddressSanitizer, at 180 s and (seed 2) at the 5 s warm-up.
  static constexpr uint64_t kSeeds[] = {2, 3, 4};

  explicit SoakWorkload(uint64_t seed) : windows_(std::begin(kSeeds), std::end(kSeeds)) {
    uint64_t state = seed;
    for (size_t i = windows_.size() - 1; i > 0; --i) {
      std::swap(windows_[i], windows_[SplitMix(&state) % (i + 1)]);
    }
  }

  static serve::ServeOptions Options(uint64_t window_seed, hive::Time duration) {
    serve::ServeOptions options;
    options.seed = window_seed;
    options.num_cells = kCells;
    options.duration_ns = duration;
    return options;
  }

  // A short window of soak seed 2, untimed.
  void WarmUp() { serve::RunSoak(Options(kSeeds[0], 5 * hive::kSecond)); }

  size_t OpCount() const override { return windows_.size(); }

  // A window counts its submitted requests as operations.
  Tally RunOp(size_t op, bool flip, base::SimProfile* profile, LayerTotals* layers,
              Outcome* outcome) override {
    const serve::ServeOptions options = Options(windows_[op], kWindow);
    serve::ServeResult plain;
    serve::ServeResult traced;
    Tally out;
    out.host_s = TimedOp(
        [&](bool is_traced) { (is_traced ? traced : plain) = serve::RunSoak(options); }, flip,
        profile, layers);
    // RunSoak reports no event count; the request count stands in for it.
    *outcome = {plain.fingerprint, plain.submitted, false};
    if (profile != nullptr) {
      Expect(CheckRepeat(*outcome, {traced.fingerprint, traced.submitted, false}));
    }
    const std::string totals_error = CheckServeTotals(plain);
    Expect(totals_error);
    out.attempted = plain.submitted;
    // A hung request is a failure; a request lost to an injected fault is the
    // fault model at work. A window whose totals disagree fails entirely.
    out.failed = totals_error.empty() ? plain.hung : plain.submitted;
    out.completed = 1;
    out.sim_s = static_cast<double>(kWindow) / 1e9;
    if (layers != nullptr) {
      layers->sim_s += out.sim_s;
      layers->requests_completed += plain.completed;
      layers->requests_lost += plain.lost;
      layers->shed += plain.shed;
      layers->latency.Merge(plain.latency);
      layers->availability_min = std::min(layers->availability_min, plain.availability_min);
      for (hive::Time duration : plain.recovery_durations) {
        layers->recovery_ms_max =
            std::max(layers->recovery_ms_max, static_cast<double>(duration) / 1e6);
      }
      layers->slo_violations += plain.violations.size();
    }
    return out;
  }

  double NominalRoundSeconds() const override { return 5.0; }

 private:
  std::vector<uint64_t> windows_;
};

// ---------------------------------------------------------------------------
// Layer probes (traced run) and the checks they share with every run.

struct Probes {
  double boot_us[3] = {0, 0, 0};  // 2, 4 and 8 cells.
  double pattern_mb_per_s = 0;
  double checksum_mb_per_s = 0;
  double event_ns = 0;
  double generate_us = 0;
};

constexpr int kBootCells[3] = {2, 4, 8};

// Median host µs of Machine + HiveSystem construction and Boot.
double ProbeBoot(int cells, uint64_t seed) {
  constexpr int kReps = 25;
  std::vector<double> us;
  for (int rep = -2; rep < kReps; ++rep) {
    flash::MachineConfig config;
    config.num_nodes = cells;
    config.cpus_per_node = 1;
    config.memory_per_node = 16ull * 1024 * 1024;
    hive::HiveOptions options;
    options.num_cells = cells;
    const Clock::time_point start = Clock::now();
    auto machine = std::make_unique<flash::Machine>(config, seed + static_cast<uint64_t>(rep + 2));
    auto sys = std::make_unique<hive::HiveSystem>(machine.get(), options);
    sys->Boot();
    const double elapsed = SecondsSince(start);
    if (rep >= 0) {
      us.push_back(elapsed * 1e6);
    }
  }
  return Median(us);
}

// Schedules `count` events in batches with interleaved, partly equal
// timestamps, runs them and records the dispatch order.
std::vector<Fired> RunEventQueue(size_t count, double* ns_per_event) {
  constexpr size_t kBatch = 4096;
  std::vector<Fired> fired;
  fired.reserve(count);
  flash::EventQueue queue;
  const Clock::time_point start = Clock::now();
  for (size_t done = 0; done < count; done += kBatch) {
    const flash::Time base = queue.Now();
    for (size_t i = 0; i < kBatch && done + i < count; ++i) {
      const flash::Time when = base + (i % 16) * 1000;
      const uint64_t order = done + i;
      std::vector<Fired>* sink = &fired;
      queue.ScheduleAt(when, [sink, when, order] { sink->push_back({when, order}); });
    }
    queue.Run();
  }
  *ns_per_event = SecondsSince(start) * 1e9 / static_cast<double>(count);
  return fired;
}

// Checks every run makes on the workload harness and the event queue; with
// `probes` set (traced run) it also times them.
void CheckLayers(uint64_t seed, Probes* probes, std::vector<std::string>* errors) {
  auto expect = [errors](const std::string& error) {
    if (!error.empty()) {
      errors->push_back(error);
    }
  };
  constexpr size_t kChunk = 4096;  // The workloads' I/O chunk.
  constexpr size_t kStream = 256 * 1024;
  constexpr int kStreams = 32;
  uint64_t state = seed;
  // PatternRef grown one I/O chunk at a time, as producers and validators do.
  const Clock::time_point pattern_start = Clock::now();
  for (int s = 0; s < kStreams; ++s) {
    const uint64_t stream = SplitMix(&state);
    for (size_t size = kChunk; size <= kStream; size += kChunk) {
      workloads::PatternRef(stream, size);
    }
  }
  const double pattern_s = SecondsSince(pattern_start);
  for (int s = 0; s < 4; ++s) {
    const uint64_t stream = SplitMix(&state);
    const size_t size = kChunk * (1 + SplitMix(&state) % 64) + SplitMix(&state) % kChunk;
    const std::vector<uint8_t>& ref = workloads::PatternRef(stream, size);
    expect(CheckPatternPrefix(ref, workloads::PatternData(stream, size)));
    expect(CheckPatternChecksum(workloads::PatternChecksum(stream, size),
                                workloads::Checksum(workloads::PatternData(stream, size))));
  }
  constexpr int kChecksumReps = 16;
  const std::vector<uint8_t> data = workloads::PatternData(SplitMix(&state), 1 << 20);
  uint64_t sink = 0;
  const Clock::time_point checksum_start = Clock::now();
  for (int rep = 0; rep < kChecksumReps; ++rep) {
    sink ^= workloads::Checksum(data);
  }
  const double checksum_s = SecondsSince(checksum_start);
  if (sink == 0x5eed) {
    std::fprintf(stderr, "checksum sink\n");  // Keeps the loop observable.
  }

  constexpr size_t kEvents = 1 << 20;
  double ns = 0;
  expect(CheckEventOrder(RunEventQueue(kEvents, &ns), kEvents));
  if (probes == nullptr) {
    return;
  }
  probes->pattern_mb_per_s = kStreams * static_cast<double>(kStream) / pattern_s / 1e6;
  probes->checksum_mb_per_s = kChecksumReps * static_cast<double>(data.size()) / checksum_s / 1e6;
  std::vector<double> event_ns = {ns};
  for (int rep = 0; rep < 4; ++rep) {
    RunEventQueue(kEvents, &ns);
    event_ns.push_back(ns);
  }
  probes->event_ns = Median(event_ns);
  for (int i = 0; i < 3; ++i) {
    probes->boot_us[i] = ProbeBoot(kBootCells[i], seed);
  }
  constexpr uint64_t kGenerated = 2000;
  const Clock::time_point generate_start = Clock::now();
  for (uint64_t index = 0; index < kGenerated; ++index) {
    const campaign::ScenarioSpec spec = campaign::GenerateScenario(seed, index);
    sink ^= spec.seed;
  }
  probes->generate_us = SecondsSince(generate_start) * 1e6 / kGenerated;
  if (sink == 0x5eed) {
    std::fprintf(stderr, "generate sink\n");
  }
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

std::vector<Metric> LayerMetrics(const base::SimProfile& profile, const LayerTotals& layers,
                                 const Probes& probes) {
  std::vector<Metric> out = {
      {"core.boot_us.2cells", probes.boot_us[0], "us"},
      {"core.boot_us.4cells", probes.boot_us[1], "us"},
      {"core.boot_us.8cells", probes.boot_us[2], "us"},
      {"workloads.pattern_mb_per_s", probes.pattern_mb_per_s, "MB/s"},
      {"workloads.checksum_mb_per_s", probes.checksum_mb_per_s, "MB/s"},
      {"other.self_s", static_cast<double>(profile.ns(base::SimSubsystem::kOther)) / 1e9, "s"},
  };
  const std::pair<const char*, base::SimSubsystem> rows[] = {
      {"core.vm_fault", base::SimSubsystem::kVmFault},
      {"core.scheduler", base::SimSubsystem::kScheduler},
      {"core.filesystem", base::SimSubsystem::kFilesystem},
      {"core.careful_rpc", base::SimSubsystem::kCarefulRpc},
      {"core.recovery", base::SimSubsystem::kRecovery},
      {"flash.sips", base::SimSubsystem::kSips},
  };
  for (const auto& [name, subsystem] : rows) {
    out.push_back({std::string(name) + ".self_s",
                   static_cast<double>(profile.ns(subsystem)) / 1e9, "s"});
    out.push_back({std::string(name) + ".ops", static_cast<double>(profile.ops(subsystem)),
                   "count"});
  }
  const double untraced_ns = layers.untraced_s * 1e9;
  const double latency_count = static_cast<double>(layers.latency.count());
  auto latency_ms = [&](double p) {
    return latency_count > 0 ? static_cast<double>(layers.latency.Percentile(p)) / 1e6 : 0.0;
  };
  const std::vector<Metric> rest = {
      {"flash.event_queue.ns_per_event", probes.event_ns, "ns"},
      {"flash.events", static_cast<double>(layers.events), "count"},
      {"flash.host_ns_per_event",
       layers.events > 0 ? untraced_ns / static_cast<double>(layers.events) : 0.0, "ns"},
      {"campaign.generate_us", probes.generate_us, "us"},
      {"campaign.scenario_ms_p50", Percentile(layers.op_ms, 50), "ms"},
      {"campaign.scenario_ms_p99", Percentile(layers.op_ms, 99), "ms"},
      {"campaign.sim_s", layers.sim_s, "s"},
      {"campaign.pages_salvaged", static_cast<double>(layers.pages_salvaged), "count"},
      {"serve.requests_completed", static_cast<double>(layers.requests_completed), "count"},
      {"serve.requests_lost", static_cast<double>(layers.requests_lost), "count"},
      {"serve.shed", static_cast<double>(layers.shed), "count"},
      {"serve.sim_latency_p50_ms", latency_ms(50), "ms"},
      {"serve.sim_latency_p99_ms", latency_ms(99), "ms"},
      {"serve.sim_latency_p999_ms", latency_ms(99.9), "ms"},
      {"serve.availability_min", latency_count > 0 ? layers.availability_min : 0.0, "ratio"},
      {"serve.recovery_ms_max", layers.recovery_ms_max, "ms"},
      {"serve.slo_violations", static_cast<double>(layers.slo_violations), "count"},
      {"base.sim_profile.overhead",
       layers.untraced_s > 0 ? layers.traced_s / layers.untraced_s - 1 : 0.0, "ratio"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

// ---------------------------------------------------------------------------
// Self-test: every independent check must reject a bad input.

int SelfTest() {
  int broken = 0;
  auto must_fail = [&broken](const char* name, const std::string& error) {
    std::printf("%-22s %s\n", name, error.empty() ? "MISSED a bad input" : error.c_str());
    broken += error.empty() ? 1 : 0;
  };
  auto must_pass = [&broken](const char* name, const std::string& error) {
    if (!error.empty()) {
      std::printf("%-22s rejected a good input: %s\n", name, error.c_str());
      ++broken;
    }
  };

  const campaign::ScenarioSpec spec = campaign::GenerateScenario(1, 0);
  must_pass("excision-bound", CheckExcisions(spec, MaxKillable(spec)));
  must_fail("excision-bound", CheckExcisions(spec, MaxKillable(spec) + 1));

  serve::ServeResult serve_result;
  serve_result.cells.resize(2);
  serve_result.cells[0].submitted = 3;
  serve_result.cells[0].completed = 2;
  serve_result.cells[1].submitted = 4;
  serve_result.cells[1].completed = 4;
  serve_result.submitted = 7;
  serve_result.completed = 6;
  must_pass("serve-totals", CheckServeTotals(serve_result));
  serve_result.completed = 7;
  must_fail("serve-totals", CheckServeTotals(serve_result));

  must_pass("repeat", CheckRepeat({1, 2, false}, {1, 2, false}));
  must_fail("repeat", CheckRepeat({1, 2, false}, {1, 3, false}));
  must_fail("repeat", CheckRepeat({1, 2, false}, {9, 2, false}));

  const std::vector<uint8_t> data = workloads::PatternData(7, 9000);
  must_pass("pattern-prefix", CheckPatternPrefix(workloads::PatternRef(7, 9000), data));
  std::vector<uint8_t> bad = data;
  bad[4321] ^= 1;
  must_fail("pattern-prefix", CheckPatternPrefix(bad, data));

  must_pass("pattern-checksum",
            CheckPatternChecksum(workloads::PatternChecksum(7, 9000), workloads::Checksum(data)));
  must_fail("pattern-checksum",
            CheckPatternChecksum(workloads::PatternChecksum(7, 9000), workloads::Checksum(bad)));

  double ns = 0;
  std::vector<Fired> fired = RunEventQueue(8192, &ns);
  must_pass("event-order", CheckEventOrder(fired, 8192));
  std::swap(fired[10], fired[11]);  // Same timestamp, FIFO order broken.
  must_fail("event-order", CheckEventOrder(fired, 8192));
  std::swap(fired[10], fired[11]);
  std::swap(fired[0], fired[4095]);  // Timestamp order broken.
  must_fail("event-order", CheckEventOrder(fired, 8192));
  must_fail("event-order", CheckEventOrder(fired, 8193));

  std::printf("self-test: %s\n", broken == 0 ? "every check rejects its bad input" : "FAILED");
  return broken == 0 ? 0 : 1;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    const unsigned long long number = std::strtoull(value.c_str(), &end, 10);
    const bool numeric = !value.empty() && *end == '\0';
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed" && numeric) {
      args->seed = number;
    } else if (flag == "--seconds" && numeric && number >= 1 && number <= 3600) {
      args->seconds = static_cast<int>(number);
    } else if (flag == "--trace" && numeric && number <= 1) {
      args->trace = number == 1;
    } else {
      return false;
    }
  }
  return args->self_test ||
         args->workload == "campaign" || args->workload == "storm" || args->workload == "soak";
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hive_perfbench --workload campaign|storm|soak --seed N "
                 "--seconds S --trace 0|1\n"
                 "       hive_perfbench --self-test\n");
    return 2;
  }
  if (args.self_test) {
    return SelfTest();
  }

  // Set-up: input generation plus a warm-up that fills the allocator and the
  // workload harness's pattern cache before anything is timed.
  std::unique_ptr<Workload> workload;
  if (args.workload == "soak") {
    auto soak = std::make_unique<SoakWorkload>(args.seed);
    soak->WarmUp();
    workload = std::move(soak);
  } else {
    auto sweep = std::make_unique<SweepWorkload>(args.seed, args.workload == "storm");
    sweep->WarmUp();
    workload = std::move(sweep);
  }
  const double setup_s = SecondsSince(process_start);

  base::SimProfile profile;
  LayerTotals layers;
  base::SimProfile* active = args.trace ? &profile : nullptr;
  LayerTotals* totals = args.trace ? &layers : nullptr;
  const size_t ops = workload->OpCount();
  // Per operation: its least host time over the rounds, and the outcome of
  // its first run, which every later round must repeat exactly.
  std::vector<double> best(ops, 1e300);
  std::vector<Outcome> first(ops);
  Tally all;
  Tally round_tally;
  // The number of rounds follows from --seconds and the workload's typical
  // round time, not from the clock: every operation's best time is then a
  // best of the same number of runs whatever the speed of the code, and the
  // op counts repeat exactly. A traced run does every operation twice, so it
  // does half as many rounds (at least one); an untraced run does at least
  // two, so every operation is re-run once.
  const double nominal_rounds = args.seconds / workload->NominalRoundSeconds();
  const uint64_t target_rounds =
      args.trace ? std::max<uint64_t>(1, static_cast<uint64_t>(nominal_rounds / 2))
                 : std::max<uint64_t>(2, static_cast<uint64_t>(nominal_rounds));
  uint64_t rounds = 0;
  while (rounds < target_rounds) {
    round_tally = Tally();
    for (size_t op = 0; op < ops; ++op) {
      Outcome outcome;
      const Tally tally = workload->RunOp(op, (rounds + op) % 2 == 1, active, totals, &outcome);
      best[op] = std::min(best[op], tally.host_s);
      round_tally.Add(tally);
      if (rounds == 0) {
        first[op] = outcome;
      } else {
        workload->Expect(CheckRepeat(first[op], outcome));
      }
    }
    all.Add(round_tally);
    ++rounds;
    std::fprintf(stderr, "round %llu: %.3f s\n", static_cast<unsigned long long>(rounds),
                 round_tally.host_s);
  }
  // Read before the layer checks below, whose own buffers would otherwise
  // set the peak.
  const double peak_rss_mb = PeakRssMb();

  Probes probes;
  CheckLayers(args.seed, args.trace ? &probes : nullptr, &workload->errors);
  for (const std::string& error : workload->errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }

  // Throughput from each operation's fastest round: on a shared host, other
  // load slows the same work in spells of seconds, and the best of several
  // spaced repetitions is the estimate least disturbed by them.
  double best_s = 0;
  for (double seconds : best) {
    best_s += seconds;
  }
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = LayerMetrics(profile, layers, probes);
  } else {
    metrics = {
        {"scenarios_per_s", static_cast<double>(round_tally.completed) / best_s, "1/s"},
        {"sim_s_per_host_s", round_tally.sim_s / best_s, "s/s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"setup_s", setup_s, "s"},
    };
  }
  PrintResult(workload->errors.empty(), all.attempted, all.failed, metrics);
  return 0;
}
