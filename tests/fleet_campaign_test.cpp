// The fleet-telemetry determinism gate: a seeded multi-thousand-session
// campaign fanned across sim::ParallelExecutor must produce per-cohort
// rollup JSON that is byte-identical across thread counts (1/2/8) and
// across shard merge order. This is the end-to-end property everything
// under src/obs builds toward (ExactSum, Sketch, order-insensitive
// TelemetrySink) - see docs/observability.md, "Fleet telemetry".
//
// Fixed host timing is armed for the whole campaign: modeled compute
// times must come from sim::SetFixedHostTimingMs, not live wall-clock
// measurement, or per-record phase*_compute_ms would vary with load
// and the byte-identity claim would be vacuously false.
//
// Session count: >= 10k by default, trimmed under sanitizers (TSan is
// ~20x slower) and overridable with WEARLOCK_CAMPAIGN_SESSIONS for
// quick local runs or bigger soak campaigns.
#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/record.h"
#include "obs/rollup.h"
#include "protocol/session.h"
#include "sim/device.h"
#include "sim/executor.h"
#include "sim/parse.h"

namespace wearlock {
namespace {

using protocol::ScenarioConfig;

/// One campaign cell: the cohort axes the grid sweeps.
struct Cell {
  int config_id;
  audio::Environment environment;
  double distance_m;
  bool same_body;
};

std::vector<Cell> CampaignGrid() {
  // 3 configs x 2 environments x 2 distances, genuine everywhere plus
  // an impostor population in the nearest quiet cell (the
  // false-accept CI needs impostor trials to be meaningful).
  std::vector<Cell> grid;
  for (int config_id : {1, 2, 3}) {
    for (const audio::Environment env :
         {audio::Environment::kQuietRoom, audio::Environment::kOffice}) {
      for (const double distance : {0.3, 0.6}) {
        grid.push_back({config_id, env, distance, true});
      }
    }
    grid.push_back({config_id, audio::Environment::kQuietRoom, 0.3, false});
  }
  return grid;
}

ScenarioConfig ConfigFor(const Cell& cell) {
  ScenarioConfig config = ScenarioConfig::Config1();
  if (cell.config_id == 2) config = ScenarioConfig::Config2();
  if (cell.config_id == 3) config = ScenarioConfig::Config3();
  config.scene.environment = cell.environment;
  config.scene.distance_m = cell.distance_m;
  config.same_body = cell.same_body;
  return config;
}

std::size_t CampaignSessions() {
  if (const std::optional<std::size_t> sessions = sim::EnvNumber<std::size_t>(
          "WEARLOCK_CAMPAIGN_SESSIONS", 1,
          std::numeric_limits<std::size_t>::max())) {
    return *sessions;
  }
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return 600;  // sanitizer legs: keep the gate, trim the wall clock
#else
  return 10050;  // the acceptance bar: >= 10k sessions
#endif
}

/// Run the whole campaign on `threads` workers and return every
/// session's record, in campaign order.
std::vector<obs::SessionRecord> RunCampaign(std::size_t threads,
                                            std::size_t n_sessions,
                                            std::uint64_t base_seed) {
  const std::vector<Cell> grid = CampaignGrid();
  sim::ParallelExecutor executor(threads);
  return executor.Map(
      n_sessions, base_seed, [&](sim::TaskContext& ctx) {
        const Cell& cell = grid[ctx.index % grid.size()];
        ScenarioConfig config = ConfigFor(cell);
        config.seed = sim::ParallelExecutor::TaskSeed(base_seed, ctx.index);
        protocol::UnlockSession session(config);
        obs::SessionRecord record;
        session.SetRecordSink(
            [&record](const obs::SessionRecord& r) { record = r; });
        session.Attempt();
        return record;
      });
}

std::string RollupJson(const std::vector<obs::SessionRecord>& records) {
  obs::TelemetrySink sink;
  for (const obs::SessionRecord& record : records) sink.Ingest(record);
  std::ostringstream os;
  sink.WriteJson(os);
  return os.str();
}

class FleetCampaignTest : public ::testing::Test {
 protected:
  void SetUp() override { sim::SetFixedHostTimingMs(1.25); }
  void TearDown() override { sim::SetFixedHostTimingMs(-1.0); }
};

TEST_F(FleetCampaignTest, RollupIsByteIdenticalAcrossThreadCounts) {
  const std::size_t n = CampaignSessions();
  const std::uint64_t seed = 20260808;

  const std::vector<obs::SessionRecord> on_one = RunCampaign(1, n, seed);
  ASSERT_EQ(on_one.size(), n);
  const std::string expected = RollupJson(on_one);
  EXPECT_NE(expected.find("\"cohorts\":{"), std::string::npos);

  for (const std::size_t threads : {2u, 8u}) {
    const std::vector<obs::SessionRecord> records =
        RunCampaign(threads, n, seed);
    ASSERT_EQ(records.size(), n);
    // Identical record multiset (Map returns index order, so plain
    // equality of the serialized lines is the strongest check)...
    for (std::size_t i = 0; i < n; i += n / 97 + 1) {
      ASSERT_EQ(records[i].ToJsonl(), on_one[i].ToJsonl())
          << "record " << i << " diverged at " << threads << " threads";
    }
    // ...and identical rollup bytes.
    EXPECT_EQ(RollupJson(records), expected)
        << "rollup diverged at " << threads << " threads";
  }
}

TEST_F(FleetCampaignTest, ShardMergeOrderNeverChangesTheRollup) {
  // Small campaign is enough here: the property under test is the
  // merge algebra, already fed by the full grid.
  const std::size_t n = std::min<std::size_t>(CampaignSessions(), 600);
  const std::vector<obs::SessionRecord> records = RunCampaign(2, n, 777);
  const std::string expected = RollupJson(records);

  constexpr std::size_t kShards = 8;
  std::vector<obs::TelemetrySink> shards(kShards);
  for (std::size_t i = 0; i < records.size(); ++i) {
    shards[i % kShards].Ingest(records[i]);
  }
  obs::TelemetrySink forward;
  for (const obs::TelemetrySink& shard : shards) forward.Merge(shard);
  obs::TelemetrySink reverse;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    reverse.Merge(*it);
  }
  std::ostringstream fw, rv;
  forward.WriteJson(fw);
  reverse.WriteJson(rv);
  EXPECT_EQ(fw.str(), expected);
  EXPECT_EQ(rv.str(), expected);
}

TEST_F(FleetCampaignTest, CampaignPopulatesGenuineAndImpostorCohorts) {
  const std::size_t n = std::min<std::size_t>(CampaignSessions(), 390);
  const std::vector<obs::SessionRecord> records = RunCampaign(2, n, 4242);
  obs::TelemetrySink sink;
  for (const obs::SessionRecord& record : records) sink.Ingest(record);

  std::uint64_t genuine = 0, impostor = 0;
  for (const auto& [key, cohort] : sink.cohorts()) {
    genuine += cohort.genuine;
    impostor += cohort.impostor;
    // Every cohort exposes a total-latency sketch with as many
    // observations as sessions.
    ASSERT_NE(cohort.stages.find("total"), cohort.stages.end()) << key;
    EXPECT_EQ(cohort.stages.at("total").count(), cohort.sessions) << key;
  }
  EXPECT_EQ(genuine + impostor, n);
  EXPECT_GT(genuine, 0u);
  EXPECT_GT(impostor, 0u);  // the grid plants impostor cells
}

}  // namespace
}  // namespace wearlock
