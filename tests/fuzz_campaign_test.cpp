// In-process miniature of the fuzz_cli campaign: generate a tiny family,
// push every system through synthesize(), cross-check each verdict with the
// independent checker, and require zero soundness violations plus per-system
// ledger records. Seed 7 / episodes 8 is chosen so at least one system
// reaches VERIFIED even in fast mode -- otherwise the soundness property
// would be tested vacuously.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "barrier/independent_check.hpp"
#include "core/pipeline.hpp"
#include "obs/ledger.hpp"
#include "systems/family_gen.hpp"

namespace scs {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) {
    const char* tmp = std::getenv("TMPDIR");
    path = std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name;
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(FuzzCampaign, MiniCampaignIsSoundAndLedgered) {
  TempFile ledger("scs_fuzz_campaign_test.jsonl");

  FamilyConfig family;
  family.seed = 7;
  family.rl_episodes = 8;
  const std::vector<GeneratedSystem> systems = generate_family(family, 3);
  ASSERT_EQ(systems.size(), 3u);

  PipelineConfig config;
  config.seed = family.seed;
  config.fast_mode = true;
  config.store.mode = StoreConfig::Mode::kOff;
  config.obs.ledger_path = ledger.path;

  IndependentCheckConfig check_cfg;
  check_cfg.mc_samples = 1500;
  check_cfg.grid_budget = 1024;

  int verified = 0;
  int checked = 0;
  int violations = 0;
  for (const GeneratedSystem& gs : systems) {
    const SynthesisResult r = synthesize(gs.benchmark, config);
    if (r.verdict == "VERIFIED") ++verified;
    if (!r.barrier.success) continue;
    ++checked;
    const IndependentCheckReport chk = independent_check(
        gs.benchmark.ccds, r.controller, r.barrier, config.barrier.rho,
        check_cfg);
    if (r.verdict == "VERIFIED" && !chk.accepted) {
      ++violations;
      ADD_FAILURE() << "soundness violation on " << gs.benchmark.name << ": "
                    << chk.detail;
    }
  }

  // The campaign must actually exercise the property: at least one VERIFIED
  // certificate re-checked, and none rejected.
  EXPECT_GE(verified, 1);
  EXPECT_GE(checked, 1);
  EXPECT_EQ(violations, 0);

  // Every system left a per-run synthesis record under its family name.
  const LedgerReadResult read = ledger_read(ledger.path);
  EXPECT_EQ(read.skipped, 0);
  std::vector<std::string> names;
  for (const LedgerRecord& rec : read.records) {
    if (rec.kind == "synthesis") names.push_back(rec.benchmark);
  }
  ASSERT_EQ(names.size(), systems.size());
  for (const GeneratedSystem& gs : systems) {
    EXPECT_NE(std::find(names.begin(), names.end(), gs.benchmark.name),
              names.end())
        << "missing ledger record for " << gs.benchmark.name;
    EXPECT_EQ(gs.benchmark.name.rfind("F7-", 0), 0u);
  }
}

TEST(FuzzCampaign, LambdaAwareGateAndStageFourAcceptGenuineCertificates) {
  // Two systems of the CI campaign (scripts/ci.sh fuzz) whose certificates
  // the independent checker accepts but which a lambda-blind rule on the
  // zero-level band rejected: F2024-30 at stage 4, F2024-27 at every arm's
  // gate. Under the one lambda-identity rule both must verify.
  FamilyConfig family;
  family.seed = 2024;
  family.state_dims = {2, 3};
  family.rl_episodes = 10;

  PipelineConfig config;
  config.seed = family.seed;
  config.fast_mode = true;
  config.store.mode = StoreConfig::Mode::kOff;

  IndependentCheckConfig check_cfg;
  check_cfg.mc_samples = 1500;
  check_cfg.grid_budget = 1024;

  for (const std::size_t index : {30u, 27u}) {
    const GeneratedSystem gs = generate_system(family, index);
    ASSERT_EQ(gs.benchmark.name, "F2024-" + std::to_string(index));
    const SynthesisResult r = synthesize(gs.benchmark, config);
    EXPECT_EQ(r.verdict, "VERIFIED")
        << gs.benchmark.name << " " << r.failure_stage << ": "
        << r.failure_message;
    if (!r.barrier.success) continue;
    const IndependentCheckReport chk = independent_check(
        gs.benchmark.ccds, r.controller, r.barrier, config.barrier.rho,
        check_cfg);
    EXPECT_TRUE(chk.accepted) << gs.benchmark.name << ": " << chk.detail;
  }
}

}  // namespace
}  // namespace scs
