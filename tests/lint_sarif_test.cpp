// SARIF artifact gate: the `wearlock-lint --sarif` payload CI uploads
// must stay a well-formed SARIF 2.1.0 log. obs::JsonParse proves
// RFC 8259 well-formedness; the structural assertions below pin
// the minimal schema surface a SARIF viewer needs - version/$schema,
// one run, the tool driver with the full rule catalogue, and per-result
// ruleId/level/message/location records.
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "lint.h"
#include "obs/json.h"
#include "source.h"

namespace wearlock::lint {
namespace {

std::string SarifFor(const std::vector<SourceFile>& files) {
  const LintResult result = RunLint(files);
  std::ostringstream os;
  WriteSarif(result, os);
  return os.str();
}

bool Has(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(LintSarifTest, EmptyRunIsWellFormedWithEmptyResults) {
  const std::string sarif = SarifFor({});
  std::string json_error;
  EXPECT_TRUE(obs::JsonParse(sarif, &json_error).has_value()) << json_error;
  EXPECT_TRUE(Has(sarif, "\"version\":\"2.1.0\""));
  EXPECT_TRUE(Has(sarif, "\"$schema\""));
  EXPECT_TRUE(Has(sarif, "\"results\":[]"));
}

TEST(LintSarifTest, DriverCarriesTheFullRuleCatalogue) {
  const std::string sarif = SarifFor({});
  EXPECT_TRUE(Has(sarif, "\"name\":\"wearlock-lint\""));
  for (const char* rule :
       {"layer-dag", "determinism", "banned-api", "header-hygiene",
        "shared-state", "hot-path-alloc", "guarded-by", "modeled-time",
        "slot-ownership", "discarded-outcome"}) {
    EXPECT_TRUE(Has(sarif, std::string("\"id\":\"") + rule + "\"")) << rule;
  }
}

TEST(LintSarifTest, ResultsCarryRuleLevelMessageAndLocation) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::FromString(
      "src/dsp/x.cpp", "void f() {\n  srand(1);\n}\n"));
  const std::string sarif = SarifFor(files);
  std::string json_error;
  ASSERT_TRUE(obs::JsonParse(sarif, &json_error).has_value()) << json_error;
  EXPECT_TRUE(Has(sarif, "\"ruleId\":\"determinism\""));
  EXPECT_TRUE(Has(sarif, "\"level\":\"error\""));
  EXPECT_TRUE(Has(sarif, "\"message\":{\"text\":"));
  EXPECT_TRUE(Has(sarif, "\"physicalLocation\""));
  EXPECT_TRUE(Has(sarif, "\"artifactLocation\":{\"uri\":\"src/dsp/x.cpp\"}"));
  EXPECT_TRUE(Has(sarif, "\"region\":{\"startLine\":2}"));
}

TEST(LintSarifTest, MessagesWithQuotesStayWellFormed) {
  // Diagnostic messages quote identifiers; the writer must escape them.
  std::vector<SourceFile> files;
  files.push_back(SourceFile::FromString(
      "src/obs/x.cpp",
      "#include <mutex>\n"
      "std::mutex g_mu;\n"
      "int g_value = 0;  // lint: guarded-by(g_mu)\n"
      "void Bad() {\n"
      "  g_value = 2;\n"
      "}\n"));
  const std::string sarif = SarifFor(files);
  std::string json_error;
  EXPECT_TRUE(obs::JsonParse(sarif, &json_error).has_value()) << json_error;
  EXPECT_TRUE(Has(sarif, "\"ruleId\":\"guarded-by\""));
}

}  // namespace
}  // namespace wearlock::lint
