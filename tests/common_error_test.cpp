// Pins what a failed contract check tells its reader. GO_EXPECTS and
// GO_ENSURES messages reach operators (a tool's stderr) and remote clients
// (a bad-request Error frame carries what()), so they name the check by a
// path relative to the repository root and never the directory the build
// ran in. CMake passes that directory as GOODONES_SOURCE_ROOT.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"

#ifndef GOODONES_SOURCE_ROOT
#error "GOODONES_SOURCE_ROOT must name the repository root"
#endif

namespace goodones::common {
namespace {

TEST(PreconditionMessage, NamesTheSourceFileRelativeToTheRepositoryRoot) {
  Rng rng(7);
  try {
    (void)rng.sample_without_replacement(2, 3);  // k <= n is a precondition
    FAIL() << "expected a PreconditionError";
  } catch (const PreconditionError& error) {
    const std::string what = error.what();
    const std::string site = " at src/common/rng.cpp:";
    const std::size_t at = what.find(site);
    ASSERT_NE(at, std::string::npos) << what;
    const std::string line = what.substr(at + site.size());
    ASSERT_FALSE(line.empty()) << what;
    EXPECT_EQ(line.find_first_not_of("0123456789"), std::string::npos) << what;
    EXPECT_EQ(what.find(GOODONES_SOURCE_ROOT), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace goodones::common
