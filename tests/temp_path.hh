/**
 * @file
 * Per-test scratch paths. `ctest -j` runs every gtest case as its own
 * process, so a fixed file name under TempDir() is shared by cases
 * running at the same time; these names are not.
 */

#ifndef MBBP_TESTS_TEMP_PATH_HH
#define MBBP_TESTS_TEMP_PATH_HH

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace mbbp
{

/** TempDir() + "<stem>.<Suite>.<Test>.<pid><ext>" for the running test. */
inline std::string
testTempPath(const std::string &stem, const std::string &ext = "")
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + stem + "." + info->test_suite_name() +
           "." + info->name() + "." + std::to_string(getpid()) + ext;
}

} // namespace mbbp

#endif // MBBP_TESTS_TEMP_PATH_HH
