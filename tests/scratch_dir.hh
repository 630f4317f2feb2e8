/**
 * @file
 * Test helper: scratch paths that belong to one test of one build
 * tree.  The default root is the build tree's own scratch directory,
 * baked in at configure time like CHARON_GOLDEN_DIR, so the tests of
 * two build trees never remove each other's files and nothing piles
 * up in the system temp directory.
 */

#ifndef CHARON_TESTS_SCRATCH_DIR_HH
#define CHARON_TESTS_SCRATCH_DIR_HH

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace charon::test
{

/** @p name in the running test's own directory under @p root,
 *  removed if it exists; its parent directories are created. */
inline std::string
freshPath(const std::string &name,
          const std::filesystem::path &root = CHARON_TEST_SCRATCH_DIR)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    auto dir = root
               / (std::string(info->test_suite_name()) + "."
                  + info->name());
    std::filesystem::create_directories(dir);
    auto path = dir / name;
    std::filesystem::remove_all(path);
    return path.string();
}

/** freshPath(@p name, @p root), created as an empty directory. */
inline std::string
freshDir(const std::string &name,
         const std::filesystem::path &root = CHARON_TEST_SCRATCH_DIR)
{
    auto dir = freshPath(name, root);
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace charon::test

#endif // CHARON_TESTS_SCRATCH_DIR_HH
