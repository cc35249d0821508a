/**
 * @file
 * Tests of the cross-run observatory's ordering: runs follow a
 * directory's committed INDEX (file name without one), never file
 * mtimes or git history, so the report on a fresh copy of the
 * baselines is the report on the originals.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "report/observatory.hh"

using namespace espsim;

namespace fs = std::filesystem;

namespace
{

const fs::path kBaselines = ESPSIM_BASELINES_DIR;

/** A per-test scratch directory, removed again on destruction. */
struct ScratchDir
{
    fs::path path;

    ScratchDir()
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path = fs::temp_directory_path() /
               ("espsim_observatory_" + std::string(info->name()) +
                "_" + std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

/** The names bench/baselines/INDEX lists, oldest first. */
std::vector<std::string>
indexEntries()
{
    std::ifstream in(kBaselines / "INDEX");
    std::vector<std::string> names;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#')
            names.push_back(line);
    }
    return names;
}

/**
 * Copy the committed baselines into @p dest (INDEX included when
 * @p withIndex) and give the files mtimes in reverse INDEX order: the
 * oldest baseline becomes the newest file.
 */
void
copyBaselinesReversed(const fs::path &dest, bool withIndex)
{
    const std::vector<std::string> names = indexEntries();
    const auto now = fs::file_time_type::clock::now();
    for (std::size_t i = 0; i < names.size(); ++i) {
        fs::copy_file(kBaselines / names[i], dest / names[i]);
        fs::last_write_time(dest / names[i],
                            now - std::chrono::hours(i));
    }
    if (withIndex)
        fs::copy_file(kBaselines / "INDEX", dest / "INDEX");
}

/** The group whose workload fingerprint ends in @p suffix. */
const ObservatoryGroup *
findGroup(const ObservatoryReport &report, const std::string &suffix)
{
    for (const ObservatoryGroup &group : report.groups) {
        const std::string &w = group.workload;
        if (w.size() >= suffix.size() &&
            w.compare(w.size() - suffix.size(), suffix.size(),
                      suffix) == 0)
            return &group;
    }
    return nullptr;
}

/** File names of a group's runs, in trajectory order. */
std::vector<std::string>
groupRuns(const ObservatoryReport &report, const std::string &suffix)
{
    std::vector<std::string> names;
    if (const ObservatoryGroup *group = findGroup(report, suffix)) {
        for (const std::size_t idx : group->runIndices)
            names.push_back(
                fs::path(report.runs[idx].path).filename().string());
    }
    return names;
}

/** The report with each run's directory prefix stripped. */
ObservatoryReport
withFileNames(ObservatoryReport report)
{
    for (ObservatoryRun &run : report.runs)
        run.path = fs::path(run.path).filename().string();
    return report;
}

} // namespace

TEST(Observatory, IndexOrdersRunsNotMtime)
{
    ScratchDir scratch;
    copyBaselinesReversed(scratch.path, true);

    const ObservatoryReport original =
        buildObservatoryReport({kBaselines.string()}, 0.10);
    const ObservatoryReport copy =
        buildObservatoryReport({scratch.path.string()}, 0.10);

    EXPECT_EQ(renderObservatoryMarkdown(original),
              renderObservatoryMarkdown(copy));
    EXPECT_EQ(renderObservatoryJson(withFileNames(original)),
              renderObservatoryJson(withFileNames(copy)));

    EXPECT_TRUE(copy.skipped.empty());
    EXPECT_EQ(copy.regressions, 0u);
    EXPECT_EQ(groupRuns(copy, " x3"),
              (std::vector<std::string>{"BENCH_seed.json",
                                        "BENCH_3ed24be-dirty.json",
                                        "BENCH_c389451.json"}));
    // --repeat is part of the fingerprint: the repeat-5 baseline's
    // suite wall sums five repeats and never trends against repeat-3.
    EXPECT_EQ(groupRuns(copy, " x5"),
              std::vector<std::string>{"BENCH_8fd3d74-dirty.json"});
}

TEST(Observatory, UnlistedAndBrokenIndexEntriesAreSkipped)
{
    ScratchDir scratch;
    copyBaselinesReversed(scratch.path, true);
    fs::copy_file(scratch.path / "BENCH_c389451.json",
                  scratch.path / "BENCH_extra.json");
    {
        std::ofstream index(scratch.path / "INDEX", std::ios::app);
        index << "\n  # trailing comment\nBENCH_gone.json\n"
              << "../BENCH_seed.json\nBENCH_seed.json\n";
    }

    const ObservatoryReport report =
        buildObservatoryReport({scratch.path.string()}, 0.10);
    EXPECT_EQ(report.runs.size(), 4u);
    EXPECT_EQ(report.regressions, 0u);
    const std::string index = (scratch.path / "INDEX").string();
    EXPECT_EQ(report.skipped,
              (std::vector<std::string>{
                  index + ": BENCH_gone.json (listed in INDEX, missing)",
                  index + ": ../BENCH_seed.json (unsafe INDEX entry)",
                  index + ": BENCH_seed.json (duplicate INDEX entry)",
                  (scratch.path / "BENCH_extra.json").string() +
                      " (not in INDEX)"}));
}

TEST(Observatory, MarkdownNamesEachSkippedFileAndWhy)
{
    ScratchDir scratch;
    copyBaselinesReversed(scratch.path, true);
    fs::copy_file(scratch.path / "BENCH_c389451.json",
                  scratch.path / "BENCH_extra.json");
    {
        std::ofstream broken(scratch.path / "BENCH_broken.json");
        broken << "{not json";
        std::ofstream index(scratch.path / "INDEX", std::ios::app);
        index << "BENCH_gone.json\nBENCH_broken.json\n";
    }

    const ObservatoryReport report =
        buildObservatoryReport({scratch.path.string()}, 0.10);
    ASSERT_EQ(report.skipped.size(), 3u);
    const std::string markdown = renderObservatoryMarkdown(report);
    EXPECT_NE(markdown.find("- skipped: 3 file(s)\n"), std::string::npos);
    // One bullet per skipped file, path and reason, in skip order.
    std::size_t at = markdown.find("- skipped:");
    for (const std::string &skipped : report.skipped) {
        at = markdown.find("  - " + skipped + "\n", at);
        EXPECT_NE(at, std::string::npos) << skipped;
    }
    EXPECT_NE(markdown.find("BENCH_gone.json (listed in INDEX, missing)"),
              std::string::npos);
    EXPECT_NE(markdown.find("BENCH_broken.json (parse error)"),
              std::string::npos);
    EXPECT_NE(markdown.find("BENCH_extra.json (not in INDEX)"),
              std::string::npos);
}

TEST(Observatory, DirectoryWithoutIndexHasNoTrend)
{
    ScratchDir scratch;
    copyBaselinesReversed(scratch.path, false);

    const ObservatoryReport report =
        buildObservatoryReport({scratch.path.string()}, 0.10);
    ASSERT_EQ(report.runs.size(), 4u);
    std::vector<std::string> names;
    for (const ObservatoryRun &run : report.runs)
        names.push_back(fs::path(run.path).filename().string());
    EXPECT_EQ(names, (std::vector<std::string>{
                         "BENCH_3ed24be-dirty.json",
                         "BENCH_8fd3d74-dirty.json",
                         "BENCH_c389451.json", "BENCH_seed.json"}));
    // File names record no age: the three repeat-3 runs are listed in
    // name order but get no first→last trend.
    const ObservatoryGroup *x3 = findGroup(report, " x3");
    ASSERT_NE(x3, nullptr);
    EXPECT_EQ(x3->runIndices.size(), 3u);
    EXPECT_EQ(x3->unorderedDir, scratch.path.string());
    EXPECT_TRUE(x3->trends.empty());
    EXPECT_EQ(report.regressions, 0u);
    const ObservatoryGroup *x5 = findGroup(report, " x5");
    ASSERT_NE(x5, nullptr);
    EXPECT_TRUE(x5->unorderedDir.empty());
    EXPECT_NE(renderObservatoryMarkdown(report).find(
                  "no order — no trend"),
              std::string::npos);
    EXPECT_NE(renderObservatoryJson(report).find("\"ordered\":false"),
              std::string::npos);
}

TEST(Observatory, FreshRunAfterHistoryEndsTheTrajectory)
{
    // `espsim report --dir fresh --bench bench/baselines` reads the
    // baselines first; a single fresh run needs no INDEX to be last.
    ScratchDir scratch;
    fs::copy_file(kBaselines / "BENCH_c389451.json",
                  scratch.path / "BENCH_fresh.json");
    const std::string missing = (scratch.path / "missing").string();

    const ObservatoryReport report = buildObservatoryReport(
        {kBaselines.string(), scratch.path.string(), missing}, 0.10);
    EXPECT_EQ(report.unreadableDirs, 1u);
    ASSERT_EQ(report.runs.size(), 5u);
    EXPECT_EQ(groupRuns(report, " x3"),
              (std::vector<std::string>{"BENCH_seed.json",
                                        "BENCH_3ed24be-dirty.json",
                                        "BENCH_c389451.json",
                                        "BENCH_fresh.json"}));
    const ObservatoryGroup *x3 = findGroup(report, " x3");
    ASSERT_NE(x3, nullptr);
    EXPECT_TRUE(x3->unorderedDir.empty());
    EXPECT_FALSE(x3->trends.empty());
    EXPECT_EQ(report.regressions, 0u);
}
