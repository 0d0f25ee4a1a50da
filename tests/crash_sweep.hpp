/**
 * @file
 * Shared plumbing for the SM-journal crash sweeps. Each sweep counts
 * the journal commits of its canonical session in one fault-free run,
 * then instantiates one test per crash point: every commit, crashed
 * before and after the sealed blob is stored. No instance is padding,
 * and a refactor that moves a commit changes the instance list (each
 * suite pins its count in a plain test, so the move fails visibly).
 */

#ifndef SALUS_TESTS_CRASH_SWEEP_HPP
#define SALUS_TESTS_CRASH_SWEEP_HPP

#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "salus/testbed.hpp"

namespace salus::sweep {

/** (journal step, crash after the store). */
using CrashPoint = std::tuple<int, bool>;

/**
 * Journal commits of one fault-free run of `session` on a testbed
 * built from `cfg`. Runs while the test list is built, so it never
 * throws: a failing session counts 0 commits, the sweep gets no
 * instances and the suite's pinned count fails instead.
 */
inline int
countJournalWrites(core::TestbedConfig cfg,
                   const std::function<void(core::Testbed &)> &session)
{
    try {
        core::Testbed tb(std::move(cfg));
        session(tb);
        return int(tb.smApp().journalWrites());
    } catch (const std::exception &) {
        return 0;
    }
}

/** Every crash point of a session with `journalWrites` commits. */
inline std::vector<CrashPoint>
crashPoints(int journalWrites)
{
    std::vector<CrashPoint> points;
    for (int step = 0; step < journalWrites; ++step) {
        points.emplace_back(step, false);
        points.emplace_back(step, true);
    }
    return points;
}

/** Instance names: step<N>_preStore / step<N>_postStore. */
inline std::string
crashPointName(const ::testing::TestParamInfo<CrashPoint> &info)
{
    return "step" + std::to_string(std::get<0>(info.param)) +
           (std::get<1>(info.param) ? "_postStore" : "_preStore");
}

} // namespace salus::sweep

#endif // SALUS_TESTS_CRASH_SWEEP_HPP
