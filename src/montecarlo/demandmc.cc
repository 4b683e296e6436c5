#include "montecarlo/demandmc.hh"

#include <algorithm>
#include <cassert>

#include "common/obs.hh"
#include "common/parallel.hh"
#include "montecarlo/metrics.hh"
#include "resilience/signals.hh"

namespace fairco2::montecarlo
{

namespace
{

/** The paper's allocation set: 8, 16, 32, 48, 64, 80, or 96 cores. */
constexpr double kCoreChoices[] = {8, 16, 32, 48, 64, 80, 96};

double
randomCores(Rng &rng)
{
    return kCoreChoices[rng.index(std::size(kCoreChoices))];
}

} // namespace

core::Schedule
randomSchedule(const DemandMcConfig &config, Rng &rng)
{
    assert(config.minTimeSlices >= 1);
    assert(config.maxTimeSlices >= config.minTimeSlices);
    assert(config.maxConcurrent >= 1);
    assert(config.maxWorkloads >= config.maxTimeSlices);

    const std::size_t slices = static_cast<std::size_t>(
        rng.uniformInt(static_cast<std::int64_t>(config.minTimeSlices),
                       static_cast<std::int64_t>(
                           config.maxTimeSlices)));

    std::vector<core::ScheduledWorkload> workloads;
    std::vector<std::size_t> concurrency(slices, 0);

    auto fits = [&](std::size_t start, std::size_t duration) {
        for (std::size_t t = start; t < start + duration; ++t) {
            if (concurrency[t] >= config.maxConcurrent)
                return false;
        }
        return true;
    };

    auto place = [&](std::size_t start, std::size_t duration) {
        core::ScheduledWorkload w;
        w.cores = randomCores(rng);
        w.startSlice = start;
        w.durationSlices = duration;
        workloads.push_back(w);
        for (std::size_t t = start; t < start + duration; ++t)
            ++concurrency[t];
    };

    auto random_duration = [&](std::size_t start) {
        const std::size_t longest =
            std::min(config.maxDuration, slices - start);
        const std::size_t shortest =
            std::min(config.minDuration, longest);
        return static_cast<std::size_t>(rng.uniformInt(
            static_cast<std::int64_t>(shortest),
            static_cast<std::int64_t>(longest)));
    };

    // Phase 1: ensure every slice runs at least one workload, so the
    // demand curve has no idle gaps (the generator in the artifact
    // keeps all slices occupied as well).
    for (std::size_t t = 0; t < slices;) {
        if (concurrency[t] > 0) {
            ++t;
            continue;
        }
        const std::size_t duration = random_duration(t);
        place(t, duration);
        t += duration;
    }

    // Phase 2: fill up to a random target size with rejection on the
    // concurrency cap.
    const std::size_t target = static_cast<std::size_t>(rng.uniformInt(
        static_cast<std::int64_t>(workloads.size()),
        static_cast<std::int64_t>(config.maxWorkloads)));
    std::size_t attempts = 0;
    while (workloads.size() < target && attempts < 8 * target) {
        ++attempts;
        const std::size_t start = rng.index(slices);
        const std::size_t duration = random_duration(start);
        if (fits(start, duration))
            place(start, duration);
    }

    return core::Schedule(std::move(workloads), slices,
                          config.sliceSeconds);
}

DemandTrialResult
runDemandTrial(const core::Schedule &schedule, double total_grams)
{
    const auto attributions =
        core::attributeSchedule(schedule, total_grams);

    DemandTrialResult r;
    r.numWorkloads = schedule.numWorkloads();
    r.numSlices = schedule.numSlices();

    const auto dev_fair = percentDeviations(
        attributions.fairCo2, attributions.groundTruth);
    const auto dev_dp = percentDeviations(
        attributions.demandProportional, attributions.groundTruth);
    const auto dev_rup = percentDeviations(
        attributions.rup, attributions.groundTruth);

    r.avgFairCo2 = averageDeviation(dev_fair);
    r.avgDemandProportional = averageDeviation(dev_dp);
    r.avgRup = averageDeviation(dev_rup);
    r.worstFairCo2 = worstDeviation(dev_fair);
    r.worstDemandProportional = worstDeviation(dev_dp);
    r.worstRup = worstDeviation(dev_rup);
    return r;
}

std::vector<DemandTrialResult>
runDemandMonteCarlo(const DemandMcConfig &config, Rng &rng)
{
    // Trial t draws every random quantity from base.fork(t), a pure
    // function of the seed and the trial index, and writes only
    // results[t] — so the sweep is bit-identical for any thread
    // count. Trials run at chunk size 1: each one contains an exact
    // Shapley solve, which dwarfs the dispatch cost and varies a lot
    // with the drawn workload count.
    const Rng base = rng.split();
    FAIRCO2_SPAN("mc.demand.run");
    std::vector<DemandTrialResult> results(config.trials);
    parallel::parallelFor(
        0, config.trials, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t t = lo; t < hi; ++t) {
                // Uncheckpointed trials have nothing to flush on
                // shutdown, so just stop drawing new work.
                if (resilience::shutdownRequested())
                    return;
                FAIRCO2_TIME_NS("mc.demand.trial_ns");
                Rng trial_rng = base.fork(t);
                const auto schedule =
                    randomSchedule(config, trial_rng);
                results[t] =
                    runDemandTrial(schedule, config.totalGrams);
                FAIRCO2_COUNT("mc.demand.trials", 1);
                FAIRCO2_OBSERVE("mc.demand.workloads",
                                results[t].numWorkloads);
                FAIRCO2_OBSERVE("mc.demand.avg_fair_dev_pct",
                                results[t].avgFairCo2);
            }
        });
    return results;
}

std::uint64_t
demandConfigHash(const DemandMcConfig &config)
{
    using resilience::hashField;
    std::uint64_t h = resilience::kChecksumBasis;
    h = hashField(h, static_cast<std::uint64_t>(config.trials));
    h = hashField(h, static_cast<std::uint64_t>(config.maxWorkloads));
    h = hashField(h,
                  static_cast<std::uint64_t>(config.minTimeSlices));
    h = hashField(h,
                  static_cast<std::uint64_t>(config.maxTimeSlices));
    h = hashField(h,
                  static_cast<std::uint64_t>(config.maxConcurrent));
    h = hashField(h, static_cast<std::uint64_t>(config.minDuration));
    h = hashField(h, static_cast<std::uint64_t>(config.maxDuration));
    h = hashField(h, config.sliceSeconds);
    h = hashField(h, config.totalGrams);
    return h;
}

std::vector<DemandTrialResult>
runDemandMonteCarlo(const DemandMcConfig &config, Rng &rng,
                    const resilience::CheckpointOptions &checkpoint,
                    resilience::CheckpointRunResult *run_result)
{
    // Same per-trial purity contract as the plain overload above, so
    // the two produce byte-identical results; this one additionally
    // commits completed chunks through the checkpoint machinery.
    const Rng base = rng.split();
    FAIRCO2_SPAN("mc.demand.run");
    std::vector<DemandTrialResult> results;
    const auto outcome =
        resilience::runCheckpointedTrials<DemandTrialResult>(
            checkpoint, base, demandConfigHash(config), config.trials,
            results, [&](std::uint64_t t) {
                FAIRCO2_TIME_NS("mc.demand.trial_ns");
                Rng trial_rng = base.fork(t);
                const auto schedule =
                    randomSchedule(config, trial_rng);
                const auto r =
                    runDemandTrial(schedule, config.totalGrams);
                FAIRCO2_COUNT("mc.demand.trials", 1);
                FAIRCO2_OBSERVE("mc.demand.workloads",
                                r.numWorkloads);
                FAIRCO2_OBSERVE("mc.demand.avg_fair_dev_pct",
                                r.avgFairCo2);
                return r;
            });
    if (run_result)
        *run_result = outcome;
    return results;
}

} // namespace fairco2::montecarlo
