#include "montecarlo/colocmc.hh"

#include <cassert>

#include "common/obs.hh"
#include "common/parallel.hh"
#include "montecarlo/metrics.hh"
#include "resilience/signals.hh"

namespace fairco2::montecarlo
{

ColocationMonteCarlo::ColocationMonteCarlo()
    : server_(carbon::ServerConfig::paperServer())
{
}

ColocTrialResult
ColocationMonteCarlo::runTrial(
    std::size_t num_workloads, double grid_ci,
    std::size_t history_samples, Rng &rng,
    std::vector<ColocWorkloadRecord> *records) const
{
    assert(num_workloads >= 2);
    assert(history_samples >= 1 &&
           history_samples <= suite_.size() - 1);

    const core::ColocationCostModel cost(server_, interference_,
                                         grid_ci);

    // Random multiset of suite members.
    std::vector<std::size_t> members(num_workloads);
    for (auto &m : members)
        m = rng.index(suite_.size());

    const auto scenario =
        core::ColocationScenario::random(members, rng);

    const auto ground_truth =
        core::groundTruthColocation(members, suite_, cost);
    const auto rup =
        core::rupColocationAttribution(scenario, suite_, cost);

    // Sparse history: each member's alpha/beta profile conditions on
    // history_samples of its 15 possible partner types.
    std::vector<core::InterferenceProfile> profiles(num_workloads);
    for (std::size_t i = 0; i < num_workloads; ++i) {
        std::vector<std::size_t> pool;
        pool.reserve(suite_.size() - 1);
        for (std::size_t s = 0; s < suite_.size(); ++s) {
            if (s != members[i])
                pool.push_back(s);
        }
        const auto chosen =
            rng.sampleWithoutReplacement(pool.size(), history_samples);
        std::vector<std::size_t> partners;
        partners.reserve(history_samples);
        for (std::size_t idx : chosen)
            partners.push_back(pool[idx]);
        profiles[i] = core::estimateProfile(members[i], partners,
                                            suite_, interference_);
    }
    const auto fair = core::fairCo2ColocationAttribution(
        scenario, suite_, cost, profiles);

    const auto dev_rup = percentDeviations(rup, ground_truth);
    const auto dev_fair = percentDeviations(fair, ground_truth);
    // Ground truth is strictly positive here (every workload burns
    // some carbon), so no entries were skipped and indices align.
    assert(dev_rup.size() == num_workloads);
    assert(dev_fair.size() == num_workloads);

    ColocTrialResult r;
    r.numWorkloads = num_workloads;
    r.gridCi = grid_ci;
    r.samplingRate = static_cast<double>(history_samples) /
        static_cast<double>(suite_.size() - 1);
    r.avgRup = averageDeviation(dev_rup);
    r.worstRup = worstDeviation(dev_rup);
    r.avgFairCo2 = averageDeviation(dev_fair);
    r.worstFairCo2 = worstDeviation(dev_fair);

    if (records) {
        // Realized partner of each member (npos when isolated).
        std::vector<std::size_t> partner_of(
            num_workloads, static_cast<std::size_t>(-1));
        for (const auto &[a, b] : scenario.pairs) {
            partner_of[a] = members[b];
            partner_of[b] = members[a];
        }
        for (std::size_t i = 0; i < num_workloads; ++i) {
            ColocWorkloadRecord rec;
            rec.suiteId = members[i];
            rec.partnerSuiteId = partner_of[i];
            rec.devRup = dev_rup[i];
            rec.devFairCo2 = dev_fair[i];
            records->push_back(rec);
        }
    }
    return r;
}

ColocMcOutput
ColocationMonteCarlo::run(const ColocMcConfig &config, Rng &rng) const
{
    assert(config.minWorkloads >= 2);
    assert(config.maxWorkloads >= config.minWorkloads);
    assert(config.minSamples >= 1);
    assert(config.maxSamples <= suite_.size() - 1);

    // Trial t draws its knobs and all scenario randomness from
    // base.fork(t); per-trial record buffers are concatenated in
    // trial order afterwards, so both the trial series and the
    // record stream are bit-identical for any thread count.
    const Rng base = rng.split();
    FAIRCO2_SPAN("mc.coloc.run");
    ColocMcOutput out;
    out.trials.resize(config.trials);
    std::vector<std::vector<ColocWorkloadRecord>> trial_records(
        config.collectRecords ? config.trials : 0);
    parallel::parallelFor(
        0, config.trials, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t t = lo; t < hi; ++t) {
                // Uncheckpointed trials have nothing to flush on
                // shutdown, so just stop drawing new work.
                if (resilience::shutdownRequested())
                    return;
                FAIRCO2_TIME_NS("mc.coloc.trial_ns");
                Rng trial_rng = base.fork(t);
                const auto n =
                    static_cast<std::size_t>(trial_rng.uniformInt(
                        static_cast<std::int64_t>(
                            config.minWorkloads),
                        static_cast<std::int64_t>(
                            config.maxWorkloads)));
                const double ci = trial_rng.uniform(
                    config.minGridCi, config.maxGridCi);
                const auto samples =
                    static_cast<std::size_t>(trial_rng.uniformInt(
                        static_cast<std::int64_t>(config.minSamples),
                        static_cast<std::int64_t>(
                            config.maxSamples)));
                out.trials[t] = runTrial(
                    n, ci, samples, trial_rng,
                    config.collectRecords ? &trial_records[t]
                                          : nullptr);
                FAIRCO2_COUNT("mc.coloc.trials", 1);
                FAIRCO2_OBSERVE("mc.coloc.workloads", n);
                FAIRCO2_OBSERVE("mc.coloc.avg_fair_dev_pct",
                                out.trials[t].avgFairCo2);
            }
        });
    for (auto &records : trial_records) {
        out.records.insert(out.records.end(), records.begin(),
                           records.end());
    }
    return out;
}

std::uint64_t
colocConfigHash(const ColocMcConfig &config)
{
    using resilience::hashField;
    std::uint64_t h = resilience::kChecksumBasis;
    h = hashField(h, static_cast<std::uint64_t>(config.trials));
    h = hashField(h, static_cast<std::uint64_t>(config.minWorkloads));
    h = hashField(h, static_cast<std::uint64_t>(config.maxWorkloads));
    h = hashField(h, config.minGridCi);
    h = hashField(h, config.maxGridCi);
    h = hashField(h, static_cast<std::uint64_t>(config.minSamples));
    h = hashField(h, static_cast<std::uint64_t>(config.maxSamples));
    h = hashField(h,
                  static_cast<std::uint64_t>(config.collectRecords));
    return h;
}

ColocMcOutput
ColocationMonteCarlo::run(
    const ColocMcConfig &config, Rng &rng,
    const resilience::CheckpointOptions &checkpoint,
    resilience::CheckpointRunResult *run_result) const
{
    assert(config.minWorkloads >= 2);
    assert(config.maxWorkloads >= config.minWorkloads);
    assert(config.minSamples >= 1);
    assert(config.maxSamples <= suite_.size() - 1);
    if (config.collectRecords)
        throw resilience::CheckpointError(
            "checkpointing is not supported with per-workload "
            "record collection");

    // Same per-trial purity contract as the plain overload, with
    // chunk commits through the checkpoint machinery.
    const Rng base = rng.split();
    FAIRCO2_SPAN("mc.coloc.run");
    ColocMcOutput out;
    const auto outcome =
        resilience::runCheckpointedTrials<ColocTrialResult>(
            checkpoint, base, colocConfigHash(config), config.trials,
            out.trials, [&](std::uint64_t t) {
                FAIRCO2_TIME_NS("mc.coloc.trial_ns");
                Rng trial_rng = base.fork(t);
                const auto n =
                    static_cast<std::size_t>(trial_rng.uniformInt(
                        static_cast<std::int64_t>(
                            config.minWorkloads),
                        static_cast<std::int64_t>(
                            config.maxWorkloads)));
                const double ci = trial_rng.uniform(
                    config.minGridCi, config.maxGridCi);
                const auto samples =
                    static_cast<std::size_t>(trial_rng.uniformInt(
                        static_cast<std::int64_t>(config.minSamples),
                        static_cast<std::int64_t>(
                            config.maxSamples)));
                const auto r =
                    runTrial(n, ci, samples, trial_rng, nullptr);
                FAIRCO2_COUNT("mc.coloc.trials", 1);
                FAIRCO2_OBSERVE("mc.coloc.workloads", n);
                FAIRCO2_OBSERVE("mc.coloc.avg_fair_dev_pct",
                                r.avgFairCo2);
                return r;
            });
    if (run_result)
        *run_result = outcome;
    return out;
}

} // namespace fairco2::montecarlo
