/**
 * @file
 * End-to-end system run: a week of synthetic VM traffic is placed
 * on an elastic cluster by a bin-packing scheduler; the resulting
 * telemetry feeds Temporal Shapley, and every VM is billed from the
 * intensity signal in O(1) per VM — the deployment shape the paper
 * claims makes Fair-CO2 practical at fleet scale. Also compares
 * placement policies' peak provisioning (capacity = embodied).
 *
 * The per-VM billing pass supports `--checkpoint`/`--resume`: bills
 * are chunked through the same checkpoint machinery as the Monte
 * Carlo benches, so a killed billing run restarts from the last
 * committed chunk and reproduces the uninterrupted bills byte for
 * byte. The bills land in bench_out/e2e_vm_bills.csv.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "carbon/server.hh"
#include "common/csv.hh"
#include "common/flags.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/baselines.hh"
#include "core/temporal.hh"
#include "resilience/checkpoint.hh"
#include "resilience/faultplan.hh"
#include "resilience/ingest.hh"
#include "resilience/signals.hh"
#include "sim/simulator.hh"

using namespace fairco2;

namespace
{

/** One VM's bill under both schemes; a raw-copyable checkpoint record. */
struct BillRecord
{
    double fair = 0.0;
    double rup = 0.0;
};

/** Bill one VM record against an intensity signal. */
double
billVm(const trace::TimeSeries &intensity,
       const sim::VmRecord &record)
{
    const double step = intensity.stepSeconds();
    double grams = 0.0;
    auto i = static_cast<std::size_t>(
        std::ceil(record.vm.arrivalSeconds / step));
    for (; i < intensity.size() &&
         static_cast<double>(i) * step < record.endSeconds;
         ++i) {
        grams += intensity[i] * record.vm.cores * step;
    }
    return grams;
}

} // namespace

int
main(int argc, char **argv)
{
    std::int64_t seed = 7;
    double arrivals_per_hour = 400.0;
    double days = 7.0;
    FlagSet flags("End-to-end: cluster simulation -> telemetry -> "
                  "Temporal Shapley -> per-VM bills");
    flags.addInt("seed", &seed, "RNG seed");
    flags.addDouble("arrivals-per-hour", &arrivals_per_hour,
                    "mean VM arrival rate");
    flags.addDouble("days", &days, "simulated days");
    std::int64_t threads = 0;
    obs::ObsFlags obs_flags;
    std::string fault_plan_text;
    resilience::addFaultPlanFlag(flags, &fault_plan_text);
    bench::CheckpointFlags ckpt_flags;
    bench::addCheckpointFlags(flags, &ckpt_flags);
    bench::addCommonFlags(flags, &threads, &obs_flags);
    if (!flags.parse(argc, argv))
        return 0;
    bench::applyCommonFlags(threads, obs_flags);
    const resilience::FaultPlan plan =
        resilience::applyFaultPlanFlag(fault_plan_text);
    const auto ckpt = bench::applyCheckpointFlags(ckpt_flags);
    resilience::installShutdownHandler();

    const bench::WallTimer timer;
    const double horizon = days * 86400.0;
    Rng rng(static_cast<std::uint64_t>(seed));
    sim::VmWorkloadGenerator::Config gen_config;
    gen_config.arrivalsPerHour = arrivals_per_hour;
    const sim::VmWorkloadGenerator generator(gen_config);
    const auto vms = generator.generate(horizon, rng);

    // Placement-policy comparison: capacity is embodied carbon.
    TextTable policies("Placement policy vs peak provisioning "
                       "(capacity = embodied carbon)");
    policies.setHeader({"Policy", "Peak nodes", "Peak cores",
                        "Fleet embodied (t CO2e)"});
    const carbon::ServerCarbonModel server;

    sim::SimulationResult best_fit_result;
    for (auto policy : {sim::PlacementPolicy::FirstFit,
                        sim::PlacementPolicy::BestFit,
                        sim::PlacementPolicy::WorstFit}) {
        sim::Cluster cluster(96.0, 192.0, policy);
        const sim::ClusterSimulator simulator(300.0);
        auto result = simulator.run(vms, horizon, cluster,
                                    plan.active() ? &plan : nullptr);
        policies.addRow(
            sim::placementPolicyName(policy),
            {static_cast<double>(result.peakNodesProvisioned),
             result.peakCores,
             result.peakNodesProvisioned *
                 server.embodied().totalKg() / 1000.0},
            1);
        if (policy == sim::PlacementPolicy::BestFit)
            best_fit_result = std::move(result);
    }
    policies.print();

    // Under a fault plan the telemetry itself degrades before it
    // reaches attribution: drop/corrupt faults poison samples, then
    // the same interpolation repair a production ingest pipeline
    // would apply heals them.
    if (plan.active()) {
        best_fit_result.coreDemand = resilience::injectTelemetryFaults(
            best_fit_result.coreDemand, plan);
        resilience::IngestReport repair;
        best_fit_result.coreDemand = resilience::repairSeries(
            best_fit_result.coreDemand,
            resilience::BadRowPolicy::Interpolate, "e2e telemetry",
            &repair);
        std::printf("fault plan '%s': %llu faults injected "
                    "(%zu VMs preempted, %zu node evictions); "
                    "telemetry repair: %s\n",
                    plan.spec().c_str(),
                    static_cast<unsigned long long>(
                        plan.injectedCount()),
                    best_fit_result.preemptedVms,
                    best_fit_result.nodeFailureEvictions,
                    repair.summary().c_str());
    }

    // Attribution on the best-fit telemetry.
    const auto &result = best_fit_result;
    const double week_pool = server.coreRateGramsPerSecond() *
        result.coreDemand.mean() * horizon;
    const core::TemporalShapley engine;
    const auto signal = engine.attribute(result.coreDemand,
                                         week_pool, {7, 8, 12});
    const auto flat =
        core::rupIntensity(result.coreDemand, week_pool);

    // Per-VM billing, checkpointable: each bill is a pure function
    // of its trial index, so a killed run resumes at the last
    // committed chunk and reproduces the same bills byte for byte.
    std::uint64_t config_hash = resilience::kChecksumBasis;
    config_hash = resilience::hashField(
        config_hash, static_cast<std::uint64_t>(seed));
    config_hash = resilience::hashField(config_hash,
                                        arrivals_per_hour);
    config_hash = resilience::hashField(config_hash, days);
    config_hash = resilience::hashField(
        config_hash,
        static_cast<std::uint64_t>(result.records.size()));
    config_hash = resilience::hashField(config_hash, week_pool);

    const Rng bill_base(static_cast<std::uint64_t>(seed));
    std::vector<BillRecord> bills;
    resilience::CheckpointRunResult outcome;
    try {
        outcome = resilience::runCheckpointedTrials(
            ckpt, bill_base, config_hash,
            static_cast<std::uint64_t>(result.records.size()),
            bills, [&](std::uint64_t t) {
                const auto &record = result.records[t];
                return BillRecord{billVm(signal.intensity, record),
                                  billVm(flat, record)};
            });
    } catch (const resilience::CheckpointError &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    }
    if (!ckpt.checkpointPath.empty() || !ckpt.resumePath.empty()) {
        const int status = bench::checkpointExitStatus(outcome);
        if (status >= 0)
            return status;
    } else if (!outcome.complete) {
        std::fprintf(stderr,
                     "interrupted: no --checkpoint, partial bills "
                     "discarded\n");
        return resilience::kInterruptExitCode;
    }

    double fair_total = 0.0, flat_total = 0.0;
    OnlineStats ratio;
    double biggest_markup = 0.0, biggest_discount = 0.0;
    for (const auto &bill : bills) {
        fair_total += bill.fair;
        flat_total += bill.rup;
        if (bill.rup > 0.0) {
            const double r = bill.fair / bill.rup;
            ratio.add(r);
            biggest_markup = std::max(biggest_markup, r);
            biggest_discount =
                biggest_discount == 0.0
                    ? r
                    : std::min(biggest_discount, r);
        }
    }

    TextTable summary("Week summary (best-fit placement)");
    summary.setHeader({"Quantity", "Value"});
    summary.addRow({"VMs simulated",
                    std::to_string(result.records.size())});
    summary.addRow({"telemetry samples",
                    std::to_string(result.coreDemand.size())});
    summary.addRow({"peak cores",
                    TextTable::fmt(result.peakCores, 0)});
    summary.addRow({"mean cores",
                    TextTable::fmt(result.coreDemand.mean(), 0)});
    summary.addRow({"carbon pool (kg)",
                    TextTable::fmt(week_pool / 1000.0, 1)});
    summary.addRow({"Fair-CO2 bills total (kg)",
                    TextTable::fmt(fair_total / 1000.0, 1)});
    summary.addRow({"flat-rate bills total (kg)",
                    TextTable::fmt(flat_total / 1000.0, 1)});
    summary.addRow({"bill ratio fair/flat: mean",
                    TextTable::fmt(ratio.mean(), 3)});
    summary.addRow({"largest peak-time markup",
                    TextTable::fmt(biggest_markup, 3) + "x"});
    summary.addRow({"largest trough discount",
                    TextTable::fmt(biggest_discount, 4) + "x"});
    summary.print();

    std::printf(
        "\nEfficiency check: the signal attributes %.4f%% of the "
        "sampled pool\n(both billing paths integrate the same "
        "sampled usage, so totals match\nby construction; the live "
        "signal redistributes, it does not create or\ndestroy "
        "carbon).\n",
        100.0 * fair_total / flat_total);

    CsvWriter csv(bench::csvPath("e2e_cluster_week"));
    csv.writeRow({"step", "time_s", "cores_in_use",
                  "intensity_g_per_core_s"});
    for (std::size_t i = 0; i < result.coreDemand.size(); ++i) {
        csv.writeNumericRow(
            {static_cast<double>(i),
             i * result.coreDemand.stepSeconds(),
             result.coreDemand[i], signal.intensity[i]});
    }
    std::printf("CSV written to %s\n",
                bench::csvPath("e2e_cluster_week").c_str());

    CsvWriter bills_csv(bench::csvPath("e2e_vm_bills"));
    bills_csv.writeRow({"vm", "arrival_s", "end_s", "cores",
                        "fair_grams", "rup_grams"});
    for (std::size_t i = 0; i < bills.size(); ++i) {
        const auto &record = result.records[i];
        bills_csv.writeNumericRow(
            {static_cast<double>(i), record.vm.arrivalSeconds,
             record.endSeconds, record.vm.cores, bills[i].fair,
             bills[i].rup});
    }
    std::printf("CSV written to %s\n",
                bench::csvPath("e2e_vm_bills").c_str());
    bench::recordPerf("e2e_cluster_week", result.records.size(),
                      timer.seconds(), plan.injectedCount());
    return 0;
}
