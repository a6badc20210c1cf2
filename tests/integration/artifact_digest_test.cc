/**
 * @file
 * Bit-identity gate for the simulated model.
 *
 * Two continuous CDL runs under RELIEF (300 ms simulated; bus + flat
 * DRAM, and crossbar + banked DRAM) are reduced to FNV-1a digests of
 * every simulated artifact: the stats registry (minus the host-side
 * sim.event* and kernels.* counters, as relbench skips them), the
 * pressure ledger's slots, RELIEF's decision records and the per-DAG
 * latency records. The pinned values are those of the model before
 * the per-node timing caches, the id-range residue scan and the
 * single-erasure completions went in. A hot-path change that keeps the
 * model exact keeps every digest; one that moves any simulated result
 * fails here. A change that alters the model on purpose re-pins the
 * constants: each failure prints the new value.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "core/relief.hh"
#include "sched/relief.hh"

namespace relief
{
namespace
{

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }

    void str(std::string_view s) { bytes(s.data(), s.size()); }

    void
    num(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        bytes(&bits, sizeof bits);
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

struct Digests
{
    std::uint64_t stats = 0;
    std::uint64_t pressure = 0;
    std::uint64_t decisions = 0;
    std::uint64_t latency = 0;
};

std::uint64_t
statsDigest(const StatRegistry &stats)
{
    Fnv fnv;
    for (const std::string &name : stats.names()) {
        if (name.rfind("sim.event", 0) == 0 ||
            name.rfind("kernels.", 0) == 0)
            continue;
        fnv.str(name);
        if (stats.kind(name) == StatKind::Histogram) {
            const Histogram &hist = stats.histogram(name);
            fnv.num(double(hist.count()));
            fnv.num(hist.mean());
            fnv.num(hist.min());
            fnv.num(hist.max());
            fnv.num(double(hist.underflow()));
            fnv.num(double(hist.overflow()));
            for (std::size_t i = 0; i < hist.numBuckets(); ++i)
                fnv.num(double(hist.bucketCount(i)));
        } else {
            fnv.num(stats.value(name));
        }
    }
    return fnv.h;
}

std::uint64_t
pressureDigest(const PressureLedger &ledger)
{
    Fnv fnv;
    for (int r = 0; r < ledger.numResources(); ++r) {
        fnv.str(ledger.resource(r).name());
        for (int k = 0; k < ledger.numKeys(); ++k) {
            const PressureLedger::Slot &slot = ledger.slot(r, k);
            fnv.u64(slot.bytes);
            fnv.u64(slot.transfers);
            fnv.u64(slot.serviceTicks);
            fnv.u64(slot.waitSuffered);
            fnv.u64(slot.waitCaused);
        }
    }
    return fnv.h;
}

std::uint64_t
decisionDigest(const DecisionLog &log)
{
    Fnv fnv;
    for (const PromotionDecision &d : log.decisions()) {
        fnv.u64(d.when);
        fnv.u64(d.node);
        fnv.str(d.label);
        fnv.u64(std::uint64_t(d.laxity));
        fnv.u64(d.queueDepth);
        fnv.str(d.victim);
        fnv.u64(d.victimNode);
        fnv.u64(std::uint64_t(d.victimSlack));
        fnv.u64(std::uint64_t(accIndex(d.type)));
        fnv.u64(d.granted);
        fnv.u64(std::uint64_t(d.reason));
    }
    return fnv.h;
}

std::uint64_t
latencyDigest(const std::vector<DagLatencyRecord> &records)
{
    Fnv fnv;
    for (const DagLatencyRecord &rec : records) {
        fnv.str(rec.dag);
        fnv.u64(rec.arrival);
        fnv.u64(rec.finish);
        fnv.u64(std::uint64_t(rec.pathLength));
        for (int b = 0; b < numLatencyBuckets; ++b)
            fnv.u64(latencyBucket(rec.buckets, b));
    }
    return fnv.h;
}

Digests
runCdlRelief(FabricKind fabric, bool banked)
{
    resetNodeIds();
    SocConfig config;
    config.policy = PolicyKind::Relief;
    config.fabric = fabric;
    config.bankedMemory = banked;
    Soc soc(config);
    for (AppId app : parseMix("CDL"))
        soc.submit(buildApp(app, AppConfig{}), 0, /*continuous=*/true);
    soc.run(fromMs(300.0));

    const auto *policy =
        dynamic_cast<const ReliefPolicy *>(&soc.manager().policy());
    EXPECT_NE(policy, nullptr);
    EXPECT_GT(soc.manager().latencyRecords().size(), 10u);

    Digests d;
    d.stats = statsDigest(soc.stats());
    d.pressure = pressureDigest(soc.pressureLedger());
    d.decisions = policy ? decisionDigest(policy->decisionLog()) : 0;
    d.latency = latencyDigest(soc.manager().latencyRecords());
    return d;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
expectDigests(const Digests &got, const Digests &want)
{
    EXPECT_EQ(got.stats, want.stats) << "stats digest " << hex(got.stats);
    EXPECT_EQ(got.pressure, want.pressure)
        << "pressure digest " << hex(got.pressure);
    EXPECT_EQ(got.decisions, want.decisions)
        << "decision digest " << hex(got.decisions);
    EXPECT_EQ(got.latency, want.latency)
        << "latency digest " << hex(got.latency);
}

TEST(ArtifactDigestTest, CdlReliefOnBusAndFlatDram)
{
    Digests want;
    want.stats = 0xa75b56c2aef5658eULL;
    want.pressure = 0x63f16e5f542b043aULL;
    want.decisions = 0x7754df47162a65b5ULL;
    want.latency = 0x34ee501a15eca2f3ULL;
    expectDigests(runCdlRelief(FabricKind::Bus, false), want);
}

TEST(ArtifactDigestTest, CdlReliefOnCrossbarAndBankedDram)
{
    Digests want;
    want.stats = 0x5e15f91e617e4620ULL;
    want.pressure = 0x09b584fb6fa57fd6ULL;
    want.decisions = 0x1223b00525227288ULL;
    want.latency = 0xe34e9384d423e892ULL;
    expectDigests(runCdlRelief(FabricKind::Crossbar, true), want);
}

} // namespace
} // namespace relief
