/**
 * @file
 * Allocation budget of the model hot path.
 *
 * This binary replaces the global operator new so it can count every
 * heap allocation the process makes. A continuous CDL run under RELIEF
 * warms up for 100 ms simulated (pools, route buffers, ready-queue and
 * decision-log capacity grow to their working size), then allocations
 * are counted over the next 400 ms. The steady state must stay below
 * one allocation per 100 executed events, and no event closure may
 * fall back to the heap.
 *
 * The serving driver gets a budget per arrival: past its warm-up, an
 * arrival reuses a retired request DAG instead of building one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/relief.hh"
#include "serve/server.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    std::size_t a = static_cast<std::size_t>(align);
    std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace relief
{
namespace
{

TEST(AllocBudgetTest, SteadyStateCdlReliefAllocatesAlmostNothing)
{
    resetNodeIds();
    SocConfig config;
    config.policy = PolicyKind::Relief;
    Soc soc(config);
    for (AppId app : parseMix("CDL"))
        soc.submit(buildApp(app, AppConfig{}), 0, /*continuous=*/true);

    soc.run(fromMs(100.0));
    std::uint64_t events0 = soc.sim().events().numExecuted();
    std::uint64_t allocs0 = allocations.load();

    soc.run(fromMs(500.0));
    std::uint64_t allocs = allocations.load() - allocs0;
    std::uint64_t events = soc.sim().events().numExecuted() - events0;

    ASSERT_GT(events, 10000u) << "the window must exercise the hot path";
    EXPECT_LT(double(allocs), double(events) / 100.0)
        << allocs << " allocations over " << events << " events";
    EXPECT_EQ(soc.sim().events().numHeapCallables(), 0u);
}

TEST(AllocBudgetTest, ServingRecyclesRequestDagsPerArrival)
{
    ServeConfig config;
    config.soc.policy = PolicyKind::Relief;
    config.soc.fabric = FabricKind::Crossbar;
    config.soc.bankedMemory = true;
    config.arrival.kind = ArrivalKind::Bursty;
    config.arrival.ratePerSec = 150.0;
    config.admission.kind = AdmissionKind::Laxity;
    config.horizon = fromMs(4000.0);
    ServeDriver driver(config);

    const Tick from = fromMs(1000.0);
    const Tick to = fromMs(3900.0);
    std::uint64_t allocs0 = 0;
    std::uint64_t allocs1 = 0;
    int probes = 0;
    driver.soc().sim().at(from, [&] {
        allocs0 = allocations.load();
        ++probes;
    });
    driver.soc().sim().at(to, [&] {
        allocs1 = allocations.load();
        ++probes;
    });
    driver.run();

    std::uint64_t arrivals = 0;
    for (const ArrivalEvent &event : driver.schedule())
        arrivals += event.time >= from && event.time < to;
    ASSERT_GT(arrivals, 100u) << "the window must see steady arrivals";
    ASSERT_EQ(probes, 2);
    EXPECT_LT(double(allocs1 - allocs0), 20.0 * double(arrivals))
        << (allocs1 - allocs0) << " allocations over " << arrivals
        << " arrivals";
}

} // namespace
} // namespace relief
