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
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/relief.hh"

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

} // namespace
} // namespace relief
