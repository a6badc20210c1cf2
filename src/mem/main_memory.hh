/**
 * @file
 * LPDDR5-like main-memory model.
 *
 * Table VI of the paper configures LPDDR5-6400, one 16-bit channel,
 * 12.8 GB/s peak. The per-task memory times in Table I imply an achieved
 * single-stream bandwidth of roughly 55% of peak (row activations,
 * refresh, read/write turnaround): `efficiency` is that fraction.
 *
 * The model has two shapes, chosen by the bank count:
 *  - flat (no banks, the default): every transfer claims one channel
 *    resource at peak * efficiency with a fixed access latency;
 *  - banked (numBanks > 0, Table VI's bank-group mode): each transfer
 *    claims the bank its buffer maps to — throttled to
 *    peak * efficiency, the row-cycle-limited single-stream rate —
 *    and then the shared channel at full peak. One stream sees the
 *    same bandwidth as the flat model; streams on distinct banks
 *    overlap until the channel saturates. Buffers map to banks by a
 *    stream hint (the task-node id), mimicking address interleaving.
 *
 * Both shapes account read/write bytes and energy.
 */

#ifndef RELIEF_MEM_MAIN_MEMORY_HH
#define RELIEF_MEM_MAIN_MEMORY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/bandwidth_resource.hh"
#include "sim/simulator.hh"
#include "sim/ticks.hh"
#include "stats/stats.hh"

namespace relief
{

/** Configuration for MainMemory. */
struct MainMemoryConfig
{
    double peakGBs = 12.8;        ///< Channel peak bandwidth.
    /** Achieved single-stream fraction of peak: the channel rate of
     *  the flat model, the per-bank rate of the banked one. */
    double efficiency = 0.55;
    Tick accessLatency = fromNs(100.0); ///< First-access latency.
    double readEnergyPJPerByte = 37.5;  ///< ~4.7 pJ/bit LPDDR5 read.
    double writeEnergyPJPerByte = 41.0; ///< ~5.1 pJ/bit LPDDR5 write.
    int numBanks = 0;             ///< 0 selects the flat model.
    Tick bankLatency = fromNs(45.0); ///< Row activate + precharge.
};

class MainMemory : public SimObject
{
  public:
    MainMemory(Simulator &sim, std::string name,
               const MainMemoryConfig &config = {});

    /** The shared channel every transfer claims. */
    BandwidthResource &channel() { return channel_; }
    const BandwidthResource &channel() const { return channel_; }

    int numBanks() const { return int(banks_.size()); }
    const BandwidthResource &bank(int index) const
    {
        return *banks_[std::size_t(index)];
    }

    /**
     * Append the resources a transfer touching this memory must claim,
     * in order, to @p out (a caller-owned, reused buffer on the hot
     * path): the bank @p stream_hint maps to, when banked, then the
     * channel. @p stream_hint identifies the buffer/stream (e.g. the
     * task-node id).
     */
    void
    appendPath(std::uint64_t stream_hint,
               std::vector<BandwidthResource *> &out)
    {
        if (!banks_.empty())
            out.push_back(&bankFor(stream_hint));
        out.push_back(&channel_);
    }

    /** The resources for @p stream_hint as a fresh vector. */
    std::vector<BandwidthResource *>
    path(std::uint64_t stream_hint)
    {
        std::vector<BandwidthResource *> out;
        appendPath(stream_hint, out);
        return out;
    }

    /**
     * Every bandwidth resource this memory arbitrates, for
     * pressure-ledger registration: the channel, then the banks in
     * index order.
     */
    std::vector<BandwidthResource *> pressureResources();

    /** Account a read of @p bytes leaving DRAM. */
    void recordRead(std::uint64_t bytes) { readBytes_.add(bytes); }

    /** Account a write of @p bytes entering DRAM. */
    void recordWrite(std::uint64_t bytes) { writeBytes_.add(bytes); }

    std::uint64_t readBytes() const { return readBytes_.value(); }
    std::uint64_t writeBytes() const { return writeBytes_.value(); }

    /** All DRAM traffic in bytes (reads + writes). */
    std::uint64_t totalBytes() const
    {
        return readBytes() + writeBytes();
    }

    /** Dynamic DRAM energy in picojoules. */
    double energyPJ() const;

    const MainMemoryConfig &config() const { return config_; }

  private:
    BandwidthResource &bankFor(std::uint64_t stream_hint);

    MainMemoryConfig config_;
    BandwidthResource channel_;
    std::vector<std::unique_ptr<BandwidthResource>> banks_;
    Counter readBytes_;
    Counter writeBytes_;
};

} // namespace relief

#endif // RELIEF_MEM_MAIN_MEMORY_HH
