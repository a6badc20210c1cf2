#include "mem/main_memory.hh"

#include <utility>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace relief
{

MainMemory::MainMemory(Simulator &sim, std::string name,
                       const MainMemoryConfig &config)
    : SimObject(sim, std::move(name)), config_(config),
      // Banks provide the efficiency limit when present, so the
      // channel then runs at peak.
      channel_(this->name() + ".channel",
               config.numBanks > 0 ? config.peakGBs
                                   : config.peakGBs * config.efficiency,
               config.accessLatency)
{
    RELIEF_ASSERT(config.numBanks >= 0, "negative DRAM bank count");
    for (int i = 0; i < config.numBanks; ++i) {
        banks_.push_back(std::make_unique<BandwidthResource>(
            this->name() + ".bank" + std::to_string(i),
            config.peakGBs * config.efficiency, config.bankLatency));
    }
}

BandwidthResource &
MainMemory::bankFor(std::uint64_t stream_hint)
{
    std::uint64_t h = stream_hint * 2654435761ull;
    auto bank_index = std::size_t(h % std::uint64_t(banks_.size()));
    DPRINTF(Mem, "stream ", stream_hint, " -> bank ", bank_index);
    return *banks_[bank_index];
}

std::vector<BandwidthResource *>
MainMemory::pressureResources()
{
    std::vector<BandwidthResource *> all = {&channel_};
    for (auto &bank : banks_)
        all.push_back(bank.get());
    return all;
}

double
MainMemory::energyPJ() const
{
    return double(readBytes()) * config_.readEnergyPJPerByte +
           double(writeBytes()) * config_.writeEnergyPJPerByte;
}

} // namespace relief
