#include "acc/accelerator.hh"

#include <utility>

#include "sim/logging.hh"

namespace relief
{

Accelerator::Accelerator(Simulator &sim, std::string name, AccType type,
                         int instance, Interconnect &fabric,
                         PortId dram_port, MainMemory &dram,
                         const ScratchpadConfig &spm_config,
                         const DmaConfig &dma_config)
    : SimObject(sim, std::move(name)), type_(type), instance_(instance),
      spm_(std::make_unique<Scratchpad>(sim, this->name() + ".spm",
                                        spm_config)),
      dma_(std::make_unique<DmaEngine>(sim, this->name() + ".dma", fabric,
                                       dram_port, dram, *spm_, dma_config))
{
}

void
Accelerator::acquire()
{
    RELIEF_ASSERT(!busy_, name(), ": acquire while busy");
    busy_ = true;
}

Tick
Accelerator::beginCompute(Tick duration)
{
    RELIEF_ASSERT(busy_, name(), ": compute without acquisition");
    Tick start = now();
    Tick end = start + duration;
    computeBusy_.retire(start);
    computeBusy_.add(start, end);
    return end;
}

void
Accelerator::finishCompute()
{
    tasksExecuted_.add(1);
    busy_ = false;
}

void
Accelerator::release()
{
    RELIEF_ASSERT(busy_, name(), ": release while idle");
    busy_ = false;
}

} // namespace relief
