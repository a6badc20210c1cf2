/**
 * @file
 * Loosely-coupled accelerator model.
 *
 * An accelerator bundles a fixed-function compute unit, a private
 * scratchpad, and a DMA engine (Fig. 3 of the paper). Task
 * orchestration — loading inputs, deciding forwards vs DRAM reads,
 * write-backs — is the hardware manager's job; the accelerator itself
 * only models compute occupancy and raises a completion callback (the
 * interrupt the manager's ISR services).
 */

#ifndef RELIEF_ACC_ACCELERATOR_HH
#define RELIEF_ACC_ACCELERATOR_HH

#include <memory>
#include <string>

#include "acc/acc_types.hh"
#include "acc/compute_model.hh"
#include "dma/dma_engine.hh"
#include "mem/main_memory.hh"
#include "mem/scratchpad.hh"
#include "sim/simulator.hh"
#include "stats/interval_union.hh"

namespace relief
{

class Accelerator : public SimObject
{
  public:
    /**
     * @param sim       Simulation context.
     * @param name      Debug name, e.g. "soc.convolution0".
     * @param type      Fixed-function type.
     * @param instance  Instance index among accelerators of this type.
     * @param fabric    DMA-plane interconnect.
     * @param dram_port Main memory's fabric port.
     * @param dram      Main memory.
     */
    Accelerator(Simulator &sim, std::string name, AccType type,
                int instance, Interconnect &fabric, PortId dram_port,
                MainMemory &dram, const ScratchpadConfig &spm_config,
                const DmaConfig &dma_config = {});

    AccType type() const { return type_; }
    int instance() const { return instance_; }

    Scratchpad &spm() { return *spm_; }
    const Scratchpad &spm() const { return *spm_; }
    DmaEngine &dma() { return *dma_; }
    const DmaEngine &dma() const { return *dma_; }

    /** True while a task occupies the functional unit (loading inputs
     *  or computing). */
    bool busy() const { return busy_; }

    /** Reserve the functional unit from now until release. */
    void acquire();

    /**
     * Run the functional unit for @p duration; fires @p on_done (any
     * nullary callable, or nullptr) and releases the unit when
     * finished. The unit must have been acquire()d (input DMA happens
     * under acquisition). The callable moves straight into the
     * completion event, erased once by its slot.
     */
    template <typename F>
    void
    startCompute(Tick duration, F &&on_done)
    {
        // Completion runs the manager's bookkeeping; functional
        // payloads charge their kernel math to HostCat::Kernels
        // themselves.
        Tick end = beginCompute(duration);
        sim().at(end, HostCat::Sched,
                 [this, done = std::forward<F>(on_done)]() mutable {
                     finishCompute();
                     runCompletion(done);
                 },
                 [this] { return name() + ".computeDone"; });
    }

    /** Release the functional unit without computing (error paths). */
    void release();

    /** Pure compute busy time (the Fig. 7 occupancy numerator). */
    Tick computeBusyTime(Tick upTo = maxTick) const
    {
        return computeBusy_.covered(upTo);
    }

    /** Tasks completed on this instance. */
    std::uint64_t tasksExecuted() const { return tasksExecuted_.value(); }

  private:
    /** Occupy the unit from now for @p duration; returns the end. */
    Tick beginCompute(Tick duration);

    /** Count the finished task and free the unit. */
    void finishCompute();

    AccType type_;
    int instance_;
    std::unique_ptr<Scratchpad> spm_;
    std::unique_ptr<DmaEngine> dma_;
    bool busy_ = false;
    IntervalUnion computeBusy_;
    Counter tasksExecuted_;
};

} // namespace relief

#endif // RELIEF_ACC_ACCELERATOR_HH
