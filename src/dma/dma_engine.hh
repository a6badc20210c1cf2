/**
 * @file
 * Per-accelerator DMA engine.
 *
 * Each accelerator owns a DMA engine with independent read and write
 * channels (loads of the next task can overlap the write-back of the
 * previous one). The engine moves data between main memory and the
 * local scratchpad, or pulls directly from a producer accelerator's
 * scratchpad over the interconnect — the forwarding mechanism the paper
 * assumes (scratchpads exposed read-only on the DMA plane).
 */

#ifndef RELIEF_DMA_DMA_ENGINE_HH
#define RELIEF_DMA_DMA_ENGINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "interconnect/interconnect.hh"
#include "mem/bandwidth_resource.hh"
#include "mem/main_memory.hh"
#include "mem/pressure_ledger.hh"
#include "mem/scratchpad.hh"
#include "sim/simulator.hh"

namespace relief
{

/** Categories of modeled traffic (drives Fig. 5's breakdown). */
enum class TrafficClass
{
    DramRead,   ///< DRAM -> local SPM.
    DramWrite,  ///< local SPM -> DRAM (write-back).
    SpmForward, ///< producer SPM -> local SPM (forward).
};

/** Printable name of @p cls ("dram-read", ...). */
const char *trafficClassName(TrafficClass cls);

/** Configuration for DmaEngine. */
struct DmaConfig
{
    double channelGBs = 16.0;          ///< Max rate per channel.
    Tick setupLatency = fromNs(500.0); ///< Descriptor programming cost.
    Tick streamSetupLatency = fromNs(100.0); ///< AXI-stream handshake.
    /**
     * Split transfers into bursts of this many bytes, claiming shared
     * resources one burst at a time so concurrent streams interleave
     * at burst granularity instead of serializing whole buffers.
     * 0 = move each buffer as one reservation (the default; whole-
     * buffer timing is what the Table I calibration uses).
     */
    std::uint64_t burstBytes = 0;
};

/**
 * Attribution context of one transfer, threaded from the hardware
 * manager down to the pressure ledger: which QoS class and request
 * the moved bytes belong to, and whether a write-back is a forced
 * spill (partition eviction) rather than the normal write-back rule.
 */
struct TransferCtx
{
    std::uint8_t qosClass = 0;
    std::uint64_t requestId = 0;
    bool spill = false;
};

/**
 * Completion callbacks: every transfer call takes any nullary callable
 * (or nullptr for none) as a template parameter and moves it straight
 * into its completion event, so the event slot's InlineCallable is its
 * only type erasure. Only burst-mode transfers, whose completion rides
 * a pooled ChunkState across several events, store it as a Callback.
 */
class DmaEngine : public SimObject
{
  public:
    using Callback = std::function<void()>;

    /**
     * @param sim       Simulation context.
     * @param name      Debug name.
     * @param fabric    Interconnect; the engine registers its own port.
     * @param dram_port Port where main memory attaches to @p fabric.
     * @param dram      Main memory endpoint.
     * @param localSpm  The owning accelerator's scratchpad.
     */
    DmaEngine(Simulator &sim, std::string name, Interconnect &fabric,
              PortId dram_port, MainMemory &dram, Scratchpad &localSpm,
              const DmaConfig &config = {});

    /** Interconnect port this engine (and its SPM) attaches through. */
    PortId port() const { return port_; }

    /**
     * DRAM -> local SPM load of @p bytes.
     *
     * @param stream_hint Identifies the buffer being streamed (task
     *        node id); the banked memory model maps it to a bank.
     * @return the reservation's end tick; @p on_done fires then.
     */
    template <typename F>
    Tick
    readFromDram(std::uint64_t bytes, F &&on_done,
                 std::uint64_t stream_hint = 0, const TransferCtx &ctx = {})
    {
        routeDramRead(stream_hint);
        return launch(bytes, TrafficClass::DramRead,
                      std::forward<F>(on_done),
                      makeTag(TrafficClass::DramRead, ctx));
    }

    /** Local SPM -> DRAM write-back of @p bytes. */
    template <typename F>
    Tick
    writeToDram(std::uint64_t bytes, F &&on_done,
                std::uint64_t stream_hint = 0, const TransferCtx &ctx = {})
    {
        routeDramWrite(stream_hint);
        return launch(bytes, TrafficClass::DramWrite,
                      std::forward<F>(on_done),
                      makeTag(TrafficClass::DramWrite, ctx));
    }

    /**
     * Producer SPM -> local SPM forward of @p bytes. The caller is
     * responsible for ongoing-read bookkeeping on the producer
     * partition (beginRead before calling, endRead from @p on_done).
     */
    template <typename F>
    Tick
    forwardFrom(Scratchpad &producer, PortId producer_port,
                std::uint64_t bytes, F &&on_done,
                const TransferCtx &ctx = {})
    {
        routeForward(producer, producer_port, bytes);
        return launch(bytes, TrafficClass::SpmForward,
                      std::forward<F>(on_done),
                      makeTag(TrafficClass::SpmForward, ctx));
    }

    /**
     * AXI-stream-style forward: a dedicated producer/consumer FIFO
     * over the fabric (the paper's Section II alternative mechanism,
     * cf. ARM AXI-Stream / VIP buffers). Bypasses the DMA read channel
     * and both scratchpad ports — only the fabric is claimed, with a
     * small per-stream setup cost. Accounting matches forwardFrom().
     */
    template <typename F>
    Tick
    streamFrom(Scratchpad &producer, PortId producer_port,
               std::uint64_t bytes, F &&on_done, const TransferCtx &ctx = {})
    {
        return completeAt(reserveStream(producer, producer_port, bytes, ctx),
                          bytes, std::forward<F>(on_done), ".streamDone");
    }

    /**
     * Pressure-ledger source id stamped on every transfer this engine
     * launches (the owning accelerator's id); set by the Soc after
     * construction, -1 (untagged) until then.
     */
    void setPressureSource(int source_id) { sourceId_ = source_id; }
    int pressureSource() const { return sourceId_; }

    /** The engine's own channels, for pressure-ledger registration. */
    BandwidthResource &readChannel() { return readChannel_; }
    BandwidthResource &writeChannel() { return writeChannel_; }

    /** Earliest tick the read channel can accept a new transfer. */
    Tick readChannelFree() const { return readChannel_.nextFree(); }

    /** Earliest tick the write channel can accept a new transfer. */
    Tick writeChannelFree() const { return writeChannel_.nextFree(); }

    std::uint64_t bytesMoved(TrafficClass cls) const;

    /** Bytes launched but not yet delivered, across both channels —
     *  the IntervalSampler's memory-pressure probe. */
    std::uint64_t outstandingBytes() const { return outstanding_; }

  private:
    /**
     * In-flight burst-mode transfer. Instances are pooled: the engine
     * owns them (chunkPool_) and recycles through a free list, so a
     * long run of chunked transfers allocates a bounded number of
     * states instead of one shared_ptr per transfer. Completion events
     * capture the raw pointer; the engine outlives its events.
     */
    struct ChunkState
    {
        std::vector<BandwidthResource *> path;
        std::uint64_t remaining = 0;
        Callback onDone;
        RequestorTag tag;
    };

    ChunkState *acquireChunk();
    void releaseChunk(ChunkState *state);

    /** Ledger tag for a transfer of class @p cls under @p ctx. */
    RequestorTag makeTag(TrafficClass cls, const TransferCtx &ctx) const;

    /** Rebuild route_ for a DRAM read, a DRAM write-back, or a
     *  forward from @p producer (which also accounts its read). */
    void routeDramRead(std::uint64_t stream_hint);
    void routeDramWrite(std::uint64_t stream_hint);
    void routeForward(Scratchpad &producer, PortId producer_port,
                      std::uint64_t bytes);

    /** Move @p bytes along route_: one reservation, or bursts when
     *  the transfer exceeds the configured burst size. */
    template <typename F>
    Tick
    launch(std::uint64_t bytes, TrafficClass cls, F &&on_done,
           const RequestorTag &tag)
    {
        if (config_.burstBytes > 0 && bytes > config_.burstBytes) {
            return launchChunked(route_, bytes, cls,
                                 Callback(std::forward<F>(on_done)), tag);
        }
        return completeAt(reserveWhole(bytes, cls, tag), bytes,
                          std::forward<F>(on_done), ".done");
    }

    /** Reserve route_ for @p bytes as one transfer and account it;
     *  returns the end tick. */
    Tick reserveWhole(std::uint64_t bytes, TrafficClass cls,
                      const RequestorTag &tag);

    /** Reserve and account a streamFrom() transfer; returns its end. */
    Tick reserveStream(Scratchpad &producer, PortId producer_port,
                       std::uint64_t bytes, const TransferCtx &ctx);

    Tick launchChunked(const std::vector<BandwidthResource *> &path,
                       std::uint64_t bytes, TrafficClass cls,
                       Callback on_done, const RequestorTag &tag);

    /** Count @p bytes outstanding until @p when, then run @p on_done;
     *  the event is labelled name() + @p label_suffix. */
    template <typename F>
    Tick
    completeAt(Tick when, std::uint64_t bytes, F &&on_done,
               const char *label_suffix)
    {
        outstanding_ += bytes;
        sim().at(when, HostCat::Dma,
                 [this, bytes, done = std::forward<F>(on_done)]() mutable {
                     outstanding_ -= bytes;
                     runCompletion(done);
                 },
                 [this, label_suffix] { return name() + label_suffix; });
        return when;
    }
    void issueNextChunk(ChunkState *state);
    void accountTraffic(std::uint64_t bytes, TrafficClass cls);

    Interconnect &fabric_;
    MainMemory &dram_;
    Scratchpad &localSpm_;
    DmaConfig config_;
    PortId port_;
    PortId dramPort_;
    BandwidthResource readChannel_;
    BandwidthResource writeChannel_;
    Counter dramReadBytes_;
    Counter dramWriteBytes_;
    Counter forwardBytes_;
    std::uint64_t outstanding_ = 0;
    int sourceId_ = -1;
    std::vector<std::unique_ptr<ChunkState>> chunkPool_;
    std::vector<ChunkState *> chunkFree_;
    /** Route of the transfer being issued, rebuilt in place by each
     *  readFromDram/writeToDram/forwardFrom/streamFrom call: reusing
     *  its capacity keeps the issue path allocation-free. */
    std::vector<BandwidthResource *> route_;
};

} // namespace relief

#endif // RELIEF_DMA_DMA_ENGINE_HH
