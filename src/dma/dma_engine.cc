#include "dma/dma_engine.hh"

#include <utility>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace relief
{

const char *
trafficClassName(TrafficClass cls)
{
    switch (cls) {
      case TrafficClass::DramRead:
        return "dram-read";
      case TrafficClass::DramWrite:
        return "dram-write";
      case TrafficClass::SpmForward:
        return "spm-forward";
    }
    return "?";
}

DmaEngine::DmaEngine(Simulator &sim, std::string name, Interconnect &fabric,
                     PortId dram_port, MainMemory &dram,
                     Scratchpad &localSpm, const DmaConfig &config)
    : SimObject(sim, std::move(name)), fabric_(fabric), dram_(dram),
      localSpm_(localSpm), config_(config),
      port_(fabric.registerPort(this->name())), dramPort_(dram_port),
      readChannel_(this->name() + ".rd", config.channelGBs,
                   config.setupLatency),
      writeChannel_(this->name() + ".wr", config.channelGBs,
                    config.setupLatency)
{
}

RequestorTag
DmaEngine::makeTag(TrafficClass cls, const TransferCtx &ctx) const
{
    RequestorTag tag;
    tag.source = std::int16_t(sourceId_);
    tag.qosClass = ctx.qosClass;
    tag.requestId = ctx.requestId;
    switch (cls) {
      case TrafficClass::DramRead:
        tag.traffic = PressureTraffic::DramFetch;
        break;
      case TrafficClass::DramWrite:
        tag.traffic = ctx.spill ? PressureTraffic::SpmSpill
                                : PressureTraffic::Writeback;
        break;
      case TrafficClass::SpmForward:
        tag.traffic = PressureTraffic::Forward;
        break;
    }
    return tag;
}

Tick
DmaEngine::reserveWhole(std::uint64_t bytes, TrafficClass cls,
                        const RequestorTag &tag)
{
    auto timing = reserveTransfer(route_, now(), bytes, tag);
    fabric_.recordTransfer(timing.start, timing.end, bytes);
    // Producer-side read energy of forwards is accounted by the
    // caller, which knows which scratchpad it pulled from.
    accountTraffic(bytes, cls);
    DPRINTF(Dma, trafficClassName(cls), " launch ", bytes,
            " bytes, done at ", timing.end);
    return timing.end;
}

Tick
DmaEngine::launchChunked(const std::vector<BandwidthResource *> &path,
                         std::uint64_t bytes, TrafficClass cls,
                         Callback on_done, const RequestorTag &tag)
{
    accountTraffic(bytes, cls);
    DPRINTF(Dma, trafficClassName(cls), " chunked launch ", bytes,
            " bytes in ", config_.burstBytes, "-byte bursts");
    outstanding_ += bytes;

    // Claim one burst now; each burst's completion event claims the
    // next, so competing streams interleave at burst granularity.
    // The returned tick is a lower bound on completion (exact when
    // nothing else queues behind us); the callback fires at the true
    // completion time.
    ChunkState *state = acquireChunk();
    state->path = path; // copies into the pooled state's capacity
    state->remaining = bytes;
    state->onDone = std::move(on_done);
    state->tag = tag;
    issueNextChunk(state);

    Tick optimistic = now();
    double min_bw = state->path[0]->bandwidth();
    for (const auto *res : state->path) {
        optimistic = std::max(optimistic, res->nextFree());
        min_bw = std::min(min_bw, res->bandwidth());
    }
    return optimistic + transferTime(state->remaining, min_bw);
}

DmaEngine::ChunkState *
DmaEngine::acquireChunk()
{
    if (chunkFree_.empty()) {
        chunkPool_.push_back(std::make_unique<ChunkState>());
        return chunkPool_.back().get();
    }
    ChunkState *state = chunkFree_.back();
    chunkFree_.pop_back();
    return state;
}

void
DmaEngine::releaseChunk(ChunkState *state)
{
    state->path.clear(); // keeps capacity for the next transfer
    state->remaining = 0;
    state->onDone = nullptr;
    state->tag = RequestorTag{};
    chunkFree_.push_back(state);
}

void
DmaEngine::issueNextChunk(ChunkState *state)
{
    std::uint64_t n = std::min(state->remaining, config_.burstBytes);
    state->remaining -= n;
    auto timing = reserveTransfer(state->path, now(), n, state->tag);
    fabric_.recordTransfer(timing.start, timing.end, n);
    sim().at(timing.end, HostCat::Dma,
             [this, state, n]() {
                 outstanding_ -= n;
                 if (state->remaining > 0) {
                     issueNextChunk(state);
                 } else {
                     // Recycle before running the callback: on_done may
                     // start another chunked transfer and reuse this
                     // very state.
                     Callback done = std::move(state->onDone);
                     releaseChunk(state);
                     if (done)
                         done();
                 }
             },
             [this] { return name() + ".chunk"; });
}

void
DmaEngine::accountTraffic(std::uint64_t bytes, TrafficClass cls)
{
    switch (cls) {
      case TrafficClass::DramRead:
        dram_.recordRead(bytes);
        localSpm_.recordWrite(bytes);
        dramReadBytes_.add(bytes);
        break;
      case TrafficClass::DramWrite:
        localSpm_.recordRead(bytes);
        dram_.recordWrite(bytes);
        dramWriteBytes_.add(bytes);
        break;
      case TrafficClass::SpmForward:
        localSpm_.recordWrite(bytes);
        forwardBytes_.add(bytes);
        break;
    }
}

void
DmaEngine::routeDramRead(std::uint64_t stream_hint)
{
    route_.clear();
    route_.push_back(&readChannel_);
    dram_.appendPath(stream_hint, route_);
    fabric_.appendPath(dramPort_, port_, route_);
    route_.push_back(&localSpm_.port());
}

void
DmaEngine::routeDramWrite(std::uint64_t stream_hint)
{
    route_.clear();
    route_.push_back(&writeChannel_);
    route_.push_back(&localSpm_.port());
    fabric_.appendPath(port_, dramPort_, route_);
    dram_.appendPath(stream_hint, route_);
}

void
DmaEngine::routeForward(Scratchpad &producer, PortId producer_port,
                        std::uint64_t bytes)
{
    RELIEF_ASSERT(&producer != &localSpm_,
                  name(), ": use colocation, not forwarding, for the "
                  "local scratchpad");
    producer.recordRead(bytes);
    route_.clear();
    route_.push_back(&readChannel_);
    route_.push_back(&producer.port());
    fabric_.appendPath(producer_port, port_, route_);
    route_.push_back(&localSpm_.port());
}

Tick
DmaEngine::reserveStream(Scratchpad &producer, PortId producer_port,
                         std::uint64_t bytes, const TransferCtx &ctx)
{
    RELIEF_ASSERT(&producer != &localSpm_,
                  name(), ": streaming from the local scratchpad");
    producer.recordRead(bytes);
    localSpm_.recordWrite(bytes);
    forwardBytes_.add(bytes);

    route_.clear();
    fabric_.appendPath(producer_port, port_, route_);
    auto timing = reserveTransfer(route_, now(), bytes,
                                  makeTag(TrafficClass::SpmForward, ctx));
    timing.end += config_.streamSetupLatency;
    fabric_.recordTransfer(timing.start, timing.end, bytes);
    DPRINTF(Dma, "stream ", bytes, " bytes, done at ", timing.end);
    return timing.end;
}

std::uint64_t
DmaEngine::bytesMoved(TrafficClass cls) const
{
    switch (cls) {
      case TrafficClass::DramRead:
        return dramReadBytes_.value();
      case TrafficClass::DramWrite:
        return dramWriteBytes_.value();
      case TrafficClass::SpmForward:
        return forwardBytes_.value();
    }
    return 0;
}

} // namespace relief
