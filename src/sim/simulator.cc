#include "sim/simulator.hh"

namespace relief
{

Tick
Simulator::run(Tick limit)
{
    stopRequested_ = false;
    // nextTick() is maxTick on an empty queue, so runOne() ends the
    // loop there even when limit is maxTick.
    while (!stopRequested_ && events_.nextTick() <= limit &&
           events_.runOne()) {
    }
    return now();
}

} // namespace relief
