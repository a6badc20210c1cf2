#include "sim/periodic_service.hh"

#include <utility>

namespace relief
{

PeriodicService::PeriodicService(Simulator &sim, std::string name,
                                 Tick period, HostCat cat,
                                 const char *event_label)
    : SimObject(sim, std::move(name)), period_(period), cat_(cat),
      eventLabel_(event_label)
{
}

void
PeriodicService::setLiveness(std::function<bool()> alive)
{
    alive_ = std::move(alive);
}

void
PeriodicService::start()
{
    if (pending_.pending())
        return;
    fire();
}

void
PeriodicService::stop()
{
    pending_.cancel();
}

void
PeriodicService::fire()
{
    tick();
    bool alive = alive_ ? alive_() : !sim().events().empty();
    if (alive)
        pending_ = sim().after(period_, cat_, [this] { fire(); },
                               eventLabel_);
}

} // namespace relief
