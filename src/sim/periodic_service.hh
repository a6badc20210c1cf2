/**
 * @file
 * Base class for periodic model services: the counter-track sampler,
 * the stat exposition and the serving layer's burn-rate alerts.
 *
 * A PeriodicService runs its tick() once on start() and then every
 * period, re-arming only while the model is alive. The default
 * liveness check is "events pending", so a service never keeps the
 * event queue alive on its own: a run ends at most one period after
 * the last real event. setLiveness() replaces that check. The serving
 * driver keys every service on real work (arrivals pending or requests
 * in flight), because two services using the queue-occupancy default
 * would keep each other alive forever.
 */

#ifndef RELIEF_SIM_PERIODIC_SERVICE_HH
#define RELIEF_SIM_PERIODIC_SERVICE_HH

#include <functional>
#include <string>

#include "sim/simulator.hh"

namespace relief
{

class PeriodicService : public SimObject
{
  public:
    /** Re-arm while @p alive returns true instead of the default
     *  "events pending" check. */
    void setLiveness(std::function<bool()> alive);

    /** Tick now and begin periodic ticks; a no-op while a tick is
     *  already pending. */
    void start();

    /** Cancel the pending tick; start() re-arms. */
    void stop();

    Tick period() const { return period_; }

  protected:
    /**
     * @param period      Ticks between runs (must be positive).
     * @param cat         Host-time category of the periodic event.
     * @param event_label Label of the periodic event (a literal).
     */
    PeriodicService(Simulator &sim, std::string name, Tick period,
                    HostCat cat, const char *event_label);

    /** The work done every period. */
    virtual void tick() = 0;

  private:
    void fire();

    Tick period_;
    HostCat cat_;
    const char *eventLabel_;
    std::function<bool()> alive_;
    EventHandle pending_;
};

} // namespace relief

#endif // RELIEF_SIM_PERIODIC_SERVICE_HH
