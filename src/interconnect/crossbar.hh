/**
 * @file
 * Crossbar switch: up to n x m concurrent transactions (paper §V-H).
 *
 * Each port gets its own egress and ingress resources; transfers between
 * disjoint port pairs proceed fully in parallel, while transfers sharing
 * a port serialize on that port only.
 */

#ifndef RELIEF_INTERCONNECT_CROSSBAR_HH
#define RELIEF_INTERCONNECT_CROSSBAR_HH

#include <memory>
#include <string>
#include <vector>

#include "interconnect/interconnect.hh"

namespace relief
{

/** Configuration for Crossbar. */
struct CrossbarConfig
{
    double portBandwidthGBs = 14.9;       ///< Per-port lane bandwidth.
    Tick routeLatency = fromNs(2.5);      ///< Per-hop switch latency.
};

class Crossbar : public Interconnect
{
  public:
    Crossbar(Simulator &sim, std::string name,
             const CrossbarConfig &config = {});

    PortId registerPort(const std::string &port_name) override;
    void appendPath(PortId src, PortId dst,
                    std::vector<BandwidthResource *> &out) override;
    int numPorts() const override { return int(ports_.size()); }
    std::vector<BandwidthResource *> resources() override
    {
        std::vector<BandwidthResource *> all;
        for (Port &port : ports_) {
            all.push_back(port.egress.get());
            all.push_back(port.ingress.get());
        }
        return all;
    }

  private:
    struct Port
    {
        std::unique_ptr<BandwidthResource> egress;
        std::unique_ptr<BandwidthResource> ingress;
    };

    CrossbarConfig config_;
    std::vector<Port> ports_;
};

} // namespace relief

#endif // RELIEF_INTERCONNECT_CROSSBAR_HH
