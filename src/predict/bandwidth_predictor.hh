/**
 * @file
 * Memory-bandwidth predictors (paper Section III-B / Table VIII).
 *
 * The runtime predictor needs the bandwidth a task's DMA transfers will
 * achieve. Four schemes from the paper:
 *  - Max:     assume the channel's maximum bandwidth (the baseline the
 *             paper ships with, since accuracy barely matters —
 *             Observation 8).
 *  - Last:    last observed per-task bandwidth.
 *  - Average: arithmetic mean of the last n observations (n = 15).
 *  - EWMA:    pred = alpha * bw + (1 - alpha) * pred, alpha = 0.25.
 */

#ifndef RELIEF_PREDICT_BANDWIDTH_PREDICTOR_HH
#define RELIEF_PREDICT_BANDWIDTH_PREDICTOR_HH

#include <cstdint>
#include <string>
#include <vector>

namespace relief
{

/** Bandwidth prediction scheme. */
enum class BwPredictorKind
{
    Max,
    Last,
    Average,
    Ewma,
};

const char *bwPredictorName(BwPredictorKind kind);

class BandwidthPredictor
{
  public:
    /**
     * @param kind    Prediction scheme.
     * @param max_gbs Channel maximum (prediction before any sample and
     *                the Max scheme's constant answer).
     * @param window  Average scheme history length (paper: n = 15).
     * @param alpha   EWMA weight (paper: 0.25).
     */
    explicit BandwidthPredictor(BwPredictorKind kind, double max_gbs = 12.8,
                                int window = 15, double alpha = 0.25);

    /** Record the bandwidth a finished task achieved. */
    void observe(double achieved_gbs);

    /** Bandwidth estimate for the next task. */
    double predict() const;

    BwPredictorKind kind() const { return kind_; }
    std::uint64_t numObservations() const { return numObs_; }

  private:
    BwPredictorKind kind_;
    double maxGBs_;
    double alpha_;
    double last_;
    double ewma_;
    double windowSum_ = 0.0;
    /** Ring of the last `window` observations (oldest at histHead_),
     *  so observing allocates nothing. */
    std::vector<double> history_;
    std::size_t histHead_ = 0;
    std::size_t histCount_ = 0;
    std::uint64_t numObs_ = 0;
};

} // namespace relief

#endif // RELIEF_PREDICT_BANDWIDTH_PREDICTOR_HH
