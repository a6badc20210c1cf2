#include "predict/bandwidth_predictor.hh"

#include "sim/logging.hh"

namespace relief
{

const char *
bwPredictorName(BwPredictorKind kind)
{
    switch (kind) {
      case BwPredictorKind::Max:
        return "Max";
      case BwPredictorKind::Last:
        return "Last";
      case BwPredictorKind::Average:
        return "Average";
      case BwPredictorKind::Ewma:
        return "EWMA";
    }
    return "unknown";
}

BandwidthPredictor::BandwidthPredictor(BwPredictorKind kind, double max_gbs,
                                       int window, double alpha)
    : kind_(kind), maxGBs_(max_gbs), alpha_(alpha),
      last_(max_gbs), ewma_(max_gbs)
{
    RELIEF_ASSERT(max_gbs > 0.0, "bandwidth predictor needs positive max");
    RELIEF_ASSERT(window >= 1, "average window must be >= 1");
    RELIEF_ASSERT(alpha > 0.0 && alpha <= 1.0, "EWMA alpha out of (0, 1]");
    history_.resize(std::size_t(window));
}

void
BandwidthPredictor::observe(double achieved_gbs)
{
    if (achieved_gbs <= 0.0)
        return;
    ++numObs_;
    last_ = achieved_gbs;
    ewma_ = alpha_ * achieved_gbs + (1.0 - alpha_) * ewma_;
    windowSum_ += achieved_gbs;
    if (histCount_ < history_.size()) {
        history_[(histHead_ + histCount_++) % history_.size()] =
            achieved_gbs;
    } else {
        // Full window: the newest sample replaces the oldest.
        windowSum_ -= history_[histHead_];
        history_[histHead_] = achieved_gbs;
        histHead_ = (histHead_ + 1) % history_.size();
    }
}

double
BandwidthPredictor::predict() const
{
    switch (kind_) {
      case BwPredictorKind::Max:
        return maxGBs_;
      case BwPredictorKind::Last:
        return last_;
      case BwPredictorKind::Average:
        return histCount_ == 0 ? maxGBs_
                               : windowSum_ / double(histCount_);
      case BwPredictorKind::Ewma:
        return ewma_;
    }
    return maxGBs_;
}

} // namespace relief
