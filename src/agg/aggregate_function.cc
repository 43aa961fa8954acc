#include "agg/aggregate_function.h"

#include <cmath>

#include "util/check.h"

namespace ipda::agg {

void AddInto(Vector& a, const Vector& b) {
  IPDA_CHECK_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

namespace {

class SumFunction : public AggregateFunction {
 public:
  std::string name() const override { return "SUM"; }
  size_t arity() const override { return 1; }
  void ContributionInto(double reading, Vector& out) const override {
    out.assign(1, reading);
  }
  double Finalize(const Vector& acc) const override { return acc[0]; }
};

class CountFunction : public AggregateFunction {
 public:
  std::string name() const override { return "COUNT"; }
  size_t arity() const override { return 1; }
  void ContributionInto(double, Vector& out) const override {
    out.assign(1, 1.0);
  }
  double Finalize(const Vector& acc) const override { return acc[0]; }
};

class AverageFunction : public AggregateFunction {
 public:
  std::string name() const override { return "AVERAGE"; }
  size_t arity() const override { return 2; }
  void ContributionInto(double reading, Vector& out) const override {
    out.assign({1.0, reading});
  }
  double Finalize(const Vector& acc) const override {
    return acc[0] > 0.0 ? acc[1] / acc[0] : 0.0;
  }
};

class VarianceFunction : public AggregateFunction {
 public:
  std::string name() const override { return "VARIANCE"; }
  size_t arity() const override { return 3; }
  void ContributionInto(double reading, Vector& out) const override {
    out.assign({1.0, reading, reading * reading});
  }
  double Finalize(const Vector& acc) const override {
    if (acc[0] <= 0.0) return 0.0;
    const double mean = acc[1] / acc[0];
    return acc[2] / acc[0] - mean * mean;
  }
};

class PowerMeanExtremum : public AggregateFunction {
 public:
  explicit PowerMeanExtremum(double k) : k_(k) {}
  std::string name() const override { return k_ > 0 ? "MAX~" : "MIN~"; }
  size_t arity() const override { return 1; }
  void ContributionInto(double reading, Vector& out) const override {
    IPDA_DCHECK(reading > 0.0);
    out.assign(1, std::pow(reading, k_));
  }
  double Finalize(const Vector& acc) const override {
    if (acc[0] <= 0.0) return 0.0;
    return std::pow(acc[0], 1.0 / k_);
  }

 private:
  double k_;
};

class HistogramFunction : public AggregateFunction {
 public:
  HistogramFunction(double lo, double hi, size_t buckets)
      : lo_(lo), hi_(hi), buckets_(buckets) {
    IPDA_CHECK_GT(buckets, 0u);
    IPDA_CHECK_LT(lo, hi);
  }
  std::string name() const override { return "HISTOGRAM"; }
  size_t arity() const override { return buckets_; }
  void ContributionInto(double reading, Vector& out) const override {
    out.assign(buckets_, 0.0);
    const double span = hi_ - lo_;
    double idx = (reading - lo_) / span * static_cast<double>(buckets_);
    if (idx < 0.0) idx = 0.0;
    size_t bucket = static_cast<size_t>(idx);
    if (bucket >= buckets_) bucket = buckets_ - 1;
    out[bucket] = 1.0;
  }
  double Finalize(const Vector& acc) const override {
    double total = 0.0;
    for (double c : acc) total += c;
    return total;
  }

 private:
  double lo_;
  double hi_;
  size_t buckets_;
};

}  // namespace

std::unique_ptr<AggregateFunction> MakeSum() {
  return std::make_unique<SumFunction>();
}

std::unique_ptr<AggregateFunction> MakeCount() {
  return std::make_unique<CountFunction>();
}

std::unique_ptr<AggregateFunction> MakeAverage() {
  return std::make_unique<AverageFunction>();
}

std::unique_ptr<AggregateFunction> MakeVariance() {
  return std::make_unique<VarianceFunction>();
}

std::unique_ptr<AggregateFunction> MakePowerMeanExtremum(double k) {
  IPDA_CHECK_NE(k, 0.0);
  return std::make_unique<PowerMeanExtremum>(k);
}

std::unique_ptr<AggregateFunction> MakeHistogram(double lo, double hi,
                                                 size_t buckets) {
  return std::make_unique<HistogramFunction>(lo, hi, buckets);
}

std::vector<double> HistogramBucketLowerBounds(double lo, double hi,
                                               size_t buckets) {
  IPDA_CHECK_GT(buckets, 0u);
  IPDA_CHECK_LT(lo, hi);
  std::vector<double> bounds;
  bounds.reserve(buckets);
  const double width = (hi - lo) / static_cast<double>(buckets);
  for (size_t b = 0; b < buckets; ++b) {
    bounds.push_back(lo + width * static_cast<double>(b));
  }
  return bounds;
}

}  // namespace ipda::agg
