// Additive aggregate functions (§II-B).
//
// The paper restricts attention to additive aggregation y = Σ f_i because
// it underlies most statistics: each sensor maps its reading to a small
// vector of contributions, the network adds vectors componentwise, and the
// base station finalizes. SUM/COUNT/AVERAGE/VARIANCE are exact; MIN/MAX are
// approximated by the paper's power-mean trick
// max(x_1..x_n) = lim_{k→∞} (Σ x_i^k)^{1/k}.

#ifndef IPDA_AGG_AGGREGATE_FUNCTION_H_
#define IPDA_AGG_AGGREGATE_FUNCTION_H_

#include <memory>
#include <string>
#include <vector>

#include "util/result.h"

namespace ipda::agg {

// Componentwise additive accumulator.
using Vector = std::vector<double>;

// a += b. Sizes must match.
void AddInto(Vector& a, const Vector& b);

class AggregateFunction {
 public:
  virtual ~AggregateFunction() = default;

  virtual std::string name() const = 0;

  // Number of additive components each sensor contributes.
  virtual size_t arity() const = 0;

  // Maps one sensor reading to its contribution vector (size == arity()),
  // written into `out` (overwritten, its capacity reused).
  virtual void ContributionInto(double reading, Vector& out) const = 0;

  Vector Contribution(double reading) const {
    Vector out;
    ContributionInto(reading, out);
    return out;
  }

  // Reduces the network-wide accumulated vector to the answer.
  virtual double Finalize(const Vector& accumulated) const = 0;
};

// y = Σ r_i.
std::unique_ptr<AggregateFunction> MakeSum();
// y = N (every sensor contributes 1).
std::unique_ptr<AggregateFunction> MakeCount();
// y = Σ r_i / N, via components [1, r].
std::unique_ptr<AggregateFunction> MakeAverage();
// y = Σ r_i² / N − (Σ r_i / N)², via components [1, r, r²] (§II-B example).
std::unique_ptr<AggregateFunction> MakeVariance();
// Power-mean approximation of MAX (k > 0) or MIN (k < 0): (Σ r^k)^{1/k}.
// Readings must be positive. Larger |k| tightens the approximation.
std::unique_ptr<AggregateFunction> MakePowerMeanExtremum(double k);
// Histogram over [lo, hi) with `buckets` equal-width bins (readings
// outside clamp to the edge bins). Bucket counts are additive, so the
// whole distribution aggregates privately through slicing like any other
// vector. The accumulated Vector IS the histogram; Finalize() returns the
// total count.
std::unique_ptr<AggregateFunction> MakeHistogram(double lo, double hi,
                                                 size_t buckets);
// Lower edge of each histogram bin, for labeling results.
std::vector<double> HistogramBucketLowerBounds(double lo, double hi,
                                               size_t buckets);

}  // namespace ipda::agg

#endif  // IPDA_AGG_AGGREGATE_FUNCTION_H_
