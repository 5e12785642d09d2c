// Streaming trace generation: produce application traces one at a time
// instead of materializing a whole fleet.
//
// All three synthetic generators are pure per (options, index) —
// Rng::Fork is const — so a fleet is really a function from index to
// AppTrace. TraceSource exposes exactly that function. The fleet simulator
// and the trainer (SimulateFleetStream, TrainFemuxStream) shard
// [0, app_count) into contiguous index chunks, fold each chunk's
// contribution into running accumulators, and discard its series before
// the next chunk, so peak memory is O(chunk + accumulators), independent of
// fleet size. Resident datasets enter the same path through
// DatasetTraceSource.
//
// Contract: MakeApp(i) is pure and thread-safe, and for the generator-backed
// sources is bit-identical to entry i of the corresponding materializing
// Generate*Dataset call (regression-tested in tests/trace/stream_test.cc).
#ifndef SRC_TRACE_STREAM_H_
#define SRC_TRACE_STREAM_H_

#include <cstddef>
#include <string>

#include "src/trace/azure_generator.h"
#include "src/trace/huawei_generator.h"
#include "src/trace/ibm_generator.h"
#include "src/trace/trace.h"

namespace femux {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  virtual std::string name() const = 0;
  virtual std::size_t app_count() const = 0;
  virtual int duration_days() const = 0;

  // Generates app `index`. Pure and thread-safe: two calls with the same
  // index return bit-identical traces, from any thread.
  virtual AppTrace MakeApp(std::size_t index) const = 0;

  // Arena form: writes app `index` into `out`, reusing its buffers where
  // the source supports it (the zero-alloc streaming contract, DESIGN.md
  // §14). Same purity/thread-safety/bit-identity contract as MakeApp; the
  // default simply delegates.
  virtual void MakeAppInto(std::size_t index, AppTrace* out) const {
    *out = MakeApp(index);
  }

  // Materializes the full fleet (small populations / parity tests only).
  Dataset Materialize() const;
};

// Lazily generates the Azure '19-like population of GenerateAzureDataset.
class AzureTraceSource final : public TraceSource {
 public:
  explicit AzureTraceSource(AzureGeneratorOptions options) : options_(options) {}
  std::string name() const override { return "azure19-synthetic"; }
  std::size_t app_count() const override {
    return static_cast<std::size_t>(options_.num_apps);
  }
  int duration_days() const override { return options_.duration_days; }
  AppTrace MakeApp(std::size_t index) const override {
    return MakeAzureApp(options_, static_cast<int>(index));
  }

 private:
  AzureGeneratorOptions options_;
};

// Lazily generates the IBM-like population of GenerateIbmDataset.
class IbmTraceSource final : public TraceSource {
 public:
  explicit IbmTraceSource(IbmGeneratorOptions options) : options_(options) {}
  std::string name() const override { return "ibm-synthetic"; }
  std::size_t app_count() const override {
    return static_cast<std::size_t>(options_.num_apps);
  }
  int duration_days() const override { return options_.duration_days; }
  AppTrace MakeApp(std::size_t index) const override {
    return MakeIbmApp(options_, static_cast<int>(index));
  }

 private:
  IbmGeneratorOptions options_;
};

// Lazily generates the Huawei-like per-second stress population.
class HuaweiTraceSource final : public TraceSource {
 public:
  explicit HuaweiTraceSource(HuaweiGeneratorOptions options) : options_(options) {}
  std::string name() const override { return "huawei-synthetic"; }
  std::size_t app_count() const override {
    return static_cast<std::size_t>(options_.num_apps);
  }
  int duration_days() const override {
    return (options_.duration_minutes + kMinutesPerDay - 1) / kMinutesPerDay;
  }
  AppTrace MakeApp(std::size_t index) const override {
    return MakeHuaweiApp(options_, static_cast<int>(index));
  }
  void MakeAppInto(std::size_t index, AppTrace* out) const override {
    MakeHuaweiAppInto(options_, static_cast<int>(index), out);
  }

 private:
  HuaweiGeneratorOptions options_;
};

// Adapts an already-materialized Dataset (e.g. a committed snapshot) to the
// streaming interface. Does not own the dataset; MakeApp copies the entry.
class DatasetTraceSource final : public TraceSource {
 public:
  explicit DatasetTraceSource(const Dataset& dataset) : dataset_(&dataset) {}
  std::string name() const override { return dataset_->name; }
  std::size_t app_count() const override { return dataset_->apps.size(); }
  int duration_days() const override { return dataset_->duration_days; }
  AppTrace MakeApp(std::size_t index) const override {
    return dataset_->apps[index];
  }
  void MakeAppInto(std::size_t index, AppTrace* out) const override {
    *out = dataset_->apps[index];  // Copy-assign reuses out's capacity.
  }

 private:
  const Dataset* dataset_;
};

}  // namespace femux

#endif  // SRC_TRACE_STREAM_H_
