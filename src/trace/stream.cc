#include "src/trace/stream.h"

namespace femux {

Dataset TraceSource::Materialize() const {
  Dataset dataset;
  dataset.name = name();
  dataset.duration_days = duration_days();
  const std::size_t n = app_count();
  dataset.apps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    dataset.apps.push_back(MakeApp(i));
  }
  return dataset;
}

}  // namespace femux
