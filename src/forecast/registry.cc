#include "src/forecast/registry.h"

#include <charconv>
#include <string>
#include <string_view>

#include "src/forecast/ar.h"
#include "src/forecast/fft_forecaster.h"
#include "src/forecast/linear_state.h"
#include "src/forecast/lstm.h"
#include "src/forecast/markov.h"
#include "src/forecast/simple.h"
#include "src/forecast/smoothing.h"

namespace femux {
namespace {

bool ParseTrailingNumber(std::string_view text, std::string_view prefix,
                         std::string_view suffix, std::size_t* out) {
  if (text.size() <= prefix.size() + suffix.size() ||
      text.substr(0, prefix.size()) != prefix ||
      text.substr(text.size() - suffix.size()) != suffix) {
    return false;
  }
  const std::string_view digits =
      text.substr(prefix.size(), text.size() - prefix.size() - suffix.size());
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc() || ptr != digits.data() + digits.size() || value == 0) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

std::vector<std::unique_ptr<Forecaster>> MakeFemuxForecasterSet(
    std::size_t refit_interval) {
  // The last two are conservative policies expressed as forecasters (Fig. 17
  // includes fixed keep-alive in FeMux's multiplexed set): a 5-minute
  // keep-alive and the 1-minute reactive window.
  constexpr std::string_view kNames[] = {
      "ar",   "setar",        "fft",             "exp_smoothing",
      "holt", "markov_chain", "keep_alive_5min", "moving_average_1"};
  std::vector<std::unique_ptr<Forecaster>> set;
  for (const std::string_view name : kNames) {
    set.push_back(MakeForecasterByName(name, refit_interval));
  }
  return set;
}

std::unique_ptr<Forecaster> MakeForecasterByName(std::string_view name,
                                                 std::size_t refit_interval) {
  if (name == "ar") {
    return std::make_unique<ArForecaster>(10, refit_interval);
  }
  if (name == "setar") {
    return std::make_unique<SetarForecaster>(10, 2, refit_interval);
  }
  if (name == "fft") {
    return std::make_unique<FftForecaster>(10, refit_interval);
  }
  if (name == "exp_smoothing") {
    return std::make_unique<ExponentialSmoothingForecaster>();
  }
  if (name == "holt") {
    return std::make_unique<HoltForecaster>();
  }
  if (name == "markov_chain") {
    return std::make_unique<MarkovChainForecaster>(4);
  }
  if (name == "lstm") {
    return std::make_unique<LstmForecaster>();
  }
  if (name == "linear_state") {
    return std::make_unique<LinearStateForecaster>();
  }
  std::size_t window = 0;
  if (ParseTrailingNumber(name, "moving_average_", "", &window)) {
    return std::make_unique<MovingAverageForecaster>(window);
  }
  if (ParseTrailingNumber(name, "keep_alive_", "min", &window)) {
    return std::make_unique<KeepAliveForecaster>(window);
  }
  return nullptr;
}

}  // namespace femux
