#include "src/serve/timer_wheel.h"

#include <algorithm>
#include <utility>

namespace femux {

TimerWheel::TimerWheel(std::size_t slots) : slots_(slots == 0 ? 1 : slots) {}

std::uint64_t TimerWheel::Schedule(std::uint64_t delay_ticks, Callback callback) {
  const std::uint64_t delay = std::max<std::uint64_t>(delay_ticks, 1);
  Entry entry;
  entry.id = next_id_++;
  entry.due = now_ + delay;
  entry.callback = std::move(callback);
  slots_[entry.due % slots_.size()].push_back(std::move(entry));
  ++pending_;
  return entry.id;
}

bool TimerWheel::Cancel(std::uint64_t id) {
  for (auto& slot : slots_) {
    for (auto it = slot.begin(); it != slot.end(); ++it) {
      if (it->id == id) {
        slot.erase(it);
        --pending_;
        return true;
      }
    }
  }
  return false;
}

void TimerWheel::Advance() {
  ++now_;
  auto& slot = slots_[now_ % slots_.size()];
  // Pull out the due entries first: callbacks may schedule into this same
  // slot (a periodic event whose period is a multiple of the slot count),
  // and those must not fire until their own due tick.
  due_.clear();
  for (auto it = slot.begin(); it != slot.end();) {
    if (it->due == now_) {
      due_.push_back(std::move(*it));
      it = slot.erase(it);
      --pending_;
    } else {
      ++it;
    }
  }
  std::sort(due_.begin(), due_.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  for (Entry& entry : due_) {
    entry.callback();
  }
  due_.clear();  // Fired callbacks release what they captured now.
}

}  // namespace femux
