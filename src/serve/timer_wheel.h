// Single-level timer wheel for the scaler daemon's periodic work.
//
// The daemon's time base is the autoscaler tick (2 s in production, virtual
// in tests). Everything periodic — the per-tenant decision pass, checkpoint
// snapshots, quarantine releases — is an event on this wheel, so one
// Advance() per tick fires exactly the work that is due, in a deterministic
// order ((due tick, schedule id)), regardless of how many event classes are
// registered.
//
// Not thread-safe on its own: the daemon advances it from the tick thread
// only. Callbacks may schedule new events (periodic work reschedules
// itself); events scheduled during a fire run at their due tick, never
// inside the current Advance() (delay is clamped to >= 1).
#ifndef SRC_SERVE_TIMER_WHEEL_H_
#define SRC_SERVE_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace femux {

class TimerWheel {
 public:
  using Callback = std::function<void()>;

  explicit TimerWheel(std::size_t slots = 64);

  // Schedules `callback` to fire `delay_ticks` Advance() calls from now
  // (clamped to >= 1). Returns an id usable with Cancel().
  std::uint64_t Schedule(std::uint64_t delay_ticks, Callback callback);

  // Removes a pending event; returns false if it already fired or never
  // existed.
  bool Cancel(std::uint64_t id);

  // Advances the wheel one tick and fires every event due at the new time,
  // ordered by schedule id.
  void Advance();

  std::uint64_t now() const { return now_; }
  std::size_t pending() const { return pending_; }

 private:
  struct Entry {
    std::uint64_t id = 0;
    std::uint64_t due = 0;
    Callback callback;
  };

  std::vector<std::vector<Entry>> slots_;
  // The entries Advance() is firing; kept so a tick that fires an event
  // reuses its capacity instead of allocating.
  std::vector<Entry> due_;
  std::uint64_t now_ = 0;
  std::uint64_t next_id_ = 1;
  std::size_t pending_ = 0;
};

}  // namespace femux

#endif  // SRC_SERVE_TIMER_WHEEL_H_
