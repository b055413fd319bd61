#include "net/event_loop.hpp"

#include <poll.h>

#include <algorithm>

#include "util/assert.hpp"

namespace gryphon::net {

EventLoop::EventLoop() : start_(std::chrono::steady_clock::now()) {}

EventLoop::~EventLoop() = default;

SimTime EventLoop::elapsed() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

sim::TaskId EventLoop::schedule_at(SimTime t, Task fn) {
  // Wall time moves between the caller's now() read and this call; a
  // nominally-past deadline just means "as soon as possible".
  return timers_.schedule_at(std::max(t, timers_.now()), std::move(fn));
}

void EventLoop::cancel(sim::TaskId id) { timers_.cancel(id); }

void EventLoop::watch_fd(int fd, bool want_read, bool want_write, IoCallback cb) {
  GRYPHON_CHECK(fd >= 0);
  GRYPHON_CHECK(cb != nullptr);
  Watcher& w = watchers_[fd];
  w.want_read = want_read;
  w.want_write = want_write;
  w.cb = std::move(cb);
  w.gen = ++watcher_gen_;
}

void EventLoop::update_fd(int fd, bool want_read, bool want_write) {
  auto it = watchers_.find(fd);
  GRYPHON_CHECK_MSG(it != watchers_.end(), "update of unwatched fd " << fd);
  it->second.want_read = want_read;
  it->second.want_write = want_write;
}

void EventLoop::unwatch_fd(int fd) { watchers_.erase(fd); }

void EventLoop::fire_due_timers() {
  const SimTime t = elapsed();
  now_ = t;
  // Tasks run with timer-store time advancing through their due instants;
  // now_ (what brokers read) is the wall clock at loop-dispatch time.
  timers_.run_until(t);
}

void EventLoop::run_deferred() {
  while (!deferred_.empty()) {
    running_.swap(deferred_);
    for (Task& fn : running_) fn();
    running_.clear();
  }
}

void EventLoop::tick(SimDuration max_wait) {
  fire_due_timers();
  run_deferred();
  // A batch often schedules a timer that is due by the time it ends (a
  // SimDisk barrier completes 1 us after its transfer): run those now
  // rather than pay a poll(timeout 0) for each, for a bounded number of
  // rounds so a self-rescheduling timer cannot starve I/O.
  for (int round = 0; round < kMaxTimerDrainRounds; ++round) {
    const SimTime due = timers_.next_due();
    if (due == sim::Simulator::kNoTaskDue || due > elapsed()) break;
    fire_due_timers();
    run_deferred();
  }

  // Poll timeout: up to the next timer, rounded *up* so a due-in-200us
  // timer doesn't busy-spin at timeout 0 forever.
  const SimTime due = timers_.next_due();
  SimDuration wait = max_wait;
  if (due != sim::Simulator::kNoTaskDue) {
    wait = std::clamp<SimDuration>(due - elapsed(), 0, max_wait);
  }
  const int timeout_ms = static_cast<int>((wait + 999) / 1000);

  pollfds_.clear();
  pollfds_.reserve(watchers_.size());
  for (const auto& [fd, w] : watchers_) {
    short events = 0;
    if (w.want_read) events |= POLLIN;
    if (w.want_write) events |= POLLOUT;
    pollfds_.push_back(pollfd{fd, events, 0});
  }

  const int n = ::poll(pollfds_.data(), pollfds_.size(), timeout_ms);
  ++polls_;
  fire_due_timers();

  // Dispatch on a snapshot; a callback may mutate the watcher table, so
  // each entry is revalidated by (fd, generation) before its callback runs.
  // n <= 0 is a timeout or EINTR: timers are already handled.
  for (const pollfd& p : pollfds_) {
    if (n <= 0) break;
    if (p.revents == 0) continue;
    auto it = watchers_.find(p.fd);
    if (it == watchers_.end()) continue;  // unwatched by an earlier callback
    std::uint32_t events = 0;
    if ((p.revents & (POLLIN | POLLHUP)) != 0) events |= kReadable;
    if ((p.revents & POLLOUT) != 0) events |= kWritable;
    if ((p.revents & (POLLERR | POLLNVAL)) != 0) events |= kError;
    if (events == 0) continue;
    // Copy the callback: the watcher may deregister itself mid-call.
    IoCallback cb = it->second.cb;
    cb(events);
  }
  run_deferred();
}

void EventLoop::run() {
  stopped_ = false;
  while (!stopped_) tick(msec(500));
}

void EventLoop::run_for(SimDuration duration) {
  stopped_ = false;
  const SimTime deadline = elapsed() + duration;
  while (!stopped_) {
    const SimTime left = deadline - elapsed();
    if (left <= 0) break;
    tick(std::min<SimDuration>(left, msec(500)));
  }
  fire_due_timers();
  run_deferred();
}

}  // namespace gryphon::net
