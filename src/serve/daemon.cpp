#include "serve/daemon.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <deque>
#include <optional>
#include <stdexcept>
#include <vector>

#include "serve/journal.h"
#include "sim/event_core.h"
#include "util/hash.h"

namespace jsched::serve {
namespace {

/// How often the loop polls a live feed while idle or waiting for a far
/// event.
constexpr std::chrono::milliseconds kPollGranularity{20};

/// Decisions between two digests, at least (one waits for an instant's end).
constexpr std::size_t kDigestEvery = 64;

/// One decision's term in the digest: FNV-1a over (kind, id, epoch, t),
/// kind 0 for a completion and 1 for a start.
std::uint64_t decision_hash(std::uint64_t kind,
                            const sim::EventCore::Attempt& attempt, Time t) {
  std::uint64_t h = util::fnv1a_mix(util::kFnvOffset, kind);
  h = util::fnv1a_mix(h, attempt.id);
  h = util::fnv1a_mix(h, attempt.epoch);
  return util::fnv1a_mix(h, static_cast<std::uint64_t>(t));
}

}  // namespace

ServeReport serve(Feed& feed, const ServeOptions& options) {
  options.machine.validate();
  if (options.queue_capacity < 1) {
    throw std::invalid_argument("serve: queue_capacity must be >= 1");
  }
  if (options.speed < 0) {
    throw std::invalid_argument("serve: speed must be >= 0");
  }
  AdmissionJournal* const journal = options.journal;
  if (options.chaos_kill_after_appends > 0 && journal == nullptr) {
    throw std::invalid_argument(
        "serve: chaos_kill_after_appends requires a journal");
  }

  util::Clock& clock =
      options.clock != nullptr ? *options.clock : util::real_clock();
  const bool paced_at_start = options.speed > 0;
  bool paced = paced_at_start;
  const double speed = options.speed;
  const util::Clock::time_point epoch = clock.now();

  ServeReport report;
  report.min_capacity = options.machine.nodes;

  // The event kernel validates the fault options against the machine and
  // resets the scheduler; the window holds the admitted jobs it has not yet
  // folded into the aggregator.
  auto scheduler = options.scheduler_factory
                       ? options.scheduler_factory(options.spec)
                       : core::make_scheduler(options.spec);
  report.scheduler_name = scheduler->name();
  metrics::StreamingAggregator aggregator(options.machine.nodes);
  sim::JobWindow window;
  sim::EventCore kernel(options.machine, *scheduler, window, aggregator,
                        options.faults, /*measure_cpu=*/false);

  // ---- Recovery preload. A journal with history turns the loop's first
  // phase into a replay: the recovered admissions feed the event loop
  // (bypassing admit() — they were stamped by the dead run), the feed
  // stays un-polled until the replay reaches its last admission's instant,
  // and the dead run's drop/late/delay counters are restored so the final
  // report reads as if the daemon had never died. The admissions stream
  // back from the file one at a time, the next one buffered.
  std::optional<AdmissionJournal::Replay> replay;
  std::size_t replay_left = 0;  // journaled admissions not yet delivered
  JournaledJob replay_next;     // the first of them while replay_left > 0
  std::size_t skip_feed = 0;
  if (journal != nullptr && journal->has_history()) {
    report.recovered = true;
    replay_left = journal->admitted_count();
    if (replay_left > 0) replay.emplace(*journal).next(replay_next);
    report.recovered_jobs = replay_left;
    report.recovered_completed = journal->completed_at_open();
    report.late_arrivals = journal->late_at_open();
    report.delayed_admissions = journal->delayed_at_open();
    report.rejected_invalid = journal->dropped_invalid();
    report.shed_capacity = journal->dropped_shed_capacity();
    report.shed_backlog = journal->dropped_shed_backlog();
    if (options.feed_restarts_from_start) {
      skip_feed = journal->consumed_feed_records();
    }
    if (options.log) {
      options.log("journal " + journal->path() + ": replaying " +
                  std::to_string(report.recovered_jobs) + " admission(s) (" +
                  std::to_string(report.recovered_completed) +
                  " completed at the last digest), skipping " +
                  std::to_string(skip_feed) +
                  " consumed feed record(s), resuming at t=" +
                  std::to_string(journal->last_event_time()));
    }
  }
  if (journal != nullptr) journal->begin_run();

  // Crash drill: die *for real* once this run has journaled enough. Placed
  // after each append point so the kill lands mid-stream, between a
  // journaled record and whatever would have followed it.
  const auto chaos_tick = [&] {
    if (options.chaos_kill_after_appends > 0 &&
        journal->appends() >= options.chaos_kill_after_appends) {
      std::raise(SIGKILL);
    }
  };

  // The digest covers every decision so far, at instants <= digest.t (the
  // last round's). A sum ignores the order and rounds of an instant's
  // decisions, so a restart serving a kBlock batch in fewer rounds matches.
  // A loaded digest is checked once no decision at or before its instant is
  // left; only past the last one does the run append its own.
  DecisionDigest digest{-1, 0, 0};
  std::size_t checked = 0;     // loaded digests matched so far
  std::size_t undigested = 0;  // decisions after the last digest
  const auto check_digests = [&](Time before) {
    const std::vector<DecisionDigest>& loaded = journal->digests();
    for (; checked < loaded.size() && loaded[checked].t < before; ++checked) {
      const DecisionDigest& d = loaded[checked];
      if (d.dones != digest.dones || d.sum != digest.sum) {
        throw JournalReplayError(
            "admission journal " + journal->path() +
            ": replay diverged at the digest at t=" + std::to_string(d.t) +
            " (journal written under another feed, spec, machine, fault "
            "trace or binary?)");
      }
      undigested = 0;
    }
  };
  const auto append_digest = [&] {
    journal->record_digest(digest);
    undigested = 0;
    chaos_tick();
  };

  // Virtual/wall mapping. vnow = V0 + floor(elapsed * speed); an event at
  // virtual t falls due at epoch + ceil((t - V0) / speed) — the ceil
  // guarantees vnow(due(t)) >= t, so sleeping until due never wakes
  // early, and anything at or before the resume point V0 is due at once.
  // A restart resumes at the last journaled instant: the replay runs at
  // memory speed regardless of pacing, and wall-time mapping continues
  // from where the dead run reached, not from zero.
  const Time v0 = journal != nullptr ? journal->last_event_time() : 0;
  const auto vnow = [&]() -> Time {
    if (!paced) return kTimeInfinity;
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
        clock.now() - epoch);
    return v0 + static_cast<Time>(std::floor(
                    static_cast<double>(elapsed.count()) * speed * 1e-9));
  };
  const auto due_wall = [&](Time t) -> util::Clock::time_point {
    if (t <= v0) return epoch;
    const double ns = std::ceil(static_cast<double>(t - v0) * 1e9 / speed);
    return epoch + std::chrono::nanoseconds(static_cast<std::int64_t>(ns));
  };

  JobId next_id = 0;
  std::deque<SubmitRecord> admission;  // accepted, not yet delivered
  std::deque<SubmitRecord> holdover;   // polled, blocked on a full queue
  // Accepted and not yet delivered, replayed admissions included. The feed
  // reopens while the replay still holds the current instant's
  // journaled admissions, which the dead run held in its admission queue
  // when it judged the rest of their batch, so the per-record capacity and
  // backlog checks count them too. Whether to poll at all still asks only
  // the live queue: the dead run polled that batch before admitting any.
  const auto undelivered = [&] { return admission.size() + replay_left; };
  std::vector<SubmitRecord> batch;
  bool feed_open = true;
  // Admission stamps are non-decreasing and, in a restart, later than the
  // last loaded digest: a fresh job must not join the decisions it covers.
  Time last_stamp = v0;
  if (journal != nullptr && !journal->digests().empty()) {
    last_stamp = std::max(v0, journal->digests().back().t + 1);
  }

  // Graceful degradation: under faults the backlog bound shrinks with the
  // surviving capacity (never below 1 — a transient total outage should
  // not shed the job that would start the moment nodes return). With no
  // faults, or a full machine, this is exactly options.max_backlog.
  const auto effective_max_backlog = [&]() -> std::size_t {
    if (options.max_backlog == 0) return 0;
    const int capacity = kernel.capacity();
    if (capacity >= options.machine.nodes) return options.max_backlog;
    if (capacity <= 0) return 1;
    const std::size_t scaled =
        options.max_backlog * static_cast<std::size_t>(capacity) /
        static_cast<std::size_t>(options.machine.nodes);
    return std::max<std::size_t>(scaled, 1);
  };

  // Count a polled record that is not admitted, and journal it: a dropped
  // record is still a *consumed* one.
  const auto drop = [&](DropKind kind, std::size_t& counter) {
    ++counter;
    if (journal != nullptr) {
      journal->record_drop(kind);
      chaos_tick();
    }
  };

  // Stamp + enqueue one polled record, or drop it. `from_holdover` marks
  // records admitted late under kBlock backpressure.
  const auto admit = [&](SubmitRecord r, bool from_holdover) {
    // Time can only move forward: a live record is stamped "now", and a
    // timed record that shows up after its moment is clamped to the
    // monotone floor (counted — late explicit submits are a client bug
    // worth surfacing, not a daemon crash). The floor lies past the last
    // round, so an admission made after the round at t (a kBlock holdover,
    // or a live record polled in t's virtual second) opens a new instant:
    // one round per instant, which is how a restart replays them.
    const Time floor_t = std::max<Time>(last_stamp, kernel.now() + 1);
    const bool live = r.submit < 0;
    const Time stamp =
        std::max(live ? (paced ? vnow() : floor_t) : r.submit, floor_t);
    const bool late = !live && stamp != r.submit;
    // The job it becomes must fit the job model and the machine.
    const auto field =
        invalid_job_field(stamp, r.nodes, r.runtime, r.estimate, r.user);
    if (field || r.nodes > options.machine.nodes) {
      drop(DropKind::kInvalid, report.rejected_invalid);
      if (options.log) {
        options.log(field ? std::string("rejected: invalid ") +
                                field_name(*field) + " field"
                          : "rejected: " + std::to_string(r.nodes) +
                                " nodes (machine has " +
                                std::to_string(options.machine.nodes) +
                                " nodes)");
      }
      return;
    }
    const std::size_t backlog = effective_max_backlog();
    if (backlog > 0 && scheduler->queue_length() + undelivered() >= backlog) {
      drop(DropKind::kShedBacklog, report.shed_backlog);
      return;
    }
    if (late) ++report.late_arrivals;
    if (from_holdover) ++report.delayed_admissions;
    r.submit = stamp;
    last_stamp = stamp;
    if (journal != nullptr) {
      journal->record_admit(r, late, from_holdover);
      chaos_tick();
    }
    admission.push_back(r);
    report.peak_admission_queue =
        std::max(report.peak_admission_queue, admission.size());
  };

  // Deliver one admitted record to the scheduler at time `t` — shared by
  // the journal replay and the live admission queue, which is what makes a
  // recovered job indistinguishable from a freshly admitted one.
  const auto deliver = [&](const SubmitRecord& r, Time t) {
    Job j;
    j.id = next_id++;
    j.submit = r.submit;
    j.nodes = r.nodes;
    j.runtime = r.runtime;
    j.estimate = r.estimate;
    j.user = r.user;
    kernel.arrive(window.push(j), t);
    ++report.submitted;
  };

  // The earliest buffered arrival: journal replay, then the admission queue.
  const auto next_arrival = [&] {
    Time a = kTimeInfinity;
    if (replay_left > 0) a = replay_next.record.submit;
    if (!admission.empty()) a = std::min(a, admission.front().submit);
    return a;
  };

  auto last_report = clock.now();

  while (true) {
    // Signals: 1 = drain (stop intake, finish at full speed), 2 = abort.
    if (options.poll_signal) {
      const int sig = options.poll_signal();
      if (sig >= 2) {
        report.aborted = true;
        break;
      }
      if (sig >= 1 && !report.drained) {
        report.drained = true;
        feed_open = false;
        paced = false;
        report.dropped_on_drain += holdover.size();
        holdover.clear();
        if (options.log) {
          options.log("drain: feed closed, finishing " +
                      std::to_string(kernel.undone() + undelivered()) +
                      " admitted job(s)");
        }
      }
    }

    if (!feed_open && replay_left == 0 && holdover.empty() &&
        admission.empty() && kernel.undone() == 0) {
      break;  // served everything
    }

    // Move blocked records into the queue as space frees up.
    while (!holdover.empty() && admission.size() < options.queue_capacity) {
      admit(holdover.front(), /*from_holdover=*/true);
      holdover.pop_front();
    }

    // Next event from local state alone.
    Time t = kernel.next_event(next_arrival());
    // Journal replay lasts until the next event reaches the last journaled
    // admission's instant. The feed opens before that instant's round: a
    // kill may have split its equal-submit batch, and the batch-mates the
    // dead run had not journaled must join the replayed ones in one round.
    const bool replaying =
        replay_left > 0 && journal->last_admit_time() > t;

    // Poll the feed. Paced: deliver whatever wall time has made due.
    // Free-run: deliver only up to the next event (min(t, next_submit)) so
    // a replayed trace streams through the bounded queue instead of being
    // inhaled whole. During journal replay the feed is not touched at all:
    // the recovered admissions must rebuild the exact pre-crash state
    // before any fresh record can influence a decision.
    if (feed_open && !replaying && holdover.empty() &&
        (options.overload == OverloadPolicy::kShed ||
         admission.size() < options.queue_capacity)) {
      const Time ns = feed.next_submit();
      const Time poll_at = paced ? vnow() : std::min(t, ns);
      batch.clear();
      feed_open = feed.poll(poll_at, batch);
      for (const SubmitRecord& r : batch) {
        if (skip_feed > 0) {
          --skip_feed;  // consumed by the journaled run: already replayed
          continue;
        }
        if (undelivered() >= options.queue_capacity) {
          if (options.overload == OverloadPolicy::kShed) {
            drop(DropKind::kShedCapacity, report.shed_capacity);
          } else {
            holdover.push_back(r);
          }
          continue;
        }
        if (!holdover.empty()) {
          holdover.push_back(r);  // keep arrival order behind blocked ones
          continue;
        }
        admit(r, /*from_holdover=*/false);
      }
      // Recompute the event horizon — the poll may have admitted earlier
      // arrivals.
      t = kernel.next_event(next_arrival());
    }

    // The replay gate: while the feed still knows of arrivals at or before
    // t, admit them first — equal-submit batches must reach the scheduler
    // together, exactly as the offline simulator delivers them. A full
    // kBlock queue overrides the gate (the arrival will be delayed; that
    // is what backpressure means). An idle live feed reports kTimeInfinity
    // and must not trip the gate: with t also infinite that would spin the
    // loop (and feed due_wall an unrepresentable time) instead of falling
    // through to the idle sleep below. Journal replay bypasses the gate
    // for the same reason it bypasses the poll.
    if (feed_open && !replaying && holdover.empty()) {
      const Time ns = feed.next_submit();
      if (ns != kTimeInfinity && ns <= t) {
        if (paced && vnow() < ns) clock.sleep_until(due_wall(ns));
        continue;  // next iteration's poll picks it up
      }
    }

    if (t == kTimeInfinity) {
      if (!feed_open) {
        if (kernel.undone() > 0) kernel.starved();
        continue;  // loop head terminates
      }
      // Live feed, nothing buffered: wait for input.
      clock.sleep_for(kPollGranularity);
      continue;
    }

    if (paced && vnow() < t) {
      // Wait for the event to fall due — but keep polling a live feed at
      // kPollGranularity so an earlier arrival can preempt it.
      const auto due = due_wall(t);
      if (feed_open) {
        clock.sleep_until(std::min(due, clock.now() + kPollGranularity));
      } else {
        clock.sleep_until(due);
      }
      continue;
    }

    // ---- Process the event at t through the kernel. One round = one
    // decision sample, its digest check or append included.
    const auto decision_start = clock.now();
    if (journal != nullptr && t > digest.t) {
      check_digests(t);
      if (checked == journal->digests().size() &&
          undigested >= kDigestEvery) {
        append_digest();
      }
      digest.t = t;
    }
    kernel.begin(t);
    report.killed += kernel.killed().size();
    if (kernel.capacity_changed()) {
      ++report.capacity_events;
      report.min_capacity = std::min(report.min_capacity, kernel.capacity());
    }

    // Arrivals at t: the journal replay first (it rebuilds the pre-crash
    // state and is always time-ordered before anything fresh — the feed
    // stays closed until its last instant), then the live queue.
    while (replay_left > 0 && replay_next.record.submit <= t) {
      deliver(replay_next.record, t);
      if (--replay_left > 0) {
        replay->next(replay_next);
      } else {
        replay.reset();
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::nanoseconds>(clock.now() -
                                                                 epoch);
        report.recovery_replay_seconds =
            static_cast<double>(elapsed.count()) * 1e-9;
        if (options.log) {
          options.log("journal replay complete: " +
                      std::to_string(report.recovered_jobs) +
                      " admission(s) rebuilt in " +
                      std::to_string(report.recovery_replay_seconds) +
                      "s; feed open");
        }
      }
    }
    while (!admission.empty() && admission.front().submit <= t) {
      deliver(admission.front(), t);
      admission.pop_front();
    }

    kernel.finish(t);
    report.requeued += kernel.killed().size();
    if (journal != nullptr) {
      for (const sim::EventCore::Attempt& done : kernel.completed()) {
        digest.sum += decision_hash(0, done, t);
      }
      for (const sim::EventCore::Attempt& start : kernel.started()) {
        digest.sum += decision_hash(1, start, t);
      }
      digest.dones += kernel.completed().size();
      const std::size_t made =
          kernel.completed().size() + kernel.started().size();
      undigested += made;
      if (report.recovered && t <= journal->last_event_time()) {
        report.replayed_decisions += made;
      }
    }

    const auto decision_end = clock.now();
    report.decision_latency_ns.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(decision_end -
                                                             decision_start)
            .count()));
    ++report.decisions;
    window.trim(kernel.frontier());
    report.completed = kernel.frontier();

    if (options.report_interval.count() > 0 && options.log &&
        decision_end - last_report >= options.report_interval) {
      last_report = decision_end;
      options.log(
          "t=" + std::to_string(t) + " submitted=" +
          std::to_string(report.submitted) + " completed=" +
          std::to_string(report.completed) + " queue=" +
          std::to_string(scheduler->queue_length()) + " admission=" +
          std::to_string(admission.size()) + " shed=" +
          std::to_string(report.shed_capacity + report.shed_backlog) +
          (options.faults.active()
               ? " capacity=" + std::to_string(kernel.capacity()) +
                     " killed=" + std::to_string(report.killed)
               : "") +
          " p99=" + std::to_string(report.decision_latency_ns.p99()) + "ns");
    }
  }

  // Every admitted job is done (an abort leaves the tail unchecked).
  if (journal != nullptr && !report.aborted) {
    check_digests(kTimeInfinity);
    if (undigested > 0) append_digest();
  }

  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
      clock.now() - epoch);
  report.wall_seconds = static_cast<double>(elapsed.count()) * 1e-9;
  report.peak_scheduler_queue = kernel.max_queue_length();
  report.virtual_makespan = kernel.makespan();
  if (report.wall_seconds > 0) {
    report.jobs_per_second =
        static_cast<double>(report.completed) / report.wall_seconds;
    report.decisions_per_second =
        static_cast<double>(report.decisions) / report.wall_seconds;
  }
  if (journal != nullptr) report.journal_appends = journal->appends();
  if (report.completed > 0) {
    report.metrics = aggregator.finish();
    report.has_metrics = true;
    report.schedule_fnv = report.metrics.schedule_fnv;
    report.wasted_node_seconds = report.metrics.resilience.wasted_node_seconds;
    report.availability = report.metrics.resilience.availability;
  }
  return report;
}

}  // namespace jsched::serve
