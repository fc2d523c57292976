// Conservative backfilling — paper §5.2.
//
// "Conservative backfill will not increase the *projected* completion time
//  of a job submitted before the job used for backfilling. On the other
//  hand conservative backfill requires more computational effort than
//  EASY."
//
// Every queued job holds a reservation at the earliest point of the
// availability profile where it fits behind all higher-priority
// reservations. Reservations are computed from user estimates; when jobs
// finish early, the freed capacity is returned to the profile and the
// front of the plan is recomputed ("compression") so the queue keeps
// draining in priority order. Replanning in queue order places every job
// before any job behind it, so no job is ever displaced by one queued
// after it — the conservative guarantee. (A job can still be pushed later
// when a job ahead of it moves earlier onto its slot.)
//
// Engineering notes (all paper-faithful, bounded for very deep queues):
//  * reservations exist for at most `reservation_depth` jobs at a time —
//    deeper queue positions wait FCFS behind the reserved set and are
//    promoted as it drains. At realistic backlogs (hundreds of jobs) every
//    job is reserved and behaviour is exact conservative backfilling.
//    Promotion takes its jobs from the front of a list of the queued jobs
//    that hold no reservation, in queue order, so a select reads only the
//    jobs it reserves. An arrival joins the list's tail (the ordering
//    appends it there) unless it is reserved directly; a reorder, a
//    capacity change or an adoption marks the list stale, and the next
//    promotion rebuilds it from the queue. A job parked by an outage
//    (wider than the surviving nodes) stays queued but out of the list:
//    only a capacity change can make it reservable again, and that
//    rebuilds the list.
//  * after each completion the first `replan_prefix` reservations are
//    recomputed; deeper reservations refresh as they surface. Setting
//    `full_compression` replans the whole reserved set instead (exact
//    compression — quadratic on deep queues, so it is additionally gated
//    by `compression_queue_limit`); the ablation bench measures the gap.
//  * reservations computed from estimates can fall at instants where no
//    completion event happens (a predecessor finished early); the
//    dispatcher exposes these via next_wakeup so the simulator revisits.
//  * compression is maintained incrementally and elided when it provably
//    cannot move anything — always exactly, the schedules stay
//    bit-identical to a from-scratch replan (the full-grid fingerprints in
//    BENCH_grid.json and the differential suite witness this):
//      - on-time completions (zero capacity returned, tracked by a
//        compression-debt flag) skip the replan outright;
//      - a replan resolves every window position in queue order against
//        the live profile plus a capacity overlay standing in for the
//        positions a scratch replan would not have placed yet. A job whose
//        fit equals its reservation stays live in the profile and is
//        retired from the overlay by the breakpoint indices the overlay's
//        build reported for it; a job that moves is moved in place: its
//        old slot is released, every later position whose slot the new
//        span overlaps is *detached* (lifted from profile and overlay
//        alike, re-placed when its own position resolves), then the new
//        span is allocated — so the profile is a valid allocation after
//        every mutation;
//      - every reservation is stamped with the epoch of the last replan
//        that screened it. One stamped by the previous replan holds a "no
//        earlier fit" certificate that only capacity growth since that
//        replan can break (early releases, normalizations, window
//        entrants, and the slots this replan's movers vacated), so its
//        earliest earlier fit is searched only around instants where
//        growth lifted capacity across its width
//        (Profile::earliest_fit_in_growth), never from now. Scratch
//        re-placement of the rest of the window remains as the fallback
//        for an overdue reservation or an exhausted step budget.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dispatch.h"
#include "sim/profile.h"

namespace jsched::core {

struct ConservativeParams {
  std::size_t reservation_depth = 4096;
  /// Reservations re-planned (in queue order, from `now`) after each
  /// completion. 0 disables compression entirely: reservations then only
  /// fire at their original times (used by tests pinning the wakeup path).
  std::size_t replan_prefix = 64;
  /// Replan the entire reserved set after each completion instead of just
  /// the prefix, as long as the queue is short enough. Must be >= 1: a
  /// limit of 0 would gate full compression to never run (use
  /// full_compression = false for that).
  bool full_compression = false;
  std::size_t compression_queue_limit = 512;
  /// Use the pre-incremental lift-everything replan instead of the
  /// screened incremental one. The two are provably schedule-identical;
  /// this path is kept as the executable specification the differential
  /// tests compare against. Testing-only — never faster.
  bool scratch_replan = false;
};

class ConservativeBackfillDispatch final : public Dispatcher {
 public:
  explicit ConservativeBackfillDispatch(const ConservativeParams& params = {});

  std::string name() const override {
    return params_.full_compression ? "CONS-C" : "CONS";
  }

  void reset(const sim::Machine& machine, const JobStore& store) override;
  void on_enqueue(JobId id, Time now) override;
  void on_start(JobId id, Time now) override;
  void on_complete(JobId id, Time now, Time estimated_end,
                   const std::vector<JobId>& order) override;
  void on_reorder(const std::vector<JobId>& order, Time now) override;
  void on_capacity_change(Time now, int available_nodes,
                          const std::vector<JobId>& order,
                          const std::vector<RunningJob>& running) override;
  void adopt(Time now, const std::vector<JobId>& order,
             const std::vector<RunningJob>& running) override;
  void select(Time now, int free_nodes, const std::vector<JobId>& order,
              const std::vector<RunningJob>& running,
              std::vector<JobId>& starts) override;
  Time next_wakeup(Time now) const override;

  /// Replan accounting, reset() to zero. Exposed for tests and surfaced
  /// through the bench JSON so compression-cost wins stay measurable.
  struct ReplanStats {
    std::uint64_t completions = 0;      ///< on_complete deliveries
    std::uint64_t replans_elided = 0;   ///< debt-free completions, no replan
    std::uint64_t replans = 0;          ///< replan() invocations
    std::uint64_t replaced = 0;         ///< reservations lifted + re-placed
    std::uint64_t reused = 0;           ///< reservations kept without lifting
    std::uint64_t certified = 0;        ///< reused without a walk from now
    std::uint64_t moved = 0;            ///< re-placements that changed start
    std::uint64_t detached = 0;         ///< slots lifted under a mover
    std::uint64_t fallbacks = 0;        ///< screens ended by replace_from
    std::uint64_t cursor_restarts = 0;  ///< screen queries that re-anchored
    std::uint64_t promoted = 0;         ///< reservations made by promotion
    /// Queue entries promotion read: list entries it reserved, plus every
    /// entry of the queue read when a stale list was rebuilt.
    std::uint64_t promote_examined = 0;
  };

  /// Introspection for tests.
  Time reservation_of(JobId id) const;
  std::size_t reserved_count() const noexcept { return reserved_.size(); }
  const sim::Profile& profile() const noexcept { return profile_; }
  const ReplanStats& replan_stats() const noexcept { return stats_; }

 private:
  /// A queued job's reserved start, stamped with the epoch of the last
  /// replan that screened it (0: none since the reservation was made).
  struct Reservation {
    Time start;
    std::uint64_t screened = 0;
  };

  /// One entry of the re-planned window: a reserved job with its
  /// reservation from before the replan, in queue order.
  struct PlannedJob {
    JobId id;
    Time start;
    Duration estimate;
    int nodes;
    /// Screened by the previous replan, with no wholesale rebuild since:
    /// holds its "no earlier fit" certificate.
    bool screened;
    /// Lifted out of the profile (and the overlay) because an earlier
    /// position moved onto its slot; re-placed when its position resolves.
    bool detached;
  };

  void reserve(JobId id, Time from);
  /// Release every reservation's allocation from the profile, keeping
  /// reserved_ (callers batch it inside a BulkUpdate).
  void lift_reservations();
  /// The wholesale re-plan of a reorder, a capacity change or an adoption.
  /// With no reservation left in the profile, reserve from `now` in queue
  /// order the jobs reserved_ holds (`keep_reserved_set`) or the first
  /// reservation_depth reservable jobs, then reset the plan state: no
  /// compression debt, no growth, no certificates, a stale promotion list.
  void reserve_afresh(const std::vector<JobId>& order, Time now,
                      bool keep_reserved_set);
  /// Record `start` as the reservation of `id` (new or moved), keeping
  /// wakeups_ in step with reserved_.
  void set_reservation(JobId id, Time start);
  void replan(const std::vector<JobId>& order, Time now, std::size_t limit);
  /// Incremental compression: resolve every window position in queue
  /// order against the profile plus the overlay of unresolved positions,
  /// keeping jobs that stay and moving jobs that move in place.
  void replan_incremental(Time now);
  /// Move planned_[k] to `start`: lift its old slot, detach the later
  /// positions whose slots the new span overlaps, allocate.
  void place(std::size_t k, Time start);
  /// Lift reservations planned_[from..] out of the profile and re-place
  /// them in queue order from `now` — the scratch reference, and the
  /// incremental path's fallback.
  void replace_from(std::size_t from, Time now);
  /// Reserve jobs from the front of unreserved_ (rebuilt first when
  /// stale) until reservation_depth jobs hold a reservation.
  void promote(const std::vector<JobId>& order, Time now);
  /// The queue or the capacity changed beyond appends and starts: drop
  /// unreserved_ until the next promotion rebuilds it.
  void mark_unreserved_stale();
  /// False for jobs wider than the machine's surviving capacity: reserving
  /// one would send earliest_fit hunting for a window that cannot exist
  /// while nodes are down. Such jobs stay parked (no reservation) until a
  /// capacity recovery re-admits them. Always true at full capacity.
  bool reservable(JobId id) const {
    return store_->get(id).nodes + down_nodes_ <= profile_.total_nodes();
  }

  ConservativeParams params_;
  const JobStore* store_ = nullptr;
  sim::Profile profile_{1};
  /// Nodes currently down (fault injection). Modeled in the profile as one
  /// open-ended allocation [outage instant, infinity): conservative —
  /// reservations never assume a repair time — and exact again the moment
  /// on_capacity_change re-plans at the recovered capacity.
  int down_nodes_ = 0;
  std::unordered_map<JobId, Reservation> reserved_;  // queued job -> slot
  // Every reservation as (start, id), updated with reserved_: the earliest
  // is the next wakeup, and due ones start in (start, id) order.
  std::set<std::pair<Time, JobId>> wakeups_;
  // The queued jobs promotion may reserve, in queue order: no reservation,
  // and reservable at the current capacity. When unreserved_stale_, the
  // list is rebuilt from the queue at the next promotion.
  std::deque<JobId> unreserved_;
  bool unreserved_stale_ = false;
  ReplanStats stats_;
  // Per-replan scratch storage, members to keep the hot path allocation-free.
  std::vector<PlannedJob> planned_;
  std::vector<sim::CapacitySpan> spans_;
  sim::CapacityOverlay overlay_;
  // overlay_'s breakpoints under each planned_ position, as built.
  std::vector<sim::CapacityOverlay::SpanIndex> span_index_;
  sim::Profile::Cursor cursor_;
  // Cross-replan screening certificates. After every replan the plan is a
  // compressed fixed point: no planned reservation has an earlier fit.
  // That verdict stays exact while capacity only shrinks, so between
  // replans only the *growth* spans (early-completion releases,
  // normalization releases) can invalidate it — collected here, and
  // searched by Profile::earliest_fit_in_growth together with the window
  // entrants and the slots vacated by movers during the replan
  // (growth_overlay_). Jobs newly entering the replan window carry no
  // verdict (their stamp is not the previous replan's epoch_) and are
  // walked from now; events that rebuild the plan wholesale set
  // screen_all_ instead of enumerating growth.
  std::vector<sim::CapacitySpan> growth_;
  sim::CapacityOverlay growth_overlay_;
  std::uint64_t epoch_ = 0;  // replans since reset(): the last one's stamp
  bool screen_all_ = true;
  // True when the plan may no longer be the fixed point of a replay in
  // queue order: capacity was freed (early completion, normalization) or a
  // reservation was created out of queue position (promotion after a
  // reorder). While false, a replan would re-place every reservation
  // exactly where it is, so on-time completions skip compression outright.
  bool compression_debt_ = false;
};

}  // namespace jsched::core
