#include "serve/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
#include <utility>

#include "serve/protocol.hpp"
#include "support/check.hpp"

namespace morph::serve {

namespace {

// Bounds-checked big-endian reads of the checkpoint blob (doubles travel as
// bit-cast u64s so the round-trip is exact).
bool get_u64(const std::string& in, std::size_t& pos, std::uint64_t* out) {
  if (in.size() - pos < 8) return false;
  *out = get_u64be(in.data() + pos);
  pos += 8;
  return true;
}

bool get_double(const std::string& in, std::size_t& pos, double* out) {
  std::uint64_t bits = 0;
  if (!get_u64(in, pos, &bits)) return false;
  *out = std::bit_cast<double>(bits);
  return true;
}

}  // namespace

Scheduler::Scheduler(SchedulerConfig cfg) : cfg_(cfg) {
  MORPH_CHECK(cfg_.pool > 0);
  MORPH_CHECK(cfg_.batch_max > 0);
  MORPH_CHECK(cfg_.drain_rate >= 0.0);
  slot_ready_.assign(cfg_.pool, 0.0);
}

void Scheduler::seal(JobKind kind, std::uint32_t priority, OpenBatch&& open) {
  (void)kind;
  SealedBatch b;
  b.id = next_batch_id_++;
  b.priority = priority;
  b.seal_seq = next_seq_ == 0 ? 0 : next_seq_ - 1;
  b.seal_at = last_at_;
  b.jobs = std::move(open.jobs);
  pending_.emplace(b.id, PendingBatch{b, {}, false});
  runnable_.push_back(std::move(b));
}

void Scheduler::seal_lingering() {
  // Admission events are the linger clock: an open batch that survived
  // batch_linger arrivals without filling up seals now. Map order keeps the
  // sweep deterministic.
  const std::uint64_t now = next_seq_ == 0 ? 0 : next_seq_ - 1;
  for (auto it = open_.begin(); it != open_.end();) {
    if (now - it->second.first_seq >= cfg_.batch_linger) {
      OpenBatch ob = std::move(it->second);
      const auto key = it->first;
      it = open_.erase(it);
      seal(key.second, key.first, std::move(ob));
    } else {
      ++it;
    }
  }
}

Scheduler::Submitted Scheduler::submit(JobKind kind, std::uint32_t priority,
                                       double est_cycles, double at_cycles,
                                       double deadline_cycles) {
  MORPH_CHECK(priority <= kMaxPriority);
  MORPH_CHECK(est_cycles >= 0.0);

  // Virtual arrival time: declared (clamped monotone) or default-gap.
  double at;
  if (at_cycles >= 0.0) {
    at = std::max(at_cycles, last_at_);
  } else if (saw_arrival_) {
    at = last_at_ + cfg_.default_gap_cycles;
  } else {
    at = 0.0;
  }
  // Drain the backlog for the elapsed virtual time, consuming deposits
  // front-first (admission order) so every job's undrained remainder stays
  // attributable — cancel() returns exactly that remainder. All quantities
  // are exact in double (integer arrivals and estimates), so the piecewise
  // subtraction equals the old single-subtraction drain bit for bit.
  double drain = (at - last_at_) * cfg_.drain_rate;
  while (drain > 0.0 && !deposits_.empty()) {
    auto& front = deposits_.front();
    const double d = std::min(front.second, drain);
    front.second -= d;
    bucket_ -= d;
    drain -= d;
    if (front.second <= 0.0) deposits_.pop_front();
  }
  if (deposits_.empty()) bucket_ = 0.0;
  last_at_ = at;
  saw_arrival_ = true;

  Submitted out;
  out.seq = next_seq_++;
  out.arrival_cycles = at;

  if (cfg_.max_job_cycles > 0.0 && est_cycles > cfg_.max_job_cycles) {
    std::ostringstream os;
    os << "estimated cost " << est_cycles << " cycles exceeds the per-job cap "
       << cfg_.max_job_cycles;
    out.reject = Status(StatusCode::kAdmissionRejected, os.str());
    ++rejected_;
    seal_lingering();
    return out;
  }
  if (bucket_ + est_cycles > cfg_.queue_cap_cycles) {
    std::ostringstream os;
    os << "queue backlog " << bucket_ << " + " << est_cycles
       << " cycles exceeds the admission cap " << cfg_.queue_cap_cycles;
    out.reject = Status(StatusCode::kAdmissionRejected, os.str());
    ++rejected_;
    seal_lingering();
    return out;
  }
  if (deadline_cycles > 0.0 && cfg_.drain_rate > 0.0 &&
      bucket_ / cfg_.drain_rate > deadline_cycles) {
    // The backlog ahead of this job already pushes its reference-server
    // start past arrival + deadline; admitting it would only burn cycles on
    // a result nobody wants. Pool-independent by construction: bucket_ and
    // drain_rate never see the pool.
    std::ostringstream os;
    os << "backlog implies a start " << bucket_ / cfg_.drain_rate
       << " virtual cycles after arrival, past the " << deadline_cycles
       << "-cycle deadline";
    out.reject = Status(StatusCode::kDeadlineExceeded, os.str());
    ++deadline_rejected_;
    seal_lingering();
    return out;
  }

  out.accepted = true;
  bucket_ += est_cycles;
  deposits_.emplace_back(out.seq, est_cycles);
  ++admitted_;
  jobs_.emplace(out.seq, JobEntry{kind, priority, est_cycles, at});

  if (est_cycles <= cfg_.small_job_cycles) {
    const auto key = std::make_pair(priority, kind);
    auto [it, fresh] = open_.try_emplace(key);
    if (fresh) it->second.first_seq = out.seq;
    it->second.jobs.push_back(out.seq);
    if (it->second.jobs.size() >= cfg_.batch_max) {
      OpenBatch ob = std::move(it->second);
      open_.erase(it);
      seal(kind, priority, std::move(ob));
    }
  } else {
    OpenBatch singleton;
    singleton.first_seq = out.seq;
    singleton.jobs.push_back(out.seq);
    seal(kind, priority, std::move(singleton));
  }

  seal_lingering();
  return out;
}

bool Scheduler::cancel(std::uint64_t seq) {
  for (auto it = open_.begin(); it != open_.end(); ++it) {
    auto& jobs = it->second.jobs;
    const auto jit = std::find(jobs.begin(), jobs.end(), seq);
    if (jit == jobs.end()) continue;
    jobs.erase(jit);
    if (jobs.empty()) open_.erase(it);
    const auto entry = jobs_.find(seq);
    MORPH_CHECK(entry != jobs_.end());
    // Give back what the cancelled job still holds in the bucket: only its
    // *undrained* remainder. Refunding the full estimate would also remove
    // cycles that other live jobs deposited (the drain since admission
    // already consumed part of this job's deposit), leaving the backlog —
    // and every later deadline_model_ms admission decision — skewed.
    for (auto dit = deposits_.begin(); dit != deposits_.end(); ++dit) {
      if (dit->first == seq) {
        bucket_ -= dit->second;
        deposits_.erase(dit);
        break;
      }
    }
    if (deposits_.empty()) bucket_ = 0.0;
    jobs_.erase(entry);
    ++cancelled_;
    return true;
  }
  return false;  // already sealed (or never admitted): too late to cancel
}

void Scheduler::flush() {
  for (auto it = open_.begin(); it != open_.end();) {
    OpenBatch ob = std::move(it->second);
    const auto key = it->first;
    it = open_.erase(it);
    seal(key.second, key.first, std::move(ob));
  }
  flush_watermark_ = next_batch_id_;
}

std::vector<SealedBatch> Scheduler::take_runnable() {
  std::vector<SealedBatch> out;
  out.swap(runnable_);
  return out;
}

void Scheduler::record_measured(std::uint64_t batch_id,
                                const std::vector<double>& job_cycles) {
  auto it = pending_.find(batch_id);
  MORPH_CHECK_MSG(it != pending_.end(),
                  "record_measured: unknown batch " << batch_id);
  MORPH_CHECK_MSG(job_cycles.size() == it->second.sealed.jobs.size(),
                  "record_measured: batch " << batch_id << " expects "
                                            << it->second.sealed.jobs.size()
                                            << " jobs");
  it->second.measured = job_cycles;
  it->second.has_measured = true;
}

std::vector<JobPlacement> Scheduler::advance() {
  std::vector<JobPlacement> out;
  while (!pending_.empty()) {
    // Earliest-free slot (ties: lowest index).
    std::uint32_t slot = 0;
    for (std::uint32_t s = 1; s < slot_ready_.size(); ++s) {
      if (slot_ready_[s] < slot_ready_[slot]) slot = s;
    }
    double t = slot_ready_[slot];

    // Batches runnable at t; if none, the dispatch waits for the earliest
    // seal (arrivals only move virtual time forward).
    double min_seal = std::numeric_limits<double>::infinity();
    bool any_at_t = false;
    for (const auto& [id, pb] : pending_) {
      min_seal = std::min(min_seal, pb.sealed.seal_at);
      any_at_t = any_at_t || pb.sealed.seal_at <= t;
    }
    if (!any_at_t) t = min_seal;

    // A dispatch at time t is only final if no future arrival can still
    // seal a competing batch at or before t. Future arrivals land at
    // >= latest_arrival(), so t strictly before it is safe; otherwise the
    // whole pending set must be inside the flushed epoch.
    if (t >= last_at_ && pending_.rbegin()->first >= flush_watermark_) {
      break;
    }

    // Best (priority, seal order) batch available at t.
    const PendingBatch* best = nullptr;
    for (const auto& [id, pb] : pending_) {
      (void)id;
      if (pb.sealed.seal_at > t) continue;
      if (best == nullptr || pb.sealed.priority < best->sealed.priority ||
          (pb.sealed.priority == best->sealed.priority &&
           pb.sealed.id < best->sealed.id)) {
        best = &pb;
      }
    }
    MORPH_CHECK(best != nullptr);
    if (!best->has_measured) break;  // execution has not caught up yet

    const SealedBatch& b = best->sealed;
    double cycles = cfg_.dispatch_cycles;
    for (double c : best->measured) cycles += c;
    const double start = t;
    const double end = start + cycles;
    slot_ready_[slot] = end;

    for (std::size_t i = 0; i < b.jobs.size(); ++i) {
      const auto jit = jobs_.find(b.jobs[i]);
      MORPH_CHECK(jit != jobs_.end());
      JobPlacement p;
      p.seq = b.jobs[i];
      p.batch = b.id;
      p.batch_size = static_cast<std::uint32_t>(b.jobs.size());
      p.slot = slot;
      p.arrival_cycles = jit->second.arrival_cycles;
      p.start_cycles = start;
      p.end_cycles = end;
      p.queue_cycles = start - jit->second.arrival_cycles;
      out.push_back(p);
      jobs_.erase(jit);
      ++placed_jobs_;
    }
    pending_.erase(b.id);
  }
  return out;
}

std::string Scheduler::checkpoint_blob() const {
  MORPH_CHECK_MSG(jobs_.empty() && open_.empty() && pending_.empty() &&
                      runnable_.empty(),
                  "scheduler checkpoint requires quiescence");
  std::string b;
  put_u64be(next_seq_, b);
  put_u64be(next_batch_id_, b);
  put_u64be(flush_watermark_, b);
  put_u64be(placed_jobs_, b);
  put_u64be(admitted_, b);
  put_u64be(rejected_, b);
  put_u64be(deadline_rejected_, b);
  put_u64be(cancelled_, b);
  put_u64be(std::bit_cast<std::uint64_t>(last_at_), b);
  put_u64be(std::bit_cast<std::uint64_t>(bucket_), b);
  put_u64be(saw_arrival_ ? 1 : 0, b);
  put_u64be(slot_ready_.size(), b);
  for (const double t : slot_ready_) {
    put_u64be(std::bit_cast<std::uint64_t>(t), b);
  }
  put_u64be(deposits_.size(), b);
  for (const auto& [seq, rem] : deposits_) {
    put_u64be(seq, b);
    put_u64be(std::bit_cast<std::uint64_t>(rem), b);
  }
  return b;
}

bool Scheduler::restore_blob(const std::string& blob) {
  std::size_t pos = 0;
  std::uint64_t next_seq = 0, next_batch = 0, watermark = 0, placed = 0;
  std::uint64_t admitted = 0, rejected = 0, deadline_rej = 0, cancelled = 0;
  double last_at = 0.0, bucket = 0.0;
  std::uint64_t saw = 0, nslots = 0;
  if (!get_u64(blob, pos, &next_seq) || !get_u64(blob, pos, &next_batch) ||
      !get_u64(blob, pos, &watermark) || !get_u64(blob, pos, &placed) ||
      !get_u64(blob, pos, &admitted) || !get_u64(blob, pos, &rejected) ||
      !get_u64(blob, pos, &deadline_rej) || !get_u64(blob, pos, &cancelled) ||
      !get_double(blob, pos, &last_at) || !get_double(blob, pos, &bucket) ||
      !get_u64(blob, pos, &saw) || !get_u64(blob, pos, &nslots)) {
    return false;
  }
  if (nslots != slot_ready_.size()) return false;  // pool resized: stay fresh
  std::vector<double> slots(nslots, 0.0);
  for (std::uint64_t i = 0; i < nslots; ++i) {
    if (!get_double(blob, pos, &slots[i])) return false;
  }
  std::uint64_t ndeposits = 0;
  if (!get_u64(blob, pos, &ndeposits)) return false;
  std::deque<std::pair<std::uint64_t, double>> deposits;
  for (std::uint64_t i = 0; i < ndeposits; ++i) {
    std::uint64_t seq = 0;
    double rem = 0.0;
    if (!get_u64(blob, pos, &seq) || !get_double(blob, pos, &rem)) {
      return false;
    }
    deposits.emplace_back(seq, rem);
  }
  if (pos != blob.size()) return false;

  next_seq_ = next_seq;
  next_batch_id_ = next_batch;
  flush_watermark_ = watermark;
  placed_jobs_ = placed;
  admitted_ = admitted;
  rejected_ = rejected;
  deadline_rejected_ = deadline_rej;
  cancelled_ = cancelled;
  last_at_ = last_at;
  bucket_ = bucket;
  saw_arrival_ = saw != 0;
  slot_ready_ = std::move(slots);
  deposits_ = std::move(deposits);
  return true;
}

}  // namespace morph::serve
