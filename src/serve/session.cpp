#include "serve/session.hpp"

#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

namespace morph::serve {

using telemetry::Json;

namespace {

Status bad(const std::string& msg) {
  return Status(StatusCode::kBadRequest, msg);
}

/// Strict key whitelist, mirroring JobRequest::from_json: a typo in a
/// session frame must not silently change the workload.
Status check_keys(const Json& msg, std::initializer_list<const char*> allowed,
                  const char* what) {
  for (const auto& [key, value] : msg.items()) {
    (void)value;
    bool ok = false;
    for (const char* a : allowed) {
      if (key == a) {
        ok = true;
        break;
      }
    }
    if (!ok) return bad(std::string(what) + ": unknown key \"" + key + "\"");
  }
  return Status::Ok();
}

bool get_count(const Json& msg, const char* key, std::uint64_t* out) {
  const Json* v = msg.find(key);
  const std::optional<std::uint64_t> n =
      v != nullptr ? v->as_uint(Session::kMaxElements) : std::nullopt;
  if (!n || *n < 1) return false;
  *out = *n;
  return true;
}

/// One positional update row: an array of exactly `width` non-negative
/// integers.
Status parse_row(const Json& row, std::size_t index, std::size_t width,
                 std::uint64_t* out) {
  if (!row.is_array() || row.size() != width) {
    return bad("session-update.updates[" + std::to_string(index) +
               "] must be an array of " + std::to_string(width) + " numbers");
  }
  for (std::size_t i = 0; i < width; ++i) {
    const std::optional<std::uint64_t> cell = row.at(i).as_uint();
    if (!cell) {
      return bad("session-update.updates[" + std::to_string(index) +
                 "] entries must be non-negative integers");
    }
    out[i] = *cell;
  }
  return Status::Ok();
}

}  // namespace

Session::Session(std::string name, std::string kind, std::uint32_t slot,
                 const gpu::DeviceConfig& dev_cfg)
    : name_(std::move(name)),
      kind_(std::move(kind)),
      slot_(slot),
      dev_(dev_cfg) {}

Status Session::Open(const Json& msg, std::uint32_t slot,
                     const gpu::DeviceConfig& dev_cfg,
                     std::unique_ptr<Session>* out) {
  Status s = check_keys(
      msg, {"type", "id", "arrival", "session", "kind", "nodes", "vars"},
      "session-open");
  if (!s.ok()) return s;
  const Json* kind = msg.find("kind");
  if (kind == nullptr || !kind->is_string()) {
    return bad("session-open.kind must be \"mst\" or \"pta\"");
  }
  const std::string k = kind->as_string();
  std::uint64_t n = 0;
  if (k == "mst") {
    if (!get_count(msg, "nodes", &n)) {
      return bad("session-open.nodes must be an integer in [1, " +
                 std::to_string(kMaxElements) + "]");
    }
  } else if (k == "pta") {
    if (!get_count(msg, "vars", &n)) {
      return bad("session-open.vars must be an integer in [1, " +
                 std::to_string(kMaxElements) + "]");
    }
  } else {
    return bad("session-open.kind must be \"mst\" or \"pta\"");
  }
  const Json* name = msg.find("session");
  auto sess = std::unique_ptr<Session>(
      new Session(name->as_string(), k, slot, dev_cfg));
  if (k == "mst") {
    sess->mst_ = std::make_unique<mst::MstState>(mst::make_mst_state(
        static_cast<std::uint32_t>(n), {}, sess->dev_));
  } else {
    sess->pta_ = std::make_unique<pta::PtaState>(
        pta::make_pta_state(static_cast<std::uint32_t>(n)));
  }
  *out = std::move(sess);
  return Status::Ok();
}

Status Session::Update(const Json& msg, Json* reply) {
  Status s = check_keys(msg, {"type", "id", "arrival", "session", "updates"},
                        "session-update");
  if (!s.ok()) return s;
  const Json* updates = msg.find("updates");
  if (updates == nullptr || !updates->is_array() || updates->size() == 0) {
    return bad("session-update.updates must be a non-empty array");
  }

  // Parse and validate the whole batch before touching any state: a bad row
  // must not leave half a batch applied.
  std::vector<mst::EdgeUpdate> mst_batch;
  std::vector<pta::Constraint> pta_batch;
  if (mst_) {
    const std::uint64_t n = mst_->n;
    mst_batch.reserve(updates->size());
    for (std::size_t i = 0; i < updates->size(); ++i) {
      std::uint64_t row[4];
      s = parse_row(updates->at(i), i, 4, row);
      if (!s.ok()) return s;
      if (row[0] > 1) {
        return bad("session-update.updates[" + std::to_string(i) +
                   "][0] must be 1 (insert) or 0 (delete)");
      }
      if (row[1] >= n || row[2] >= n) {
        return bad("session-update.updates[" + std::to_string(i) +
                   "] endpoint out of range (nodes=" + std::to_string(n) +
                   ")");
      }
      if (row[3] > 0xFFFFFFFFull) {
        return bad("session-update.updates[" + std::to_string(i) +
                   "] weight does not fit 32 bits");
      }
      mst_batch.push_back(mst::EdgeUpdate{
          row[0] == 1, static_cast<graph::Node>(row[1]),
          static_cast<graph::Node>(row[2]), static_cast<graph::Weight>(row[3])});
    }
  } else {
    const std::uint64_t n = pta_->cs.num_vars;
    pta_batch.reserve(updates->size());
    for (std::size_t i = 0; i < updates->size(); ++i) {
      std::uint64_t row[3];
      s = parse_row(updates->at(i), i, 3, row);
      if (!s.ok()) return s;
      if (row[0] > 3) {
        return bad("session-update.updates[" + std::to_string(i) +
                   "][0] must be a constraint kind in 0..3");
      }
      if (row[1] >= n || row[2] >= n) {
        return bad("session-update.updates[" + std::to_string(i) +
                   "] variable out of range (vars=" + std::to_string(n) + ")");
      }
      pta_batch.push_back(pta::Constraint{
          static_cast<pta::ConstraintKind>(row[0]),
          static_cast<pta::Var>(row[1]), static_cast<pta::Var>(row[2])});
    }
  }

  const gpu::DeviceStats base = dev_.stats();
  Json outputs = Json::object();
  if (mst_) {
    const mst::MstResult res = mst::apply_updates(*mst_, mst_batch, dev_);
    outputs.set("total_weight", res.total_weight);
    outputs.set("tree_edges", res.tree_edges);
    outputs.set("components", static_cast<std::int64_t>(res.components));
    outputs.set("rounds", res.rounds);
    outputs.set("delta_edges", static_cast<std::uint64_t>(res.edges.size()));
    updates_ += mst_batch.size();
  } else {
    const pta::PtaDelta d = pta::apply_updates(*pta_, pta_batch, dev_);
    outputs.set("pts_total", d.pts_total);
    outputs.set("pts_added", d.pts_added);
    outputs.set("edges_added", d.edges_added);
    outputs.set("rounds", d.rounds);
    updates_ += pta_batch.size();
  }
  reply->set("outputs", outputs);
  reply->set("exec",
             JobExecStats::from_stats(dev_.stats().delta_since(base)).to_json());
  reply->set("digest", digest_hex());
  return Status::Ok();
}

std::string Session::digest_hex() const {
  const std::uint64_t d =
      mst_ ? mst::state_digest(*mst_) : pta::state_digest(*pta_);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(d));
  return std::string(buf);
}

}  // namespace morph::serve
