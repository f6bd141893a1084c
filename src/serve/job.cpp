#include "serve/job.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>

#include "support/check.hpp"

namespace morph::serve {

using telemetry::Json;

const char* job_kind_name(JobKind k) {
  switch (k) {
    case JobKind::kDmr: return "dmr";
    case JobKind::kSp: return "sp";
    case JobKind::kPta: return "pta";
    case JobKind::kMst: return "mst";
  }
  return "unknown";
}

bool parse_job_kind(const std::string& s, JobKind* out) {
  if (s == "dmr") {
    *out = JobKind::kDmr;
  } else if (s == "sp") {
    *out = JobKind::kSp;
  } else if (s == "pta") {
    *out = JobKind::kPta;
  } else if (s == "mst") {
    *out = JobKind::kMst;
  } else {
    return false;
  }
  return true;
}

std::string JobSpec::signature() const {
  std::ostringstream os;
  os << job_kind_name(kind) << "/size=" << size;
  if (size2 != 0) os << "/size2=" << size2;
  if (kind == JobKind::kSp) {
    os << "/k=" << k << "/sweeps=" << sweeps << "/phases=" << phases;
  }
  os << "/seed=" << seed;
  if (validate) os << "/validate";
  if (deadline_model_ms > 0.0) os << "/deadline=" << deadline_model_ms;
  return os.str();
}

Json JobSpec::to_json() const {
  Json o = Json::object();
  o.set("size", size);
  if (size2 != 0) o.set("size2", size2);
  if (kind == JobKind::kSp) {
    o.set("k", static_cast<std::int64_t>(k));
    o.set("sweeps", static_cast<std::int64_t>(sweeps));
    o.set("phases", static_cast<std::int64_t>(phases));
  }
  o.set("seed", seed);
  if (validate) o.set("validate", true);
  if (deadline_model_ms > 0.0) o.set("deadline_model_ms", deadline_model_ms);
  return o;
}

namespace {

Status bad(const std::string& what) {
  return Status(StatusCode::kBadRequest, what);
}

/// Reads the optional integer field `key` of `doc` (`dflt` when absent);
/// anything but a non-negative integer that fits T (and int64) is a bad
/// request naming `field`.
template <typename T>
Status take_uint(const Json& doc, const std::string& key,
                 const std::string& field, T dflt, T* out) {
  const Json* v = doc.find(key);
  if (v == nullptr) {
    *out = dflt;
    return Status::Ok();
  }
  constexpr std::uint64_t kMax = std::min<std::uint64_t>(
      std::numeric_limits<T>::max(), std::numeric_limits<std::int64_t>::max());
  const std::optional<std::uint64_t> n = v->as_uint(kMax);
  if (!n) {
    return bad(field + " must be an integer in 0.." + std::to_string(kMax));
  }
  *out = static_cast<T>(*n);
  return Status::Ok();
}

}  // namespace

Status JobSpec::from_json(const Json& doc, JobKind kind_in, JobSpec* out) {
  if (!doc.is_object()) return bad("params must be an object");
  *out = JobSpec{};
  out->kind = kind_in;
  static const char* const kKnown[] = {
      "size",   "size2", "k",        "sweeps",
      "phases", "seed",  "validate", "deadline_model_ms"};
  for (const auto& [key, value] : doc.items()) {
    (void)value;
    bool known = false;
    for (const char* kk : kKnown) known = known || key == kk;
    if (!known) return bad("unknown params key \"" + key + "\"");
  }
  const auto take = [&](const char* key, auto* field) {
    return take_uint(doc, key, std::string("params.") + key, *field, field);
  };
  Status s;
  if (!(s = take("size", &out->size)).ok()) return s;
  if (out->size == 0) return bad("params.size must be positive");
  if (!(s = take("size2", &out->size2)).ok()) return s;
  if (!(s = take("k", &out->k)).ok()) return s;
  if (kind_in == JobKind::kSp && (out->k < 3 || out->k > 6)) {
    return bad("params.k must be in 3..6");
  }
  if (!(s = take("sweeps", &out->sweeps)).ok()) return s;
  if (!(s = take("phases", &out->phases)).ok()) return s;
  if (!(s = take("seed", &out->seed)).ok()) return s;
  if (const Json* b = doc.find("validate")) {
    if (b->type() != Json::Type::kBool) {
      return bad("params.validate must be a boolean");
    }
    out->validate = b->as_bool();
  }
  if (const Json* d = doc.find("deadline_model_ms")) {
    if (!d->is_number() || d->as_double() < 0.0) {
      return bad("params.deadline_model_ms must be a non-negative number");
    }
    out->deadline_model_ms = d->as_double();
  }
  return Status::Ok();
}

Json JobRequest::to_json() const {
  Json o = Json::object();
  o.set("type", "submit");
  o.set("id", id);
  o.set("kind", job_kind_name(spec.kind));
  o.set("priority", static_cast<std::int64_t>(priority));
  o.set("params", spec.to_json());
  if (!faults.empty()) {
    o.set("faults", faults);
    o.set("fault_seed", fault_seed);
  }
  if (trace) o.set("trace", true);
  return o;
}

Status JobRequest::from_json(const Json& doc, JobRequest* out) {
  if (!doc.is_object()) return bad("submit message must be an object");
  *out = JobRequest{};
  const Json* id = doc.find("id");
  const std::optional<std::uint64_t> idv =
      id != nullptr ? id->as_uint() : std::nullopt;
  if (!idv) return bad("submit.id must be a non-negative integer");
  out->id = *idv;
  const Json* kind = doc.find("kind");
  if (kind == nullptr || !kind->is_string() ||
      !parse_job_kind(kind->as_string(), &out->spec.kind)) {
    return bad("submit.kind must be one of dmr, sp, pta, mst");
  }
  if (const Json* p = doc.find("priority")) {
    const std::optional<std::uint64_t> pv = p->as_uint(kMaxPriority);
    if (!pv) return bad("submit.priority must be in 0..7");
    out->priority = static_cast<std::uint32_t>(*pv);
  }
  const Json* params = doc.find("params");
  const Json empty = Json::object();
  Status s = JobSpec::from_json(params != nullptr ? *params : empty,
                                out->spec.kind, &out->spec);
  if (!s.ok()) return s;
  if (const Json* f = doc.find("faults")) {
    if (!f->is_string()) return bad("submit.faults must be a string");
    out->faults = f->as_string();
  }
  if (!(s = take_uint(doc, "fault_seed", "submit.fault_seed", out->fault_seed,
                      &out->fault_seed))
           .ok()) {
    return s;
  }
  if (const Json* t = doc.find("trace")) {
    if (t->type() != Json::Type::kBool) {
      return bad("submit.trace must be a boolean");
    }
    out->trace = t->as_bool();
  }
  return Status::Ok();
}

JobExecStats JobExecStats::from_stats(const gpu::DeviceStats& st) {
  JobExecStats out;
  out.launches = st.launches;
  out.barriers = st.barriers;
  out.total_work = st.total_work;
  out.warp_steps = st.warp_steps;
  out.atomics = st.atomics;
  out.global_accesses = st.global_accesses;
  out.device_mallocs = st.device_mallocs;
  out.reallocs = st.reallocs;
  out.bytes_allocated = st.bytes_allocated;
  out.bytes_copied = st.bytes_copied;
  out.wl_contended_ops = st.wl_contended_ops;
  out.faults_injected = st.faults_injected;
  out.faults_recovered = st.faults_recovered;
  out.modeled_cycles = st.modeled_cycles;
  return out;
}

Json JobExecStats::to_json() const {
  Json o = Json::object();
  o.set("modeled_cycles", modeled_cycles);
  o.set("launches", launches);
  o.set("barriers", barriers);
  o.set("total_work", total_work);
  o.set("warp_steps", warp_steps);
  o.set("atomics", atomics);
  o.set("global_accesses", global_accesses);
  o.set("device_mallocs", device_mallocs);
  o.set("reallocs", reallocs);
  o.set("bytes_allocated", bytes_allocated);
  o.set("bytes_copied", bytes_copied);
  o.set("wl_contended_ops", wl_contended_ops);
  o.set("faults_injected", faults_injected);
  o.set("faults_recovered", faults_recovered);
  return o;
}

}  // namespace morph::serve
