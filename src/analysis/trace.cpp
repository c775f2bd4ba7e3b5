#include "analysis/trace.hpp"

#include <atomic>
#include <sstream>

namespace wfbn::mc {

const char* op_kind_name(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::kAtomicLoad: return "load ";
    case OpKind::kAtomicStore: return "store";
    case OpKind::kAtomicRmw: return "rmw  ";
    case OpKind::kDataLoad: return "read ";
    case OpKind::kDataStore: return "write";
    case OpKind::kYield: return "yield";
    case OpKind::kSpawn: return "spawn";
    case OpKind::kJoin: return "join ";
    case OpKind::kThreadStart: return "start";
    case OpKind::kThreadExit: return "exit ";
  }
  return "?";
}

const char* order_name(int std_memory_order) noexcept {
  switch (static_cast<std::memory_order>(std_memory_order)) {
    case std::memory_order_relaxed: return "relaxed";
    case std::memory_order_consume: return "consume";
    case std::memory_order_acquire: return "acquire";
    case std::memory_order_release: return "release";
    case std::memory_order_acq_rel: return "acq_rel";
    case std::memory_order_seq_cst: return "seq_cst";
  }
  return "";
}

std::string Trace::to_string() const {
  std::ostringstream out;
  out << "wfcheck failing interleaving (" << events.size() << " ops):\n";
  for (const TraceEvent& e : events) {
    out << "  #" << e.index << "\tT" << e.thread << "  " << op_kind_name(e.kind);
    if (e.loc != SIZE_MAX) {
      out << "  " << (e.loc_is_data ? "d" : "a") << e.loc;
      const bool read = e.kind == OpKind::kAtomicLoad ||
                        e.kind == OpKind::kDataLoad ||
                        e.kind == OpKind::kAtomicRmw;
      out << (read ? " -> " : " = ") << (e.pointer ? "ptr#" : "") << e.value;
    }
    if (e.order >= 0) out << "  " << order_name(e.order);
    if (e.demoted) out << " [DEMOTED->relaxed]";
    if (e.read_from != SIZE_MAX) {
      out << "  rf=mod#" << e.read_from << (e.synced ? " [syncs-with]" : "");
    }
    if (!e.note.empty()) out << "  ; " << e.note;
    out << "\n";
  }
  out << "happens-before edges established by acquire/release:\n";
  if (hb_edges.empty()) out << "  (none)\n";
  for (const HbEdge& edge : hb_edges) {
    out << "  #" << edge.from_event << " -> #" << edge.to_event << "  (a"
        << edge.loc << ")\n";
  }
  out << "failure: " << (failure.empty() ? "(none)" : failure) << "\n";
  if (seed != 0) {
    out << "replay: random schedule seed " << seed << "\n";
  } else {
    out << "replay: decision string [";
    for (std::size_t i = 0; i < decisions.size(); ++i)
      out << (i ? "," : "") << decisions[i];
    out << "]\n";
  }
  return out.str();
}

}  // namespace wfbn::mc
