#include "txn/journal.hpp"

#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace uparc::txn {

bool phase_from_string(std::string_view name, TxnPhase& out) {
  for (TxnPhase p : {TxnPhase::kBegun, TxnPhase::kForward, TxnPhase::kVerify,
                     TxnPhase::kCommitted, TxnPhase::kRollback,
                     TxnPhase::kRolledBackLastGood, TxnPhase::kRolledBackBlank,
                     TxnPhase::kFailed}) {
    if (name == to_string(p)) {
      out = p;
      return true;
    }
  }
  return false;
}

u64 Journal::begin(std::string region, std::string module) {
  TxnRecord rec;
  rec.id = records_.size() + 1;
  rec.region = std::move(region);
  rec.module = std::move(module);
  rec.opened_at = sim_.now();
  rec.events.push_back({TxnPhase::kBegun, sim_.now(), ""});
  records_.push_back(std::move(rec));
  ++open_;
  return records_.back().id;
}

void Journal::advance(u64 id, TxnPhase phase, std::string note) {
  if (id == 0 || id > records_.size()) {
    throw std::logic_error("Journal: advance on unknown txn " + std::to_string(id));
  }
  TxnRecord& rec = records_[id - 1];
  if (rec.terminal()) {
    throw std::logic_error("Journal: advance on terminal txn " + std::to_string(id));
  }
  rec.phase = phase;
  rec.events.push_back({phase, sim_.now(), std::move(note)});
  if (rec.terminal()) {
    rec.closed_at = sim_.now();
    --open_;
  }
}

const TxnRecord* Journal::find(u64 id) const {
  if (id == 0 || id > records_.size()) return nullptr;
  return &records_[id - 1];
}

std::string Journal::render_json() const {
  std::ostringstream out;
  out << "{\n  \"transactions\": [";
  for (std::size_t r = 0; r < records_.size(); ++r) {
    const TxnRecord& rec = records_[r];
    out << (r == 0 ? "" : ",") << "\n    {\"id\": " << rec.id << ", \"region\": \""
        << obs::json_escape(rec.region) << "\", \"module\": \""
        << obs::json_escape(rec.module) << "\", \"phase\": \"" << to_string(rec.phase)
        << "\", \"terminal\": " << (rec.terminal() ? "true" : "false")
        << ", \"opened_ps\": " << rec.opened_at.ps()
        << ", \"closed_ps\": " << rec.closed_at.ps() << ", \"events\": [";
    for (std::size_t e = 0; e < rec.events.size(); ++e) {
      const TxnEvent& ev = rec.events[e];
      out << (e == 0 ? "" : ", ") << "{\"phase\": \"" << to_string(ev.phase)
          << "\", \"at_ps\": " << ev.at.ps();
      if (!ev.note.empty()) out << ", \"note\": \"" << obs::json_escape(ev.note) << "\"";
      out << "}";
    }
    out << "]}";
  }
  out << "\n  ],\n  \"open\": " << open_ << "\n}\n";
  return out.str();
}

ParsedJournal parse_journal_json(const std::string& text) {
  auto parsed = json::parse(text);
  if (!parsed.ok()) {
    throw std::runtime_error("parse_journal_json: " + parsed.error().message);
  }
  const json::Value& root = parsed.value();
  const json::Value* txns = root.find("transactions");
  if (txns == nullptr || !txns->is(json::Type::kArray)) {
    throw std::runtime_error("parse_journal_json: missing \"transactions\"");
  }
  ParsedJournal out;
  out.records.reserve(txns->items.size());
  for (const json::Value& t : txns->items) {
    TxnRecord rec;
    rec.id = t.at("id").as_u64();
    rec.region = t.at("region").as_string();
    rec.module = t.at("module").as_string();
    TxnPhase phase{};
    if (!phase_from_string(t.at("phase").as_string(), phase)) {
      throw std::runtime_error("parse_journal_json: unknown phase \"" +
                               t.at("phase").as_string() + "\"");
    }
    rec.phase = phase;
    rec.opened_at = TimePs(t.at("opened_ps").as_u64());
    rec.closed_at = TimePs(t.at("closed_ps").as_u64());
    const bool terminal = t.at("terminal").as_bool();
    if (terminal != rec.terminal()) {
      throw std::runtime_error("parse_journal_json: terminal flag contradicts phase on txn " +
                               std::to_string(rec.id));
    }
    const json::Value* events = t.find("events");
    if (events != nullptr && events->is(json::Type::kArray)) {
      for (const json::Value& e : events->items) {
        TxnEvent ev;
        if (!phase_from_string(e.at("phase").as_string(), ev.phase)) {
          throw std::runtime_error("parse_journal_json: unknown event phase");
        }
        ev.at = TimePs(e.at("at_ps").as_u64());
        if (const json::Value* note = e.find("note")) ev.note = note->as_string();
        rec.events.push_back(std::move(ev));
      }
    }
    out.records.push_back(std::move(rec));
  }
  out.open = root.at("open").as_u64();
  return out;
}

}  // namespace uparc::txn
