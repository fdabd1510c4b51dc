#include "manager/preloader.hpp"

#include "obs/trace.hpp"

namespace uparc::manager {

Preloader::Preloader(sim::Simulation& sim, std::string name, MicroBlaze& manager,
                     mem::Bram& bram)
    : Module(sim, std::move(name)), manager_(manager), bram_(bram) {
  sim_.topology().declare_state_ref(this, &bram_, "bitstream BRAM");
}

Status Preloader::store(bool compressed, WordsView payload, i64 cycles_override,
                        std::function<void()> done) {
  if (payload.size() > BramLayout::kWordCountMask) {
    return make_error("payload too large for the mode word's length field",
                      ErrorCause::kCapacity);
  }
  if (1 + payload.size() > bram_.size_words()) {
    return make_error("payload does not fit the bitstream BRAM (" +
                          std::to_string((1 + payload.size()) * 4) + " > " +
                          std::to_string(bram_.size_bytes()) + " bytes)",
                      ErrorCause::kCapacity);
  }
  std::size_t copied = payload.size();
  if (truncate_tap_) {
    copied = std::min(truncate_tap_(payload.size()), payload.size());
    if (copied < payload.size()) {
      metrics().counter(name() + ".truncated").add();
    }
  }
  last_complete_ = copied == payload.size();
  // The header always advertises the full length — a truncated copy leaves
  // the tail stale, exactly like a torn read from storage.
  bram_.write_word(0, BramLayout::make_header(compressed, static_cast<u32>(payload.size())));
  bram_.load_words(payload.first(copied), 1);

  const u64 cycles = cycles_override >= 0
                         ? static_cast<u64>(cycles_override)
                         : static_cast<u64>(copied + 1) * manager_.costs().copy_loop_word;
  last_duration_ = manager_.cycles(cycles);
  ++preloads_;
  // Post-truncation accounting reports what actually landed; the advertised
  // length is tracked separately so a torn copy shows up as the gap between
  // .requested_words and .words.
  metrics().counter(name() + ".preloads").add();
  metrics().counter(name() + ".words").add(static_cast<double>(copied + 1));
  metrics().counter(name() + ".requested_words").add(static_cast<double>(payload.size() + 1));
  metrics().histogram(name() + ".cycles").observe(static_cast<double>(cycles));
  metrics().meter(name() + ".bytes").add(static_cast<double>((copied + 1) * 4), sim_.now());

  // The DMA burst into BRAM port A is one measured span: opened here,
  // closed when the manager's copy loop lands.
  obs::SpanId span = obs::kNoSpan;
  if (obs::Tracer* tr = tracer()) {
    span = tr->begin("preload.dma", "preload");
    tr->arg(span, "words", static_cast<double>(payload.size() + 1));
    tr->arg(span, "copied_words", static_cast<double>(copied + 1));
    tr->arg(span, "compressed", compressed);
    tr->arg(span, "cached", cycles_override >= 0);
    tr->arg(span, "manager_cycles", static_cast<double>(cycles));
  }
  manager_.execute(cycles, [this, span, done = std::move(done)]() mutable {
    if (obs::Tracer* tr = tracer()) tr->end(span);
    done();
  });
  return Status::success();
}

Status Preloader::preload_cached(bool compressed, WordsView payload, u64 copy_cycles,
                                 std::function<void()> done) {
  Status st = store(compressed, payload, static_cast<i64>(copy_cycles), std::move(done));
  if (st.ok()) {
    metrics().counter(name() + ".cached_preloads").add();
  }
  return st;
}

Status Preloader::preload_body(WordsView body, std::function<void()> done) {
  return store(false, body, -1, std::move(done));
}

Status Preloader::preload_compressed(BytesView container, std::function<void()> done) {
  return store(true, bytes_to_words(container), -1, std::move(done));
}

}  // namespace uparc::manager
