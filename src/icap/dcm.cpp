#include "icap/dcm.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace uparc::icap {

Dcm::Dcm(sim::Simulation& sim, std::string name, Frequency f_in, sim::Clock& output,
         TimePs lock_time)
    : Module(sim, std::move(name)), f_in_(f_in), output_(output), lock_time_(lock_time) {
  if (f_in_.is_zero()) throw std::invalid_argument("Dcm input frequency must be positive");
  // Power-on: assume the configured dividers are already locked.
  output_.set_frequency(f_out());
  locked_ = true;
}

void Dcm::program(unsigned m, unsigned d) {
  if (m < kMinM || m > kMaxM) throw std::invalid_argument("Dcm M out of range");
  if (d < kMinD || d > kMaxD) throw std::invalid_argument("Dcm D out of range");
  staged_m_ = m;
  staged_d_ = d;
  start_relock();
}

void Dcm::drp_write(u16 addr, u16 value) {
  switch (addr) {
    case kRegM: {
      const unsigned m = value + 1u;
      if (m < kMinM || m > kMaxM) throw std::invalid_argument("Dcm DRP M out of range");
      staged_m_ = m;
      break;
    }
    case kRegD: {
      const unsigned d = value + 1u;
      if (d < kMinD || d > kMaxD) throw std::invalid_argument("Dcm DRP D out of range");
      staged_d_ = d;
      break;
    }
    case kRegStatus:
      if (value & 0x2u) start_relock();  // reset pulse applies staged values
      break;
    default:
      throw std::out_of_range("Dcm DRP address unmapped");
  }
}

u16 Dcm::drp_read(u16 addr) const {
  switch (addr) {
    case kRegM: return static_cast<u16>(m_ - 1);
    case kRegD: return static_cast<u16>(d_ - 1);
    case kRegStatus: return locked_ ? 0x1 : 0x0;
    default: throw std::out_of_range("Dcm DRP address unmapped");
  }
}

void Dcm::drop_lock() {
  if (!locked_) return;
  locked_ = false;
  output_.set_supplied(false);
  metrics().counter(name() + ".lock_losses").add();
  if (obs::Tracer* tr = tracer()) tr->instant("dcm.lock_lost", "clocking");
}

void Dcm::start_relock() {
  // LOCKED drops; the output clock is not usable during relock.
  locked_ = false;
  output_.set_supplied(false);
  if (obs::Tracer* tr = tracer()) {
    tr->end(relock_span_);  // a newer program() supersedes a pending relock
    relock_span_ = tr->begin("dcm.relock", "clocking");
    tr->arg(relock_span_, "m", static_cast<double>(staged_m_));
    tr->arg(relock_span_, "d", static_cast<double>(staged_d_));
  }
  const u64 epoch = ++relock_epoch_;
  sim_.schedule_in(lock_time_, [this, epoch] {
    if (epoch != relock_epoch_) return;  // superseded by a newer program()
    obs::Tracer* tr = tracer();
    if (lock_fault_ && lock_fault_()) {
      metrics().counter(name() + ".lock_faults").add();
      if (tr != nullptr) {
        tr->arg(relock_span_, "outcome", "fault");
        tr->end(relock_span_);
      }
      return;  // LOCKED stays low; a fresh reset pulse is needed
    }
    m_ = staged_m_;
    d_ = staged_d_;
    output_.set_frequency(f_out());
    locked_ = true;
    ++relocks_;
    metrics().counter(name() + ".relocks").add();
    output_.set_supplied(true);
    if (tr != nullptr) {
      tr->arg(relock_span_, "outcome", "locked");
      tr->arg(relock_span_, "f_out_mhz", f_out().in_mhz());
      tr->end(relock_span_);
    }
    if (locked_cb_) locked_cb_();
  });
}

}  // namespace uparc::icap
