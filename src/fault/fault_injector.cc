#include "src/fault/fault_injector.h"

#include <atomic>
#include <string>

#include "src/obs/telemetry.h"
#include "src/soc/log.h"

namespace dlt {

// Routes a device's MMIO window through the injector. Writes and soft resets
// pass straight through — the planes model misread status/data, not lost
// commands (a lost command shows up as a dropped IRQ or stuck status anyway).
class FaultInjector::MmioProxy : public MmioDevice {
 public:
  MmioProxy(FaultInjector* inj, MmioDevice* real, uint16_t device_id)
      : inj_(inj), real_(real), device_id_(device_id) {}

  std::string_view name() const override { return real_->name(); }
  uint32_t MmioRead32(uint64_t offset) override {
    return inj_->FilterMmioRead(device_id_, offset, real_->MmioRead32(offset));
  }
  void MmioWrite32(uint64_t offset, uint32_t value) override {
    real_->MmioWrite32(offset, value);
  }
  void SoftReset() override { real_->SoftReset(); }

  MmioDevice* real() const { return real_; }

 private:
  FaultInjector* inj_;
  MmioDevice* real_;
  uint16_t device_id_;
};

FaultInjector::FaultInjector(Machine* machine) : machine_(machine) {}

FaultInjector::~FaultInjector() { Disarm(); }

Status FaultInjector::Arm(const FaultPlan& plan) {
  // Validate before installing anything, so a rejected plan leaves no hooks.
  for (const FaultSpec& s : plan.specs()) {
    switch (s.kind) {
      case FaultKind::kMmioCorruptRead:
      case FaultKind::kMmioStuckValue:
        if (s.device == FaultSpec::kAnyDevice ||
            !machine_->DeviceById(s.device).ok()) {
          return Status::kInvalidArg;  // MMIO faults must name an attached device
        }
        break;
      case FaultKind::kIrqSpurious:
        if (s.irq_line == FaultSpec::kAnyLine) {
          return Status::kInvalidArg;  // a spurious raise needs a concrete line
        }
        break;
      case FaultKind::kKindCount:
        return Status::kInvalidArg;
      default:
        break;
    }
  }
  Disarm();
  rng_ = FaultRng(plan.seed());
  injected_.fill(0);
  opportunities_ = 0;
  armed_.clear();
  for (const FaultSpec& s : plan.specs()) {
    armed_.push_back(ArmedSpec{s, 0, 0});
  }

  bool want_irq = false;
  bool want_dma = false;
  bool want_bus = false;
  for (const ArmedSpec& a : armed_) {
    switch (a.spec.kind) {
      case FaultKind::kMmioCorruptRead:
      case FaultKind::kMmioStuckValue: {
        DLT_ASSIGN_OR_RETURN(Machine::DeviceEntry e,
                             machine_->DeviceById(a.spec.device));
        bool wrapped = false;
        for (const auto& p : proxies_) {
          if (p->real() == e.dev) {
            wrapped = true;  // an earlier spec already interposed this device
          }
        }
        if (!wrapped) {
          auto proxy = std::make_unique<MmioProxy>(this, e.dev, e.id);
          DLT_RETURN_IF_ERROR(machine_->mem().InterposeMmio(e.dev, proxy.get()));
          proxies_.push_back(std::move(proxy));
        }
        break;
      }
      case FaultKind::kDmaCorrupt:
      case FaultKind::kDmaTruncate:
        want_dma = true;
        break;
      case FaultKind::kBusCorruptRead:
      case FaultKind::kBusCorruptWrite:
        want_bus = true;
        break;
      case FaultKind::kIrqDrop:
      case FaultKind::kIrqDelay:
        want_irq = true;
        break;
      case FaultKind::kIrqSpurious: {
        int line = a.spec.irq_line;
        FaultKind kind = a.spec.kind;
        scheduled_.push_back(
            machine_->clock().ScheduleIn(a.spec.at_us, [this, line, kind] {
              redelivering_ = true;
              machine_->irq().Raise(line);
              redelivering_ = false;
              CountFault(kind, 0, static_cast<uint64_t>(line));
            }));
        break;
      }
      case FaultKind::kKindCount:
        return Status::kInvalidArg;
    }
  }
  if (want_irq) {
    machine_->irq().set_fault_hook(this);
    hooked_irq_ = true;
  }
  if (want_dma) {
    machine_->dma().set_fault_hook(this);
    hooked_dma_ = true;
  }
  if (want_bus) {
    machine_->mem().set_bus_fault_hook(this);
    hooked_bus_ = true;
  }
  armed_flag_ = true;
  return Status::kOk;
}

void FaultInjector::Disarm() {
  if (!armed_flag_) {
    return;
  }
  for (SimClock::EventId id : scheduled_) {
    machine_->clock().Cancel(id);  // false for already-fired events; fine
  }
  scheduled_.clear();
  for (auto& p : proxies_) {
    machine_->mem().InterposeMmio(p.get(), p->real());
  }
  proxies_.clear();
  if (hooked_irq_) {
    machine_->irq().set_fault_hook(nullptr);
    hooked_irq_ = false;
  }
  if (hooked_dma_) {
    machine_->dma().set_fault_hook(nullptr);
    hooked_dma_ = false;
  }
  if (hooked_bus_) {
    machine_->mem().set_bus_fault_hook(nullptr);
    hooked_bus_ = false;
  }
  armed_.clear();
  armed_flag_ = false;
}

uint64_t FaultInjector::injected_total() const {
  uint64_t total = 0;
  for (uint64_t n : injected_) {
    total += n;
  }
  return total;
}

bool FaultInjector::ShouldFire(ArmedSpec& a) {
  ++opportunities_;
  ++a.seen;
  if (a.seen <= a.spec.skip) {
    return false;
  }
  if (a.fired >= a.spec.max_faults) {
    return false;
  }
  if (!rng_.Draw(a.spec.prob_bp)) {
    return false;
  }
  ++a.fired;
  return true;
}

namespace {

// "fault.injected.<kind>", resolved on a kind's first injection (so only kinds
// that fired are registered). Atomic slots: a racing double-resolve stores the
// same pointer.
Counter& KindCounter(FaultKind k) {
  static std::array<std::atomic<Counter*>, static_cast<size_t>(FaultKind::kKindCount)> cache{};
  std::atomic<Counter*>& slot = cache[static_cast<size_t>(k)];
  Counter* c = slot.load(std::memory_order_acquire);
  if (c == nullptr) {
    c = &Telemetry::Get().metrics().counter(std::string("fault.injected.") + FaultKindName(k));
    slot.store(c, std::memory_order_release);
  }
  return *c;
}

}  // namespace

void FaultInjector::CountFault(FaultKind k, uint16_t device, uint64_t detail) {
  ++injected_[static_cast<size_t>(k)];
  Telemetry& t = Telemetry::Get();
  if (t.enabled()) {
    static Counter* total = &t.metrics().counter("fault.injected");
    total->Inc();
    KindCounter(k).Inc();
    t.Instant(TraceKind::kFaultInjected, machine_->clock().now_us(),
              FaultKindName(k), detail, 0, device);
  }
}

void FaultInjector::CorruptBytes(uint8_t* data, size_t len, uint64_t mask) {
  if (len == 0) {
    return;
  }
  size_t pos = rng_.Next() % len;
  uint8_t flip = static_cast<uint8_t>(mask != 0 ? mask : 0xff);
  data[pos] ^= flip;
  // Burst corruption: also flip the neighbouring byte when there is one, so a
  // 16-bit field straddling |pos| cannot alias back to its original value.
  if (pos + 1 < len) {
    data[pos + 1] ^= static_cast<uint8_t>(mask >> 8 != 0 ? mask >> 8 : 0x55);
  }
}

uint32_t FaultInjector::FilterMmioRead(uint16_t device, uint64_t offset,
                                       uint32_t observed) {
  uint32_t v = observed;
  for (ArmedSpec& a : armed_) {
    if (a.spec.kind != FaultKind::kMmioCorruptRead &&
        a.spec.kind != FaultKind::kMmioStuckValue) {
      continue;
    }
    if (a.spec.device != device) {
      continue;
    }
    if (a.spec.reg_off != FaultSpec::kAnyReg && a.spec.reg_off != offset) {
      continue;
    }
    if (!ShouldFire(a)) {
      continue;
    }
    if (a.spec.kind == FaultKind::kMmioCorruptRead) {
      v ^= static_cast<uint32_t>(a.spec.arg != 0 ? a.spec.arg : 1);
    } else {
      v = static_cast<uint32_t>(a.spec.arg);
    }
    CountFault(a.spec.kind, device, offset);
  }
  return v;
}

bool FaultInjector::OnRaise(int line) {
  if (redelivering_) {
    return true;  // our own delayed/spurious raise: deliver unfiltered
  }
  for (ArmedSpec& a : armed_) {
    if (a.spec.kind != FaultKind::kIrqDrop && a.spec.kind != FaultKind::kIrqDelay) {
      continue;
    }
    if (a.spec.irq_line != FaultSpec::kAnyLine && a.spec.irq_line != line) {
      continue;
    }
    if (!ShouldFire(a)) {
      continue;
    }
    CountFault(a.spec.kind, 0, static_cast<uint64_t>(line));
    if (a.spec.kind == FaultKind::kIrqDrop) {
      return false;
    }
    uint64_t delay = a.spec.arg != 0 ? a.spec.arg : 100;
    scheduled_.push_back(machine_->clock().ScheduleIn(delay, [this, line] {
      redelivering_ = true;
      machine_->irq().Raise(line);
      redelivering_ = false;
    }));
    return false;  // suppressed now, re-raised |delay| later
  }
  return true;
}

void FaultInjector::OnBlock(uint32_t ti, PhysAddr src, PhysAddr dst, uint8_t* data,
                            size_t* len) {
  (void)ti;
  (void)src;
  for (ArmedSpec& a : armed_) {
    if (a.spec.kind == FaultKind::kDmaCorrupt) {
      if (!ShouldFire(a)) {
        continue;
      }
      CorruptBytes(data, *len, a.spec.arg);
      CountFault(a.spec.kind, 0, dst);
    } else if (a.spec.kind == FaultKind::kDmaTruncate) {
      if (!ShouldFire(a)) {
        continue;
      }
      *len /= 2;
      CountFault(a.spec.kind, 0, dst);
    }
  }
}

void FaultInjector::OnDmaRead(PhysAddr a, uint8_t* data, size_t n) {
  for (ArmedSpec& s : armed_) {
    if (s.spec.kind != FaultKind::kBusCorruptRead) {
      continue;
    }
    if (s.spec.addr_size != 0 &&
        !(a >= s.spec.addr && a + n <= s.spec.addr + s.spec.addr_size)) {
      continue;
    }
    if (!ShouldFire(s)) {
      continue;
    }
    CorruptBytes(data, n, s.spec.arg);
    CountFault(s.spec.kind, 0, a);
  }
}

void FaultInjector::OnDmaWrite(PhysAddr a, uint8_t* data, size_t n) {
  for (ArmedSpec& s : armed_) {
    if (s.spec.kind != FaultKind::kBusCorruptWrite) {
      continue;
    }
    if (s.spec.addr_size != 0 &&
        !(a >= s.spec.addr && a + n <= s.spec.addr + s.spec.addr_size)) {
      continue;
    }
    if (!ShouldFire(s)) {
      continue;
    }
    CorruptBytes(data, n, s.spec.arg);
    CountFault(s.spec.kind, 0, a);
  }
}

}  // namespace dlt
