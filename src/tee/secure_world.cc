#include "src/tee/secure_world.h"

#include "src/obs/telemetry.h"
#include "src/soc/log.h"

namespace dlt {

SecureWorld::SecureWorld(Machine* machine, PhysAddr pool_base, uint64_t pool_size,
                         uint64_t rng_seed)
    : machine_(machine), pool_(pool_base, pool_size), rng_state_(rng_seed | 1) {
  // Carve the TEE RAM reservation out of the normal world.
  machine_->tzasc().AssignRegion(pool_base, pool_size, World::kSecure);
}

Status SecureWorld::MapDevice(uint16_t device_id) {
  DLT_ASSIGN_OR_RETURN(Machine::DeviceEntry e, machine_->DeviceById(device_id));
  if (machine_->tzasc().OwnerOf(e.base) != World::kSecure) {
    // Firmware did not assign this instance to the TEE; mapping it would let
    // the normal world interfere with secure IO.
    return Status::kPermissionDenied;
  }
  mapped_.insert(device_id);
  return Status::kOk;
}

void SecureWorld::ChargeNs(uint64_t ns) {
  ns_accum_ += ns;
  if (ns_accum_ >= 1000) {
    machine_->clock().Advance(ns_accum_ / 1000);
    ns_accum_ %= 1000;
  }
}

Result<uint32_t> SecureWorld::RegRead32(uint16_t device, uint64_t offset) {
  if (!DeviceMapped(device)) {
    return Status::kPermissionDenied;
  }
  DLT_ASSIGN_OR_RETURN(Machine::DeviceEntry e, machine_->DeviceById(device));
  if (offset >= e.size) {
    return Status::kOutOfRange;
  }
  ChargeNs(machine_->latency().mmio_access_ns);
  return machine_->mem().Read32(World::kSecure, e.base + offset);
}

Status SecureWorld::RegWrite32(uint16_t device, uint64_t offset, uint32_t value) {
  if (!DeviceMapped(device)) {
    return Status::kPermissionDenied;
  }
  DLT_ASSIGN_OR_RETURN(Machine::DeviceEntry e, machine_->DeviceById(device));
  if (offset >= e.size) {
    return Status::kOutOfRange;
  }
  ChargeNs(machine_->latency().mmio_access_ns);
  return machine_->mem().Write32(World::kSecure, e.base + offset, value);
}

Status SecureWorld::RegReadBlock32(uint16_t device, uint64_t offset, uint32_t* out,
                                   size_t words) {
  if (words == 0) {
    return Status::kOk;
  }
  if (!DeviceMapped(device)) {
    return Status::kPermissionDenied;
  }
  DLT_ASSIGN_OR_RETURN(Machine::DeviceEntry e, machine_->DeviceById(device));
  if (offset >= e.size) {
    return Status::kOutOfRange;
  }
  Result<AddressSpace::MmioCursor> cur = machine_->mem().MmioAt(World::kSecure, e.base + offset);
  if (!cur.ok()) {
    // Register not backed by an MMIO window (test fixtures): keep the exact
    // per-word base-class semantics.
    return ReplayContext::RegReadBlock32(device, offset, out, words);
  }
  for (size_t i = 0; i < words; ++i) {
    ChargeNs(machine_->latency().mmio_access_ns);
    out[i] = cur->Read();
  }
  return Status::kOk;
}

Status SecureWorld::RegWriteBlock32(uint16_t device, uint64_t offset, const uint32_t* values,
                                    size_t words) {
  if (words == 0) {
    return Status::kOk;
  }
  if (!DeviceMapped(device)) {
    return Status::kPermissionDenied;
  }
  DLT_ASSIGN_OR_RETURN(Machine::DeviceEntry e, machine_->DeviceById(device));
  if (offset >= e.size) {
    return Status::kOutOfRange;
  }
  Result<AddressSpace::MmioCursor> cur = machine_->mem().MmioAt(World::kSecure, e.base + offset);
  if (!cur.ok()) {
    return ReplayContext::RegWriteBlock32(device, offset, values, words);
  }
  for (size_t i = 0; i < words; ++i) {
    ChargeNs(machine_->latency().mmio_access_ns);
    cur->Write(values[i]);
  }
  return Status::kOk;
}

Result<uint32_t> SecureWorld::MemRead32(PhysAddr addr) {
  if (!AddressAllowed(addr, 4)) {
    return Status::kPermissionDenied;
  }
  return machine_->mem().Read32(World::kSecure, addr);
}

Status SecureWorld::MemWrite32(PhysAddr addr, uint32_t value) {
  if (!AddressAllowed(addr, 4)) {
    return Status::kPermissionDenied;
  }
  return machine_->mem().Write32(World::kSecure, addr, value);
}

Status SecureWorld::MemCopyIn(PhysAddr dst, const uint8_t* src, size_t len) {
  if (!AddressAllowed(dst, len)) {
    return Status::kPermissionDenied;
  }
  return machine_->mem().WriteBytes(World::kSecure, dst, src, len);
}

Status SecureWorld::MemCopyOut(uint8_t* dst, PhysAddr src, size_t len) {
  if (!AddressAllowed(src, len)) {
    return Status::kPermissionDenied;
  }
  return machine_->mem().ReadBytes(World::kSecure, src, dst, len);
}

Result<PhysAddr> SecureWorld::DmaAlloc(uint64_t size) { return pool_.Alloc(size); }

void SecureWorld::DmaReleaseAll() { pool_.ReleaseAll(); }

Result<uint32_t> SecureWorld::RandomU32() {
  // Hardware RNG, as provided by the TEE kernel (paper §5).
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  return static_cast<uint32_t>(rng_state_);
}

uint64_t SecureWorld::TimestampUs() { return machine_->clock().now_us(); }

void SecureWorld::WorldSwitch(std::string_view label, uint64_t direction) {
  machine_->clock().Advance(machine_->latency().world_switch_us);
  ++world_switches_;
  Telemetry& t = Telemetry::Get();
  if (t.enabled()) {
    static Counter* switches = &t.metrics().counter("tee.world_switches");
    switches->Inc();
    t.Instant(TraceKind::kWorldSwitch, machine_->clock().now_us(), label, direction);
  }
}

Status SecureWorld::WaitForIrq(int line, uint64_t timeout_us) {
  SimClock& clock = machine_->clock();
  uint64_t t0 = clock.now_us();
  uint64_t deadline = t0 + timeout_us;
  Status result = Status::kOk;
  while (!machine_->irq().Pending(line)) {
    std::optional<uint64_t> next = clock.NextEventTime();
    if (!next.has_value() || *next > deadline) {
      clock.AdvanceTo(deadline);
      result = Status::kTimeout;
      break;
    }
    clock.StepToNextEvent();
  }
  if (Ok(result)) {
    clock.Advance(machine_->latency().irq_delivery_us);
  }
  Telemetry& t = Telemetry::Get();
  if (t.enabled()) {
    uint64_t dur = clock.now_us() - t0;
    static Histogram* wait_us = &t.metrics().histogram("tee.irq_wait_us");
    static Counter* timeouts = &t.metrics().counter("tee.irq_wait_timeouts");
    wait_us->Record(dur);
    if (!Ok(result)) {
      timeouts->Inc();
    }
    t.Span(TraceKind::kIrqWait, t0, dur, "irq_wait", static_cast<uint64_t>(line),
           Ok(result) ? 0 : 1);
  }
  return result;
}

void SecureWorld::DelayUs(uint64_t us) { machine_->clock().Advance(us); }

Status SecureWorld::SoftResetDevice(uint16_t device) {
  if (!DeviceMapped(device)) {
    return Status::kPermissionDenied;
  }
  DLT_ASSIGN_OR_RETURN(Machine::DeviceEntry e, machine_->DeviceById(device));
  machine_->clock().Advance(machine_->latency().device_reset_us);
  e.dev->SoftReset();
  return Status::kOk;
}

bool SecureWorld::AddressAllowed(PhysAddr addr, size_t len) {
  return pool_.Contains(addr, len);
}

void SecureWorld::ChargeReplayOverheadNs(uint64_t ns) { ChargeNs(ns); }

}  // namespace dlt
