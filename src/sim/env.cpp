#include "sim/env.hpp"

#include <algorithm>

#include "sim/sim_runtime.hpp"

namespace mrp::sim {

Env::Env(std::uint64_t seed)
    : sim_(seed),
      net_(sim_,
           [this](ProcessId from, ProcessId to, runtime::MessagePtr msg) {
        deliver(from, to, std::move(msg));
      }) {}

Env::~Env() = default;

Env::ProcRecord& Env::rec(ProcessId id) {
  auto it = records_.find(id);
  MRP_CHECK_MSG(it != records_.end(), "unknown process id");
  return it->second;
}

const Env::ProcRecord& Env::rec(ProcessId id) const {
  auto it = records_.find(id);
  MRP_CHECK_MSG(it != records_.end(), "unknown process id");
  return it->second;
}

void Env::add_node(ProcessId id, runtime::NodeFactory factory) {
  MRP_CHECK_MSG(records_.find(id) == records_.end(),
                "process id already registered");
  ProcRecord& r = records_[id];
  r.factory = std::move(factory);
  r.alive = true;
  r.epoch = 1;
  r.proc = r.factory(runtime_for(id));
  MRP_CHECK(r.proc != nullptr);
  r.proc->on_start();
}

void Env::call(ProcessId id, const std::function<void(runtime::Node*)>& fn) {
  MRP_CHECK_MSG(rec(id).alive, "call on a process that is down");
  fn(process(id));
}

runtime::Node* Env::process(ProcessId id) { return rec(id).proc.get(); }

runtime::Runtime& Env::runtime_for(ProcessId id) {
  auto& slot = adapters_[id];
  if (!slot) slot = std::make_unique<SimRuntime>(*this, id);
  return *slot;
}

runtime::Runtime& Env::oracle_runtime(ProcessId id) {
  MRP_CHECK_MSG(id < 0, "oracle ids are negative by convention");
  auto& slot = oracle_adapters_[id];
  if (!slot) slot = std::make_unique<SimRuntime>(*this, id, /*oracle=*/true);
  return *slot;
}

bool Env::is_alive(ProcessId id) const {
  auto it = records_.find(id);
  return it != records_.end() && it->second.alive;
}

std::uint64_t Env::epoch(ProcessId id) const { return rec(id).epoch; }

std::vector<ProcessId> Env::all_processes() const {
  std::vector<ProcessId> out;
  out.reserve(records_.size());
  for (const auto& [id, _] : records_) out.push_back(id);
  return out;
}

void Env::crash(ProcessId id) {
  ProcRecord& r = rec(id);
  MRP_CHECK_MSG(r.alive, "crashing a process that is already down");
  r.alive = false;
  ++r.epoch;  // invalidates all outstanding timers/guards/run events
  r.queue.clear();
  r.running = false;
  r.busy_until = 0;
  r.proc.reset();  // volatile state is gone
}

void Env::recover(ProcessId id) {
  ProcRecord& r = rec(id);
  MRP_CHECK_MSG(!r.alive, "recovering a process that is alive");
  r.alive = true;
  ++r.epoch;
  r.proc = r.factory(runtime_for(id));
  MRP_CHECK(r.proc != nullptr);
  r.proc->on_start();
}

void Env::set_cpu(ProcessId id, CpuParams p) { rec(id).cpu = p; }

TimeNs Env::cpu_busy(ProcessId id) const { return rec(id).busy_ns; }

TimeNs Env::cpu_background(ProcessId id) const { return rec(id).background_ns; }

void Env::reset_cpu_accounting() {
  for (auto& [_, r] : records_) {
    r.busy_ns = 0;
    r.background_ns = 0;
  }
}

Disk& Env::disk(ProcessId id, int index) {
  auto& slot = disks_[{id, index}];
  if (!slot) slot = std::make_unique<Disk>(sim_, DiskParams::memory());
  return *slot;
}

void Env::set_disk_params(ProcessId id, int index, DiskParams p) {
  // Replaces the device (resetting its queue and statistics); deployments
  // may have touched the disk during spawn (e.g. the coordinator's first
  // promise write), so reconfiguration at setup time must be allowed.
  disks_[{id, index}] = std::make_unique<Disk>(sim_, p);
}

void Env::send_from(ProcessId from, ProcessId to, runtime::MessagePtr m) {
  if (from == to) {
    // Loopback skips the network but still goes through the CPU queue.
    deliver(from, to, std::move(m));
    return;
  }
  net_.send(from, to, std::move(m));
}

void Env::schedule_guarded(ProcessId pid, TimeNs delay, runtime::Task fn) {
  const std::uint64_t epoch = rec(pid).epoch;
  sim_.schedule_after(delay, [this, pid, epoch, f = std::move(fn)]() mutable {
    const ProcRecord& r = rec(pid);
    if (r.alive && r.epoch == epoch) f();
  });
}

runtime::Task Env::make_guard(ProcessId pid, runtime::Task fn) {
  const std::uint64_t epoch = rec(pid).epoch;
  return [this, pid, epoch, f = std::move(fn)]() mutable {
    const ProcRecord& r = rec(pid);
    if (r.alive && r.epoch == epoch) f();
  };
}

void Env::charge(ProcessId pid, TimeNs cpu) {
  MRP_CHECK(cpu >= 0);
  if (pid == current_pid_) {
    current_charge_ += cpu;
    return;
  }
  // Charged outside a handler (timer context): occupy the lane directly.
  ProcRecord& r = rec(pid);
  r.busy_until = std::max(sim_.now(), r.busy_until) + cpu;
  r.busy_ns += cpu;
}

void Env::charge_background(ProcessId pid, TimeNs cpu) {
  MRP_CHECK(cpu >= 0);
  rec(pid).background_ns += cpu;
}

void Env::deliver(ProcessId from, ProcessId to, runtime::MessagePtr msg) {
  auto it = records_.find(to);
  if (it == records_.end() || !it->second.alive) return;  // dropped
  it->second.queue.emplace_back(from, std::move(msg));
  pump(to);
}

void Env::pump(ProcessId pid) {
  ProcRecord& r = rec(pid);
  if (r.running || r.queue.empty() || !r.alive) return;
  r.running = true;
  const std::uint64_t epoch = r.epoch;
  const TimeNs when = std::max(sim_.now(), r.busy_until);
  sim_.schedule_at(when, [this, pid, epoch] {
    ProcRecord& r2 = rec(pid);
    if (!r2.alive || r2.epoch != epoch) return;  // crashed meanwhile
    run_one(pid);
  });
}

void Env::run_one(ProcessId pid) {
  ProcRecord& r = rec(pid);
  r.running = false;
  if (!r.alive || r.queue.empty()) return;
  auto [from, msg] = std::move(r.queue.front());
  r.queue.pop_front();

  const ProcessId saved_pid = current_pid_;
  const TimeNs saved_charge = current_charge_;
  current_pid_ = pid;
  current_charge_ =
      r.cpu.per_message +
      static_cast<TimeNs>(r.cpu.per_byte_ns *
                          static_cast<double>(msg->wire_size()));
  r.proc->on_message(from, *msg);
  const TimeNs charge = current_charge_;
  current_pid_ = saved_pid;
  current_charge_ = saved_charge;

  // The process may have crashed itself inside the handler.
  ProcRecord& r2 = rec(pid);
  if (!r2.alive) return;
  r2.busy_until = sim_.now() + charge;
  r2.busy_ns += charge;
  pump(pid);
}

}  // namespace mrp::sim
