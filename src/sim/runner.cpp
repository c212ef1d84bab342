#include "sim/runner.h"

#include <algorithm>
#include <stdexcept>

namespace loren::sim {

namespace {

/// Compact runnable list with O(1) removal via a pid -> position index.
class RunnableSet {
 public:
  explicit RunnableSet(ProcessId n) : pos_(n, kAbsent) {}

  void add(ProcessId pid) {
    pos_[pid] = list_.size();
    list_.push_back(pid);
  }
  void remove(ProcessId pid) {
    const std::size_t at = pos_[pid];
    if (at == kAbsent) throw std::logic_error("process not runnable");
    list_[at] = list_.back();
    pos_[list_[at]] = at;
    list_.pop_back();
    pos_[pid] = kAbsent;
  }
  [[nodiscard]] const std::vector<ProcessId>& list() const { return list_; }
  [[nodiscard]] bool empty() const { return list_.empty(); }

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  std::vector<ProcessId> list_;
  std::vector<std::size_t> pos_;
};

}  // namespace

RunResult run_execution(SimEnv& env, const AlgoFactory& factory,
                        const RunConfig& config) {
  const ProcessId n = config.num_processes;
  if (config.strategy == nullptr) {
    throw std::invalid_argument("RunConfig.strategy must be set");
  }
  if (env.num_processes() != n) {
    throw std::invalid_argument("SimEnv process count mismatch");
  }
  config.strategy->reset(n, config.seed);

  const std::uint64_t step_guard =
      config.max_total_steps != 0
          ? config.max_total_steps
          : 50'000ULL * n + 10'000'000ULL;

  std::vector<Task<Name>> tasks;
  tasks.reserve(n);
  std::vector<ProcState> states(n, ProcState::kRunnable);
  RunnableSet runnable(n);

  RunResult result;
  result.processes.resize(n);

  // Start every process: runs local code up to its first shared-memory op.
  for (ProcessId pid = 0; pid < n; ++pid) {
    env.set_current(pid);
    tasks.push_back(factory(env, pid));
    tasks.back().resume();
    if (tasks.back().done()) {
      states[pid] = ProcState::kDone;
      result.processes[pid].name = tasks[pid].result();
      result.processes[pid].finished = true;
    } else {
      if (!env.has_pending(pid)) {
        throw std::logic_error("process suspended without posting an op");
      }
      runnable.add(pid);
    }
  }

  ExecView view(env, states, runnable.list());
  while (!runnable.empty()) {
    if (env.total_steps() > step_guard) {
      throw std::runtime_error("execution exceeded the step guard");
    }
    const Decision d = config.strategy->pick(view);
    if (states[d.pid] != ProcState::kRunnable) {
      throw std::logic_error("strategy picked a non-runnable process");
    }
    if (d.crash) {
      env.drop_pending(d.pid);
      states[d.pid] = ProcState::kCrashed;
      result.processes[d.pid].crashed = true;
      tasks[d.pid] = Task<Name>();  // destroys the whole coroutine chain
      runnable.remove(d.pid);
      continue;
    }
    const PendingOp op = env.take_pending(d.pid);
    env.set_current(d.pid);
    env.execute(d.pid, op);
    op.resume.resume();
    if (tasks[d.pid].done()) {
      states[d.pid] = ProcState::kDone;
      result.processes[d.pid].name = tasks[d.pid].result();
      result.processes[d.pid].finished = true;
      runnable.remove(d.pid);
    } else if (!env.has_pending(d.pid)) {
      throw std::logic_error("process suspended without posting an op");
    }
  }

  // Every result was copied out: free the frames before the checks.
  tasks = std::vector<Task<Name>>();

  // Collect metrics and validate the renaming conditions. Uniqueness is a
  // sort of the held names and a comparison of neighbours, so it costs
  // nothing per name value: an algorithm may hand out 2^40.
  std::vector<Name> held;
  held.reserve(n);
  for (ProcessId pid = 0; pid < n; ++pid) {
    auto& p = result.processes[pid];
    p.steps = env.steps(pid);
    if (p.finished) {
      ++result.finished;
      result.max_steps = std::max(result.max_steps, p.steps);
      result.max_name = std::max(result.max_name, p.name);
      if (p.name >= 0) held.push_back(p.name);
    } else if (p.crashed) {
      ++result.crashed;
    }
  }
  std::sort(held.begin(), held.end());
  result.names_unique =
      std::adjacent_find(held.begin(), held.end()) == held.end();
  result.total_steps = env.total_steps();
  return result;
}

RunResult simulate(const AlgoFactory& factory, const RunConfig& config) {
  SimEnv env(config.num_processes, config.seed);
  return run_execution(env, factory, config);
}

}  // namespace loren::sim
