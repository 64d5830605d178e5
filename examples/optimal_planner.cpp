// optimal_planner: exact solving on small instances — the paper's §3.4
// time-indexed integer program (through the bundled simplex/MIP stack)
// and the combinatorial branch-and-bound, demonstrated on the Figure-1
// tension graph and a random instance.
//
//   $ ./optimal_planner
#include <iostream>

#include "ocd/core/scenario.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/exact/bnb.hpp"
#include "ocd/exact/ip_solver.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"

namespace {

void print_schedule(const ocd::core::Instance& inst,
                    const ocd::core::Schedule& schedule) {
  using namespace ocd;
  for (std::size_t i = 0; i < schedule.steps().size(); ++i) {
    std::cout << "  step " << i + 1 << ":";
    const core::Timestep step = schedule.step(i);
    for (const core::ArcSend& send : step.sends()) {
      const Arc& arc = inst.graph().arc(send.arc);
      std::cout << "  " << arc.from << "->" << arc.to
                << send.tokens.to_string();
    }
    std::cout << '\n';
  }
}

}  // namespace

int main() {
  using namespace ocd;

  // ---- Part 1: the Figure-1 graph ------------------------------------
  const core::Instance fig1 = core::figure1_instance();
  std::cout << "Figure-1 instance: " << fig1.summary() << "\n\n";

  // Fast plan: minimum makespan via branch and bound.
  const auto fast = exact::focd_min_makespan(fig1, 6);
  if (fast.has_value()) {
    std::cout << "minimum-time plan: " << fast->makespan << " steps, "
              << fast->schedule.bandwidth() << " moves ("
              << fast->stats.nodes << " search nodes)\n";
    print_schedule(fig1, fast->schedule);
  }

  // Frugal plan: minimum bandwidth via the time-indexed IP, one extra
  // step of slack.
  const auto frugal = exact::solve_eocd(fig1, 3);
  if (frugal.has_value()) {
    std::cout << "\nminimum-bandwidth plan: " << frugal->bandwidth
              << " moves in " << frugal->schedule.length()
              << " steps (IP, " << frugal->nodes_explored
              << " branch-and-bound nodes)\n";
    print_schedule(fig1, frugal->schedule);
  }
  std::cout << "\nThe two optima conflict: speed costs 6 moves, frugality "
               "costs a 3rd step.\n\n";

  // ---- Part 2: heuristics vs optimum on a random instance ------------
  Rng rng(99);
  const auto inst = core::random_small_instance(5, 2, 0.5, rng);
  std::cout << "random instance: " << inst.summary() << '\n';
  const auto optimum = exact::min_makespan_ip(inst, 10);
  if (!optimum.has_value()) {
    std::cout << "instance unsatisfiable\n";
    return 1;
  }
  std::cout << "exact minimum makespan (IP): " << optimum->makespan
            << " steps\n";
  for (const auto& name : heuristics::all_policy_names()) {
    auto policy = heuristics::make_policy(name);
    const auto run = sim::run(inst, *policy);
    std::cout << "  " << name << ": "
              << (run.success ? std::to_string(run.steps) + " steps"
                              : std::string("failed"))
              << '\n';
  }
  return 0;
}
