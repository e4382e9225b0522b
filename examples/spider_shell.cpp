// spider_shell — an interactive (or scripted) command-line front end for
// the schema-mapping debugger, in the spirit of the SPIDER prototype's
// visual interface. Reads a scenario file, then executes commands from
// stdin; run `help` (or see below) for the command list.
//
//   $ ./spider_shell scenario.txt
//   spider> chase
//   spider> probe Accounts(#N1, "2K", 234)
//   spider> next
//   spider> quit
//
// Non-interactive use:  echo 'chase
//   probe T(1, 3)
//   strat' | ./spider_shell scenario.txt
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "analysis/analyzer.h"
#include "chase/chase.h"
#include "chase/core.h"
#include "chase/solution_check.h"
#include "chase/weak_acyclicity.h"
#include "debugger/debugger.h"
#include "debugger/dot_export.h"
#include "debugger/mapping_diff.h"
#include "mapping/parser.h"
#include "mapping/writer.h"
#include "obs/obs_cli.h"
#include "storage/csv.h"
#include "provenance/annotated_chase.h"
#include "provenance/exchange_player.h"
#include "provenance/explain.h"
#include "routes/stratified.h"
#include "workload/example_gen.h"
#include "workload/real_scenarios.h"

namespace {

using namespace spider;

constexpr const char* kHelp = R"(commands:
  chase                 materialize the target instance with the chase
  gen [rows]            synthesize an illustrative source instance
                        (one LHS match per s-t tgd), then chase
  mapping               print the schema mapping
  stats                 schema/instance statistics
  check                 verify that (I, J) satisfies the mapping
  wacheck               test weak acyclicity of the target tgds
  source | target       print an instance
  probe <fact>          one route for a target fact, e.g. probe T(1, 2)
  all <fact>            the route forest (all routes) for a target fact
  next                  next alternative route for the last probed fact
  strat                 stratified interpretation of the last route
  minimize              minimize the last route
  explain <fact>        egd-aware extended route (eager provenance)
  why <fact>            why-provenance (source facts) of a target fact
  consequences <fact>   forward consequences of a SOURCE fact
  break <tgd>           toggle a breakpoint on a tgd
  play                  step through the last route (honors breakpoints)
  playchase             step through the whole exchange (watch J grow)
  core                  report which target facts are redundant (core)
  lint                  static checks for common mapping bugs
  dot <file>            write the last 'all' forest as Graphviz
  save <file>           serialize the scenario (schemas+deps+instances)
  loadcsv <rel> <file>  load CSV rows into a SOURCE relation
  help                  this text
  quit                  exit
)";

class Shell {
 public:
  explicit Shell(Scenario scenario) : scenario_(std::move(scenario)) {}

  int Run() {
    std::string line;
    while (Prompt(), std::getline(std::cin, line)) {
      std::istringstream in(line);
      std::string command;
      if (!(in >> command)) continue;
      std::string rest;
      std::getline(in, rest);
      while (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      try {
        if (!Dispatch(command, rest)) return 0;
      } catch (const SpiderError& e) {
        std::cout << "error: " << e.what() << '\n';
      }
    }
    return 0;
  }

 private:
  void Prompt() {
    std::cout << "spider> " << std::flush;
  }

  MappingDebugger& Debugger() {
    if (debugger_ == nullptr) {
      debugger_ = std::make_unique<MappingDebugger>(&scenario_);
    }
    return *debugger_;
  }

  void InvalidateDebugger() {
    debugger_.reset();
    enumerator_.reset();
    last_forest_.reset();
    last_route_.reset();
    last_facts_.clear();
    annotated_.reset();
  }

  bool Dispatch(const std::string& command, const std::string& rest) {
    if (command == "quit" || command == "exit") return false;
    if (command == "help") {
      std::cout << kHelp;
    } else if (command == "chase") {
      ChaseStats stats = ChaseScenario(&scenario_);
      InvalidateDebugger();
      std::cout << "chased: " << scenario_.target->TotalTuples()
                << " target facts (" << stats.st_steps << " s-t steps, "
                << stats.target_steps << " target steps, " << stats.egd_steps
                << " egd unifications)\n";
    } else if (command == "gen") {
      ExampleGenOptions options;
      if (!rest.empty()) options.rows_per_tgd = std::stoi(rest);
      size_t n = GenerateIllustrativeSource(&scenario_, options);
      ChaseScenario(&scenario_);
      InvalidateDebugger();
      std::cout << "generated " << n << " source facts; chased to "
                << scenario_.target->TotalTuples() << " target facts\n";
    } else if (command == "mapping") {
      std::cout << scenario_.mapping->ToString();
    } else if (command == "stats") {
      ScenarioStats stats = ComputeStats(scenario_);
      std::cout << "source: " << stats.source_elements << " schema elements, "
                << stats.source_tuples << " facts\n"
                << "target: " << stats.target_elements << " schema elements, "
                << stats.target_tuples << " facts\n"
                << "dependencies: " << stats.st_tgds << " s-t tgds, "
                << stats.target_tgds << " target tgds, " << stats.egds
                << " egds\n";
    } else if (command == "check") {
      std::string why;
      if (IsSolution(*scenario_.mapping, *scenario_.source, *scenario_.target,
                     &why)) {
        std::cout << "J is a solution for I\n";
      } else {
        std::cout << "NOT a solution: " << why << '\n';
      }
    } else if (command == "wacheck") {
      std::string why;
      if (IsWeaklyAcyclic(*scenario_.mapping, &why)) {
        std::cout << "target tgds are weakly acyclic (chase terminates)\n";
      } else {
        std::cout << "not weakly acyclic: " << why << '\n';
      }
    } else if (command == "source") {
      std::cout << RenderInstance(*scenario_.source,
                                  Debugger().render_context());
    } else if (command == "target") {
      std::cout << RenderInstance(*scenario_.target,
                                  Debugger().render_context());
    } else if (command == "probe") {
      FactRef fact = Debugger().TargetFact(rest);
      OneRouteResult result = Debugger().OneRoute({fact});
      if (!result.found) {
        std::cout << "no route exists for this fact\n";
      } else {
        std::cout << Debugger().Render(result.route);
        last_route_ = result.route;
        last_facts_ = {fact};
        enumerator_.reset();
      }
    } else if (command == "all") {
      FactRef fact = Debugger().TargetFact(rest);
      last_forest_ = std::make_unique<RouteForest>(
          Debugger().AllRoutes({fact}));
      std::cout << Debugger().Render(*last_forest_)
                << "(" << last_forest_->NumNodes() << " nodes, "
                << last_forest_->NumBranches() << " branches)\n";
      last_facts_ = {fact};
    } else if (command == "dot") {
      if (last_forest_ == nullptr) {
        std::cout << "run 'all <fact>' first\n";
        return true;
      }
      std::ofstream out(rest);
      if (!out) {
        std::cout << "cannot write " << rest << '\n';
        return true;
      }
      out << RouteForestToDot(*last_forest_, Debugger().render_context());
      std::cout << "wrote " << rest << " (render with: dot -Tsvg " << rest
                << ")\n";
    } else if (command == "loadcsv") {
      std::istringstream args(rest);
      std::string relation, path;
      if (!(args >> relation >> path)) {
        std::cout << "usage: loadcsv <relation> <file>\n";
        return true;
      }
      std::ifstream in(path);
      if (!in) {
        std::cout << "cannot open " << path << '\n';
        return true;
      }
      size_t n = LoadCsv(in, relation, scenario_.source.get());
      InvalidateDebugger();
      std::cout << "loaded " << n << " rows into " << relation
                << " (re-run chase to refresh J)\n";
    } else if (command == "save") {
      std::ofstream out(rest);
      if (!out) {
        std::cout << "cannot write " << rest << '\n';
        return true;
      }
      out << WriteScenario(scenario_);
      std::cout << "wrote " << rest << '\n';
    } else if (command == "lint") {
      // The structural passes only; spider_lint runs the full analyzer.
      AnalysisOptions lint;
      lint.termination = lint.subsumption = lint.egd_interaction = false;
      std::cout << RenderDiagnostics(
          AnalyzeMapping(*scenario_.mapping, lint).diagnostics);
    } else if (command == "core") {
      CoreResult core = ComputeCore(*scenario_.target);
      std::cout << (core.complete ? "core computed: " : "partial core: ")
                << scenario_.target->TotalTuples() << " -> "
                << core.core->TotalTuples() << " facts ("
                << core.facts_removed << " redundant)\n";
    } else if (command == "playchase") {
      if (annotated_ == nullptr) {
        annotated_ = std::make_unique<AnnotatedChaseResult>(
            AnnotatedChase(*scenario_.mapping, *scenario_.source));
      }
      ExchangePlayer player(&annotated_->log, scenario_.mapping.get());
      for (TgdId bp : Debugger().breakpoints()) player.SetBreakpoint(bp);
      while (true) {
        bool at_breakpoint = player.RunToBreakpoint();
        std::cout << player.Watch();
        if (!at_breakpoint) break;
        std::cout << "-- breakpoint; stepping over --\n";
        player.Step();
      }
    } else if (command == "next") {
      if (last_facts_.empty()) {
        std::cout << "probe a fact first\n";
        return true;
      }
      if (enumerator_ == nullptr) {
        enumerator_ = Debugger().EnumerateRoutes(last_facts_);
      }
      if (auto route = enumerator_->Next()) {
        std::cout << Debugger().Render(*route);
        last_route_ = *route;
      } else {
        std::cout << "no more routes\n";
      }
    } else if (command == "strat") {
      if (!RequireRoute()) return true;
      StratifiedInterpretation strat =
          Stratify(*last_route_, *scenario_.mapping, *scenario_.source,
                   *scenario_.target);
      std::cout << RenderStratified(strat, Debugger().render_context());
    } else if (command == "minimize") {
      if (!RequireRoute()) return true;
      *last_route_ = last_route_->Minimize(*scenario_.mapping,
                                           *scenario_.source,
                                           *scenario_.target, last_facts_);
      std::cout << Debugger().Render(*last_route_);
    } else if (command == "explain" || command == "why") {
      if (annotated_ == nullptr) {
        annotated_ = std::make_unique<AnnotatedChaseResult>(
            AnnotatedChase(*scenario_.mapping, *scenario_.source));
        if (annotated_->outcome != AnnotatedChaseOutcome::kSuccess) {
          std::cout << "annotated chase failed: "
                    << annotated_->failure_message << '\n';
          annotated_.reset();
          return true;
        }
      }
      std::string relation;
      Tuple tuple = ParseFactText(rest, &relation, {});
      auto id = annotated_->log.Find(
          scenario_.mapping->target().Require(relation), tuple);
      if (!id.has_value()) {
        std::cout << "fact not found in the (re-chased) solution; note that "
                     "explain works on chase-invented nulls (#N<k>)\n";
        return true;
      }
      if (command == "explain") {
        ExtendedRoute route =
            ExplainFact(annotated_->log, *id, *scenario_.mapping);
        std::cout << route.ToString(*scenario_.mapping);
      } else {
        for (const FactRef& f : WhyProvenance(annotated_->log, *id)) {
          std::cout << "  " << Debugger().RenderFactRef(f) << '\n';
        }
      }
    } else if (command == "consequences") {
      FactRef fact = Debugger().SourceFact(rest);
      std::cout << Debugger().Render(Debugger().SourceConsequences({fact}));
    } else if (command == "break") {
      if (Debugger().breakpoints().count(
              scenario_.mapping->FindTgd(rest)) > 0) {
        Debugger().ClearBreakpoint(rest);
        std::cout << "breakpoint cleared on " << rest << '\n';
      } else {
        Debugger().SetBreakpoint(rest);
        std::cout << "breakpoint set on " << rest << '\n';
      }
    } else if (command == "play") {
      if (!RequireRoute()) return true;
      RoutePlayer player = Debugger().Play(*last_route_);
      while (true) {
        bool at_breakpoint = player.RunToBreakpoint();
        std::cout << player.Watch();
        if (!at_breakpoint) break;
        std::cout << "-- breakpoint; stepping over --\n";
        player.Step();
      }
    } else {
      std::cout << "unknown command '" << command << "' (try: help)\n";
    }
    return true;
  }

  bool RequireRoute() {
    if (!last_route_.has_value()) {
      std::cout << "probe a fact first\n";
      return false;
    }
    return true;
  }

  Scenario scenario_;
  std::unique_ptr<MappingDebugger> debugger_;
  std::unique_ptr<RouteEnumerator> enumerator_;
  std::unique_ptr<AnnotatedChaseResult> annotated_;
  std::unique_ptr<RouteForest> last_forest_;
  std::optional<Route> last_route_;
  std::vector<FactRef> last_facts_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (spider::obs::HandleObsFlag(arg)) continue;
    if (!path.empty()) {
      std::cerr << "usage: spider_shell [obs flags] <scenario-file>\n"
                << spider::obs::ObsFlagsHelp();
      return 1;
    }
    path = arg;
  }
  if (path.empty()) {
    std::cerr << "usage: spider_shell [obs flags] <scenario-file>\n"
              << spider::obs::ObsFlagsHelp();
    return 1;
  }
  std::ifstream file(path);
  if (!file) {
    std::cerr << "cannot open " << path << '\n';
    return 1;
  }
  std::stringstream text;
  text << file.rdbuf();
  try {
    Scenario scenario = ParseScenario(text.str());
    std::cout << "loaded " << path << ": "
              << scenario.mapping->NumTgds() << " tgds, "
              << scenario.mapping->NumEgds() << " egds, "
              << scenario.source->TotalTuples() << " source facts, "
              << scenario.target->TotalTuples() << " target facts\n";
    int status = Shell(std::move(scenario)).Run();
    spider::obs::FlushObsOutputs();
    return status;
  } catch (const spider::SpiderError& e) {
    std::cerr << "error: " << e.what() << '\n';
    spider::obs::FlushObsOutputs();
    return 1;
  }
}
